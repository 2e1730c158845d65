"""Seeded, reproducible random fixtures for every premise class the theorem
checks need.

Randomness comes from the counter-based Philox4x64 generator keyed with the
128-bit value ``(stream << 64) | seed``, so (seed, stream) pairs name
independent, replayable streams: suite instances draw from disjoint
streams and a quarantined instance can be regenerated exactly.  Within one
call all draws are strictly sequenced from a single stream.

Unitaries come from one LAPACK Householder QR of a complex Ginibre draw,
each column of Q multiplied by the phase of R's diagonal entry: the unique
QR factor with a positive real R diagonal, so the unitary fixtures are Haar
distributed.  The bits a spec draws are those of ``GENERATOR_VERSION``, which
every serialized spec records: version 3 replaced the two-pass classical
Gram-Schmidt of version 2, which replaced the modified Gram-Schmidt of
version 1, and a spec of version 1 or 2 is refused.  Like every fixture made
with ``@`` or an SVD, the bits depend on the LAPACK/BLAS build.

Generation is premise-certified: every family verifies the property its
consumers rely on, at the default tolerance, before returning, and raises
GenerationError instead of handing out an uncertified fixture.

``FAMILIES`` is the one schema of the families: the ``gen_*`` function of
each, its number of dims, its outputs and the params it accepts and requires;
each param default lives only in the ``gen_*`` signature.  ``GenSpec``
rejects an unknown, mistyped or non-finite param with PreconditionError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

import numpy as np

from .expansivity import EXPANSIVE, _defect_order, _defect_pass, _gram_weight
from .matrix_core import (
    DEFAULT_TOL,
    ZERO,
    GenerationError,
    PreconditionError,
    _GATES,
    _block_compose,
    _hermitian_part,
    _nilpotency,
    _power_walk,
    adjoint,
)

__all__ = [
    "GENERATOR_VERSION",
    "GenerationError",
    "GenSpec",
    "FAMILIES",
    "gen_haar_unitary",
    "gen_nilpotent",
    "gen_psd",
    "gen_drazin_pair",
    "gen_coupled_kernel",
    "gen_expansive_invertible",
    "generate",
]

GENERATOR_VERSION = 3
_MAX_RESAMPLES = 50
_U64 = 1 << 64


@dataclass(frozen=True)
class GenSpec:
    """Replayable name of one generated fixture."""

    seed: int
    family: str
    dims: tuple
    stream: int = 0
    # a dict cannot be hashed; equal specs still hash equal without it
    params: dict = field(default_factory=dict, hash=False)

    def __post_init__(self):
        for name in ("seed", "stream"):
            value = getattr(self, name)
            if not (_is_integer(value) and 0 <= value < _U64):
                raise PreconditionError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.family not in FAMILIES:
            raise PreconditionError(f"unknown family {self.family!r}")
        if not isinstance(self.params, dict):
            raise PreconditionError(f"params must be a dict, got {self.params!r}")
        try:
            dims = tuple(self.dims)
        except TypeError:
            raise PreconditionError(f"dims must be a sequence of integers, got {self.dims!r}") from None
        if not all(map(_is_integer, dims)):
            raise PreconditionError(f"dims must be integers, got {list(dims)}")
        object.__setattr__(self, "dims", tuple(int(d) for d in dims))
        family = FAMILIES[self.family]
        if len(self.dims) != family.arity:
            raise PreconditionError(f"family {self.family!r} takes {family.arity} dims, got {list(self.dims)}")
        missing = [name for name in family.required if name not in self.params]
        if missing:
            raise PreconditionError(f"family {self.family!r} requires params {missing}")
        params = {}
        for name, value in self.params.items():
            if name not in family.params:
                raise PreconditionError(f"family {self.family!r} takes no param {name!r}")
            accepts, description, cast = _PARAM_KINDS[name]
            if not accepts(value):
                raise PreconditionError(f"param {name!r} must be {description}, got {value!r}")
            params[name] = cast(value)
        object.__setattr__(self, "params", params)

    def to_json(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "seed": self.seed,
            "stream": self.stream,
            "family": self.family,
            "dims": list(self.dims),
            "params": dict(self.params),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GenSpec":
        """Inverse of ``to_json``; a spec without a version is version 1.

        A spec recorded by another generator version would draw different
        bits, so it raises PreconditionError instead.
        """
        version = obj.get("generator_version", 1)
        if version != GENERATOR_VERSION:
            raise PreconditionError(
                f"spec was drawn by generator version {version}; this is version {GENERATOR_VERSION}"
            )
        return cls(obj["seed"], obj["family"], obj["dims"], obj.get("stream", 0), obj.get("params", {}))


def _is_integer(value) -> bool:
    """An integral number that is not a bool (numpy integers included)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    """A real number that is not a bool and has a finite float value (numpy
    floats and integers included)."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


# the weight schemes gen_drazin_pair builds
_WEIGHT_SCHEMES = ("identity", "commuting")
_INTEGER = (_is_integer, "an integer", int)
_FINITE_REAL = (_is_finite_real, "a finite real number", float)
# per param name: the test a value must pass, its description, and the cast
# to the Python type GenSpec stores
_PARAM_KINDS = {
    "index": _INTEGER,
    "m": _INTEGER,
    "nil_index": (lambda value: value is None or _is_integer(value), "an integer or None",
                  lambda value: None if value is None else int(value)),
    "condition_cap": _FINITE_REAL,
    "x_scale": _FINITE_REAL,
    "scale": _FINITE_REAL,
    "perturbation": _FINITE_REAL,
    "weight": (lambda value: isinstance(value, str) and value in _WEIGHT_SCHEMES,
               " or ".join(map(repr, _WEIGHT_SCHEMES)), str),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(stream) << 64) | int(seed)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """The Q of A = QR whose R has a positive real diagonal: one LAPACK
    Householder QR, column j of its Q times the phase d_j / |d_j| of R's
    diagonal entry (Mezzadri 2007).  Backward stable, so Q is unitary to
    machine precision; its bits depend on the LAPACK/BLAS build, and at
    large d (128 on OpenBLAS 0.3.31) on its thread count.
    """
    q, r = np.linalg.qr(a)
    d = r.diagonal()
    size = np.abs(d)
    if not size.all():
        raise GenerationError("degenerate draw during orthonormalization")
    return q * (d / size)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    return _orthonormalize(_complex_normal(rng, (d, d)))


def gen_haar_unitary(seed: int, d: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed d x d unitary; ||U*U - I|| stays at machine precision.

    The gate reads the Frobenius norm, an upper bound of the spectral norm
    at a small part of the draw's cost."""
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    u = _haar(_rng(seed, stream), d)
    if float(np.linalg.norm(adjoint(u) @ u - np.eye(d))) > _GATES["unitary_fixture"]:
        raise GenerationError("orthonormalization lost unitarity")
    return u


def _nilpotent(rng: np.random.Generator, d: int, index: int) -> np.ndarray:
    """Jordan-chain nilpotent of exact index, conjugated by a Haar unitary."""
    n0 = np.zeros((d, d), dtype=np.complex128)
    for i in range(d - 1):
        if (i + 1) % index != 0:
            magnitude = rng.uniform(0.5, 1.5)
            phase = np.exp(2j * np.pi * rng.uniform())
            n0[i, i + 1] = magnitude * phase
    v = _haar(rng, d)
    return v @ n0 @ adjoint(v)


def gen_nilpotent(seed: int, d: int, index: int, stream: int = 0) -> np.ndarray:
    """Nilpotent with N^index = 0 and N^{index-1} != 0, in a random unitary basis."""
    if not 1 <= index <= d:
        raise PreconditionError(f"nilpotency index {index} outside [1, {d}]")
    n = _nilpotent(_rng(seed, stream), d, index)
    # one walk: N^index = 0 by the rule, and ||N^{index-1}|| (1 at index 1) >= _GATES["chain_edge"]
    edge = top = 1.0
    for _, s, gate in islice(_power_walk(n, DEFAULT_TOL), index):
        edge = top
        top, nilpotent = _nilpotency(s, gate)
    if not nilpotent:
        raise GenerationError(f"nilpotency certification failed (||N^index|| = {top:.3e})")
    if edge < _GATES["chain_edge"]:
        raise GenerationError("nilpotent chain collapsed below the stated index")
    return n


def gen_psd(seed: int, d: int, condition_cap: float = 100.0, stream: int = 0) -> np.ndarray:
    """Hermitian PSD with condition number at most ``condition_cap``.

    Eigenvalues are sampled log-uniformly in [cap^{-1/2}, cap^{1/2}].
    """
    if not 1 <= condition_cap < np.inf:
        raise PreconditionError(f"condition cap must be finite and >= 1, got {condition_cap}")
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    rng = _rng(seed, stream)
    half_log = 0.5 * np.log(condition_cap)
    eigs = np.exp(rng.uniform(-half_log, half_log, size=d))
    v = _haar(rng, d)
    return _hermitian_part((v * eigs) @ adjoint(v))


def gen_drazin_pair(seed: int, d1: int, d2: int, m: int = 1, weight: str = "identity",
                    nil_index: int | None = None, stream: int = 0):
    """Block-orthogonal fixture t = U (+) N with weight p supported on the
    invertible summand.

    ``weight="identity"`` puts p = I (+) 0; ``weight="commuting"`` builds U
    with a known eigenbasis and draws a positive weight diagonal in that same
    basis, so U*pU = p exactly and the defect on the support vanishes for
    every order.  The pair is certified (m, p)-expansive before returning.
    """
    if d1 < 1 or d2 < 1:
        raise PreconditionError(f"block dimensions must be >= 1, got ({d1}, {d2})")
    if weight not in _WEIGHT_SCHEMES:
        raise PreconditionError(f"unknown weight scheme {weight!r}")
    m = _defect_order(m)
    rng = _rng(seed, stream)
    if weight == "identity":
        u = _haar(rng, d1)
        p11 = np.eye(d1, dtype=np.complex128)
    else:
        w = _haar(rng, d1)
        phases = np.exp(2j * np.pi * rng.uniform(size=d1))
        u = w @ np.diag(phases) @ adjoint(w)
        p11 = _hermitian_part((w * rng.uniform(0.5, 2.0, size=d1)) @ adjoint(w))
    index = int(nil_index) if nil_index is not None else int(rng.integers(1, d2 + 1))
    if not 1 <= index <= d2:
        raise PreconditionError(f"nilpotency index {index} outside [1, {d2}]")
    n = _nilpotent(rng, d2, index)
    z12 = np.zeros((d1, d2), dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    t = _block_compose([[u, z12], [z21, n]])
    p = _block_compose([[p11, z12], [z21, np.zeros((d2, d2), dtype=np.complex128)]])
    result = _defect_pass(t, p, (m,), DEFAULT_TOL)[0]
    if EXPANSIVE not in result.classification:
        raise GenerationError(f"drazin pair failed expansivity certification ({result.verdict.verdict})")
    return t, p


def gen_coupled_kernel(seed: int, d1: int, d2: int, x_scale: float = 1.0, stream: int = 0) -> np.ndarray:
    """Fixture [[U, X], [0, 0]] whose powers all share the same Gram matrix,
    so it is (m, T*T)-isometric for every m; certified at m = 1."""
    if d1 < 1 or d2 < 1:
        raise PreconditionError(f"block dimensions must be >= 1, got ({d1}, {d2})")
    rng = _rng(seed, stream)
    u = _haar(rng, d1)
    x = x_scale * _complex_normal(rng, (d1, d2))
    t = _block_compose([
        [u, x],
        [np.zeros((d2, d1), dtype=np.complex128), np.zeros((d2, d2), dtype=np.complex128)],
    ])
    result = _defect_pass(t, _gram_weight(t, 1), (1,), DEFAULT_TOL)[0]
    if result.verdict.verdict != ZERO:
        raise GenerationError(f"coupled-kernel fixture is not weight-isometric ({result.verdict.verdict})")
    return t


def gen_expansive_invertible(seed: int, d: int, m: int = 1, scale: float = 2.0, perturbation: float = 0.1,
                             stream: int = 0) -> np.ndarray:
    """Invertible fixture scale * U * L with sigma_min >= 1, certified
    m-expansive.

    L is a unit-lower-triangular perturbation of the identity, so the fixture
    stays non-normal; draws failing sigma_min >= 1 (or, for odd m > 1, the
    defect certification) are rejected and resampled.  Even orders admit only
    unimodular scalings, i.e. scale = 1 with no perturbation (a unitary).
    """
    if d < 1 or m < 1:
        raise PreconditionError(f"dimension and order must be >= 1, got d = {d}, m = {m}")
    m = _defect_order(m)
    if scale < 1:
        raise PreconditionError(f"scaling must be >= 1, got {scale}")
    if m % 2 == 0:
        if scale != 1.0 or perturbation != 0.0:
            raise PreconditionError("even orders require scale = 1 and no perturbation")
        return gen_haar_unitary(seed, d, stream=stream)
    rng = _rng(seed, stream)
    identity = np.eye(d, dtype=np.complex128)
    for _ in range(_MAX_RESAMPLES):
        u = _haar(rng, d)
        lower = np.tril(_complex_normal(rng, (d, d)), k=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            t = scale * (u @ (identity + perturbation * lower))
        if not np.isfinite(t).all():
            raise GenerationError(f"fixture overflows at scale {scale} and perturbation {perturbation}")
        sigma_min = float(np.linalg.svd(t, compute_uv=False)[-1])
        if sigma_min < 1.0:
            continue
        if m > 1 and EXPANSIVE not in _defect_pass(t, identity, (m,), DEFAULT_TOL)[0].classification:
            continue
        return t
    raise GenerationError(f"resampling budget ({_MAX_RESAMPLES}) exhausted")


class Family(NamedTuple):
    """A fixture family: ``generate`` calls ``gen(seed, *dims, stream=stream, **params)``."""

    gen: str              # name of the gen_* function, looked up at each call
    arity: int            # number of dims
    outputs: tuple        # names of what gen returns, in order
    params: tuple = ()    # the params it accepts
    required: tuple = ()  # the accepted params without a default


FAMILIES = {
    "haar_unitary": Family("gen_haar_unitary", 1, ("t",)),
    "nilpotent": Family("gen_nilpotent", 1, ("t",), ("index",), ("index",)),
    "psd": Family("gen_psd", 1, ("p",), ("condition_cap",)),
    "drazin_pair": Family("gen_drazin_pair", 2, ("t", "p"), ("m", "weight", "nil_index")),
    "coupled_kernel": Family("gen_coupled_kernel", 2, ("t",), ("x_scale",)),
    "expansive_invertible": Family("gen_expansive_invertible", 1, ("t",), ("m", "scale", "perturbation")),
}


def generate(spec: GenSpec) -> dict:
    """The named matrices of a fixture, drawn as its ``FAMILIES`` entry says;
    the ``gen_*`` function is looked up at each call, so a wrapper sees it."""
    family = FAMILIES[spec.family]
    drawn = globals()[family.gen](spec.seed, *spec.dims, stream=spec.stream, **spec.params)
    return dict(zip(family.outputs, drawn if len(family.outputs) > 1 else (drawn,)))
