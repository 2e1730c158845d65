"""Seeded, reproducible random fixtures for every premise class the theorem
checks need.

Randomness comes from the counter-based Philox4x64 generator keyed with the
128-bit value ``(stream << 64) | seed``, so (seed, stream) pairs name
independent, replayable streams: suite instances draw from disjoint
streams and a quarantined instance can be regenerated exactly.  Within one
call all draws are strictly sequenced from a single stream.

Orthonormalization is done with two-pass classical Gram-Schmidt
(elementwise numpy, no BLAS/LAPACK) whose R-diagonal is positive by
construction; this is the unique positive-diagonal QR factor, so the unitary
fixtures are Haar distributed and reproduce bit-identically.  The bits a
spec draws are those of ``GENERATOR_VERSION``, which every serialized spec
records: version 2 replaced the modified Gram-Schmidt of version 1.

Generation is premise-certified: every family verifies the property its
consumers rely on before returning, and raises GenerationError instead of
handing out an uncertified fixture.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .expansivity import DefectSpec, defect, gram_weight
from .matrix_core import (
    DEFAULT_TOL,
    OplabError,
    PreconditionError,
    Tolerance,
    adjoint,
    block_compose,
    hermitian_part,
    operator_norm,
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

GENERATOR_VERSION = 2
_MAX_RESAMPLES = 50
_U64 = 1 << 64


class GenerationError(OplabError):
    """Fixture generation could not certify its premise."""


@dataclass(frozen=True)
class GenSpec:
    """Replayable name of one generated fixture."""

    seed: int
    family: str
    dims: tuple
    stream: int = 0
    params: dict = field(default_factory=dict)

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
        arity, required = _SIGNATURES[self.family]
        if len(self.dims) != arity:
            raise PreconditionError(f"family {self.family!r} takes {arity} dims, got {list(self.dims)}")
        missing = [name for name in required if name not in self.params]
        if missing:
            raise PreconditionError(f"family {self.family!r} requires params {missing}")
        for name, value in self.params.items():
            kind = _PARAM_KINDS.get(name)
            if kind is not None and not kind[0](value):
                raise PreconditionError(f"param {name!r} must be {kind[1]}, got {value!r}")

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
        return cls(
            seed=obj["seed"],
            stream=obj.get("stream", 0),
            family=obj["family"],
            dims=tuple(obj["dims"]),
            params=dict(obj.get("params", {})),
        )


def _is_integer(value) -> bool:
    """An integral number that is not a bool (numpy integers included)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number that is not a bool (numpy floats and integers included)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# the type each dispatcher needs of a param it reads, with its description
_PARAM_KINDS = {
    "index": (_is_integer, "an integer"),
    "m": (_is_integer, "an integer"),
    "nil_index": (lambda value: value is None or _is_integer(value), "an integer or None"),
    "condition_cap": (_is_real, "a real number"),
    "x_scale": (_is_real, "a real number"),
    "scale": (_is_real, "a real number"),
    "perturbation": (_is_real, "a real number"),
    "weight": (lambda value: isinstance(value, str), "a string"),
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(int(stream) << 64) | int(seed)))


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _orthonormalize(a: np.ndarray) -> np.ndarray:
    """Two-pass classical Gram-Schmidt with positive diagonal by construction.

    Columns are held as contiguous rows, next to their conjugates, so each
    pass projects column j against all finished ones with one elementwise
    product and two reductions: d Python steps in all.  Elementwise numpy
    only, so the bits do not depend on the BLAS build.
    """
    q = a.T.astype(np.complex128, order="C")
    qc = q.conj()
    for j in range(q.shape[0]):
        v = q[j]
        if j:
            done, done_conj = q[:j], qc[:j]
            for _ in range(2):
                v = v - (done * (done_conj * v).sum(axis=1)[:, None]).sum(axis=0)
        norm = np.sqrt((np.abs(v) ** 2).sum().real)
        if norm == 0.0:
            raise GenerationError("degenerate draw during orthonormalization")
        q[j] = v = v / norm
        qc[j] = v.conj()
    return np.ascontiguousarray(q.T)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    return _orthonormalize(_complex_normal(rng, (d, d)))


def gen_haar_unitary(seed: int, d: int, stream: int = 0) -> np.ndarray:
    """Haar-distributed d x d unitary; ||U*U - I|| stays at machine precision."""
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    u = _haar(_rng(seed, stream), d)
    if float(np.linalg.norm(adjoint(u) @ u - np.eye(d), 2)) > 1e-12:
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
    top = operator_norm(np.linalg.matrix_power(n, index))
    if top > DEFAULT_TOL.power_gate(operator_norm(n), index):
        raise GenerationError(f"nilpotency certification failed (||N^index|| = {top:.3e})")
    if index > 1 and operator_norm(np.linalg.matrix_power(n, index - 1)) < 1e-3:
        raise GenerationError("nilpotent chain collapsed below the stated index")
    return n


def gen_psd(seed: int, d: int, condition_cap: float, stream: int = 0) -> np.ndarray:
    """Hermitian PSD with condition number at most ``condition_cap``.

    Eigenvalues are sampled log-uniformly in [cap^{-1/2}, cap^{1/2}].
    """
    if condition_cap < 1:
        raise PreconditionError(f"condition cap must be >= 1, got {condition_cap}")
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
    rng = _rng(seed, stream)
    half_log = 0.5 * np.log(condition_cap)
    eigs = np.exp(rng.uniform(-half_log, half_log, size=d))
    v = _haar(rng, d)
    return hermitian_part((v * eigs) @ adjoint(v))


def gen_drazin_pair(
    seed: int,
    d1: int,
    d2: int,
    m: int,
    weight: str = "identity",
    nil_index: int | None = None,
    stream: int = 0,
    tol: Tolerance = DEFAULT_TOL,
):
    """Block-orthogonal fixture t = U (+) N with weight p supported on the
    invertible summand.

    ``weight="identity"`` puts p = I (+) 0; ``weight="commuting"`` builds U
    with a known eigenbasis and draws a positive weight diagonal in that same
    basis, so U*pU = p exactly and the defect on the support vanishes for
    every order.  The pair is certified (m, p)-expansive before returning.
    """
    if d1 < 1 or d2 < 1:
        raise PreconditionError(f"block dimensions must be >= 1, got ({d1}, {d2})")
    rng = _rng(seed, stream)
    if weight == "identity":
        u = _haar(rng, d1)
        p11 = np.eye(d1, dtype=np.complex128)
    elif weight == "commuting":
        w = _haar(rng, d1)
        phases = np.exp(2j * np.pi * rng.uniform(size=d1))
        u = w @ np.diag(phases) @ adjoint(w)
        p11 = hermitian_part((w * rng.uniform(0.5, 2.0, size=d1)) @ adjoint(w))
    else:
        raise PreconditionError(f"unknown weight scheme {weight!r}")
    index = int(nil_index) if nil_index is not None else int(rng.integers(1, d2 + 1))
    if not 1 <= index <= d2:
        raise PreconditionError(f"nilpotency index {index} outside [1, {d2}]")
    n = _nilpotent(rng, d2, index)
    z12 = np.zeros((d1, d2), dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    t = block_compose([[u, z12], [z21, n]])
    p = block_compose([[p11, z12], [z21, np.zeros((d2, d2), dtype=np.complex128)]])
    result = defect(DefectSpec(t=t, p=p, m=m), tol)
    if "expansive" not in result.classification:
        raise GenerationError(f"drazin pair failed expansivity certification ({result.verdict.verdict})")
    return t, p


def gen_coupled_kernel(seed: int, d1: int, d2: int, x_scale: float = 1.0, stream: int = 0,
                       tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Fixture [[U, X], [0, 0]] whose powers all share the same Gram matrix,
    so it is (m, T*T)-isometric for every m; certified at m = 1."""
    if d1 < 1 or d2 < 1:
        raise PreconditionError(f"block dimensions must be >= 1, got ({d1}, {d2})")
    rng = _rng(seed, stream)
    u = _haar(rng, d1)
    x = x_scale * _complex_normal(rng, (d1, d2))
    t = block_compose([
        [u, x],
        [np.zeros((d2, d1), dtype=np.complex128), np.zeros((d2, d2), dtype=np.complex128)],
    ])
    result = defect(DefectSpec(t=t, p=gram_weight(t, 1), m=1), tol)
    if result.verdict.verdict != "ZERO":
        raise GenerationError(f"coupled-kernel fixture is not weight-isometric ({result.verdict.verdict})")
    return t


def gen_expansive_invertible(
    seed: int,
    d: int,
    m: int,
    scale: float = 2.0,
    perturbation: float = 0.1,
    stream: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Invertible fixture scale * U * L with sigma_min >= 1, certified
    m-expansive.

    L is a unit-lower-triangular perturbation of the identity, so the fixture
    stays non-normal; draws failing sigma_min >= 1 (or, for odd m > 1, the
    defect certification) are rejected and resampled.  Even orders admit only
    unimodular scalings, i.e. scale = 1 with no perturbation (a unitary).
    """
    if d < 1:
        raise PreconditionError(f"dimension must be >= 1, got {d}")
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
        t = scale * (u @ (identity + perturbation * lower))
        sigma_min = float(np.linalg.svd(t, compute_uv=False)[-1])
        if sigma_min < 1.0:
            continue
        if m > 1 and "expansive" not in defect(DefectSpec(t=t, p=identity, m=m), tol).classification:
            continue
        return t
    raise GenerationError(f"resampling budget ({_MAX_RESAMPLES}) exhausted")


def _dispatch_haar(spec: GenSpec) -> dict:
    (d,) = spec.dims
    return {"t": gen_haar_unitary(spec.seed, d, stream=spec.stream)}


def _dispatch_nilpotent(spec: GenSpec) -> dict:
    (d,) = spec.dims
    return {"t": gen_nilpotent(spec.seed, d, int(spec.params["index"]), stream=spec.stream)}


def _dispatch_psd(spec: GenSpec) -> dict:
    (d,) = spec.dims
    return {"p": gen_psd(spec.seed, d, float(spec.params.get("condition_cap", 100.0)), stream=spec.stream)}


def _dispatch_drazin_pair(spec: GenSpec) -> dict:
    d1, d2 = spec.dims
    t, p = gen_drazin_pair(
        spec.seed,
        d1,
        d2,
        int(spec.params.get("m", 1)),
        weight=spec.params.get("weight", "identity"),
        nil_index=spec.params.get("nil_index"),
        stream=spec.stream,
    )
    return {"t": t, "p": p}


def _dispatch_coupled_kernel(spec: GenSpec) -> dict:
    d1, d2 = spec.dims
    return {
        "t": gen_coupled_kernel(
            spec.seed, d1, d2, x_scale=float(spec.params.get("x_scale", 1.0)), stream=spec.stream
        )
    }


def _dispatch_expansive_invertible(spec: GenSpec) -> dict:
    (d,) = spec.dims
    return {
        "t": gen_expansive_invertible(
            spec.seed,
            d,
            int(spec.params.get("m", 1)),
            scale=float(spec.params.get("scale", 2.0)),
            perturbation=float(spec.params.get("perturbation", 0.1)),
            stream=spec.stream,
        )
    }


FAMILIES = {
    "haar_unitary": _dispatch_haar,
    "nilpotent": _dispatch_nilpotent,
    "psd": _dispatch_psd,
    "drazin_pair": _dispatch_drazin_pair,
    "coupled_kernel": _dispatch_coupled_kernel,
    "expansive_invertible": _dispatch_expansive_invertible,
}

# per family: the number of dims and the params its dispatcher requires
_SIGNATURES = {
    "haar_unitary": (1, ()),
    "nilpotent": (1, ("index",)),
    "psd": (1, ()),
    "drazin_pair": (2, ()),
    "coupled_kernel": (2, ()),
    "expansive_invertible": (1, ()),
}


def generate(spec: GenSpec) -> dict:
    """Produce the named matrices of a fixture from its replayable spec."""
    return FAMILIES[spec.family](spec)
