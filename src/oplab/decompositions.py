"""Operator decompositions: Drazin inverse, core-nilpotent and range-kernel
splittings, polar factors with the Aluthge/Duggal transforms, and the
coupled-transform bundle.

Numerical conventions shared with `matrix_core`:

* ranks follow the one rank rule of `matrix_core`, `_rank`; a decision on
  a power T^k reads the gate g_k of one `_power_walk` of T: rank T^k counts
  the singular values above g_k (`_power_rank`, which warns
  IllConditionedWarning when one lies within 10x of g_k), and a block of
  T^k, or the k-th power of a block of T, vanishes at norm <= g_k
  (`_nilpotency`): it holds T's rounding, so its radius is ||T||, not its own,
* powers come from `_matrix_power` (one T^n) and `_power_walk`, and an
  overflow raises NumericalFailureError via `_finite`,
* basis columns are phase-normalized (largest-modulus entry made real
  positive) so repeated runs produce identical bases,
* on singular input the polar factor ``u`` vanishes on the orthogonal
  complement of range(|M|), making ``u`` a partial isometry with ``u* u``
  the projection onto range(|M|).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DecompositionError,
    DimensionError,
    NumericalFailureError,
    PreconditionError,
    Tolerance,
    _as_integer,
    _block_compose,
    _finite,
    _hermitian_part,
    _largest,
    _matrix_power,
    _nilpotency,
    _norm2,
    _pinv,
    _power_walk,
    _rank,
    _require_square,
    _singular_values,
    adjoint,
    as_matrix,
)

__all__ = [
    "DecompositionError",
    "IllConditionedWarning",
    "CoreNilpotent",
    "PolarParts",
    "RangeKernelSplit",
    "TransformBundle",
    "drazin_index",
    "drazin_inverse",
    "drazin_residuals",
    "core_nilpotent",
    "range_kernel_split",
    "polar",
    "aluthge",
    "duggal",
    "build_transform_bundle",
]


class IllConditionedWarning(UserWarning):
    """A rank decision on a power T^k fell within 10x of its gate g_k."""


def _power_rank(a: np.ndarray, tol: Tolerance, n: int | None = None) -> tuple:
    """One `_power_walk` of a validated square ``a`` to T^n or, when n is
    None, to T^p at the Drazin index p (the least p with rank T^{p+1} =
    rank T^p): (k, T^k, rank T^k, g_k, ||T||), the rank counting singular
    values above g_k (T^0: None, rank d, gate 0).  One within 10x of g_k
    warns IllConditionedWarning, naming the caller of the function that
    called this (a public function, a verifier, `_build_transform_bundle` or
    `cli._cmd_drazin`), which hands the result to a kernel such as
    `_core_nilpotent`."""
    step = (0, None, a.shape[0], 0.0)
    for k, (power, s, gate) in enumerate(_power_walk(a, tol), 1):
        norm = _largest(s) if k == 1 else norm
        if ((s > gate / 10.0) & (s < gate * 10.0)).any():
            warnings.warn(f"singular values within 10x of the rank cutoff {gate:.3e}",
                          IllConditionedWarning, stacklevel=3)
        rank = int(np.count_nonzero(s > gate))
        if n is None and rank >= step[2]:
            break
        step = (k, power, rank, gate)
        if k == n:
            break
    return (*step, norm)


def _canonical_phases(cols: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    out = cols.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        pivot = out[i, j]
        if abs(pivot) > 0:
            out[:, j] *= np.conjugate(pivot) / abs(pivot)
    return out


def drazin_index(t, tol: Tolerance = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(T^{k+1}) = rank(T^k); 0 iff T is invertible."""
    return _power_rank(_require_square(as_matrix(t)), tol)[0]


def drazin_residuals(t, td, index: int) -> dict:
    """Norms of the three defining identities of the Drazin inverse, for a
    square T and a ``td`` of its shape."""
    a = _require_square(as_matrix(t))
    td = as_matrix(td)
    if td.shape != a.shape:
        raise DimensionError(f"inverse shape {td.shape} does not match operator shape {a.shape}")
    return _drazin_residuals(a, td, index, _matrix_power(a, index))[0]


def _drazin_residuals(a: np.ndarray, td: np.ndarray, index: int, tp: np.ndarray) -> tuple[dict, dict]:
    """`drazin_residuals` of a finite square ``a``, a finite ``td`` of its
    shape and ``tp`` = `_matrix_power(a, index)`, and the scale of each
    identity: the sum over its terms of the product of their factors'
    Frobenius norms, which bound the spectral norms without an SVD."""
    tq = _matrix_power(a, index + 1)
    # in float64, so an overflow gives an infinite scale without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        fa, fd, fp, fq = (float(np.linalg.norm(x)) for x in (a, td, tp, tq))
    residuals = {
        "commutator": _norm2(td @ a - a @ td),
        "inner_inverse": _norm2(td @ td @ a - td),
        "core_projection": _norm2(tq @ td - tp),
    }
    scales = {
        "commutator": 2.0 * fd * fa,
        "inner_inverse": fd * fd * fa + fd,
        "core_projection": fq * fd + fp,
    }
    return residuals, scales


def drazin_inverse(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse via rank stabilization: T^k (T^{2k+1})^+ T^k.

    The pseudo-inverse keeps rank T^k singular values, the rank the walk
    decided.  The three defining identities are verified on the result: a
    residual more than 1000x beyond tolerance at the scale of its own
    factors (their Frobenius norms, capped at 1 + ||T||^{2k+1}), the
    core projection's also beyond the walk's gate g_k, raises
    NumericalFailureError carrying the residual norms.
    """
    a = _require_square(as_matrix(t))
    return _drazin_inverse(a, _power_rank(a, tol), tol)[0]


def _drazin_inverse(a: np.ndarray, step: tuple, tol: Tolerance) -> tuple[np.ndarray, dict]:
    """`drazin_inverse` of a validated square ``a``, given its walk ``step``
    = `_power_rank(a, tol)` (its Drazin index k, rank T^k, gate g_k and
    ||T||), with the residuals of its three identities."""
    k, rank, gate, norm = step[0], step[2], step[3], step[4]
    tk = _matrix_power(a, k)
    # rank T^{2k+1} = rank T^k: the walk's decision, not a second cutoff
    td = tk @ _pinv(_matrix_power(a, 2 * k + 1), tol, rank) @ tk
    residuals, scales = _drazin_residuals(a, td, k, tk)
    # in float64, so an overflow gives an infinite scale without a warning
    with np.errstate(over="ignore"):
        ceiling = 1.0 + float(np.float64(norm) ** (2 * k + 1))
    # min keeps the ceiling when a scale is NaN (0 * inf)
    limits = {name: 1e3 * tol.gate(min(ceiling, scale)) for name, scale in scales.items()}
    # T^k - T^{k+1} T^D is T^k's nilpotent part, which the walk counted as zero at g_k
    limits["core_projection"] += gate
    if any(residuals[name] > limits[name] for name in residuals):
        raise NumericalFailureError("Drazin identities failed", residuals)
    return td, residuals


def _block_drazin_inverse(t1: np.ndarray, d2: int, tol: Tolerance) -> np.ndarray:
    """The Drazin inverse t1^-1 (+) 0 of T = t1 (+) t2, for a finite square
    ``t1`` of full rank and a nilpotent t2 of dimension ``d2``.

    The three identities of T^D on T reduce to t1 X = I for X = t1^-1, one
    solve; a residual ||t1 X - I|| more than 1000x beyond tolerance (at
    scale 1 + ||t1|| ||X||) raises NumericalFailureError carrying it.
    """
    d1 = t1.shape[0]
    eye = np.eye(d1, dtype=np.complex128)
    # a singular pivot or an overflow leaves a non-finite residual, typed below
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = np.linalg.solve(t1, eye)
        except np.linalg.LinAlgError:
            x = np.full_like(eye, np.nan)
        r = t1 @ x - eye
    residual = _norm2(r) if np.isfinite(r).all() else math.inf
    # a finite residual means a finite X: t1 has no zero column, so a
    # non-finite entry of X makes t1 X non-finite
    if residual == math.inf or residual > 1e3 * tol.gate(1.0 + _norm2(t1) * _norm2(x)):
        raise NumericalFailureError("Drazin identities failed", {"inverse": residual})
    td = np.zeros((d1 + d2, d1 + d2), dtype=np.complex128)
    td[:d1, :d1] = x
    return td


@dataclass(frozen=True)
class CoreNilpotent:
    """Similarity T = basis . diag(t1, t2) . basis^{-1} with t1 invertible and
    t2 nilpotent of the stated index; `orthogonal` records whether the two
    column spaces (range(T^p) and ker(T^p)) are mutually orthogonal."""

    index: int
    basis: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    orthogonal: bool


def core_nilpotent(t, tol: Tolerance = DEFAULT_TOL) -> CoreNilpotent:
    """Split T along range(T^p) and ker(T^p), p the Drazin index."""
    a = _require_square(as_matrix(t))
    return _core_nilpotent(a, _power_rank(a, tol), tol)


def _core_nilpotent(a: np.ndarray, step: tuple, tol: Tolerance) -> CoreNilpotent:
    """`core_nilpotent` of a validated square ``a``, given its walk ``step``
    = `_power_rank(a, tol)`."""
    d = a.shape[0]
    p, _, r, gate, _ = step
    if p == 0:
        return CoreNilpotent(
            index=0,
            basis=np.eye(d, dtype=np.complex128),
            t1=a.copy(),
            t2=np.zeros((0, 0), dtype=np.complex128),
            orthogonal=True,
        )
    u, _, vh = np.linalg.svd(_matrix_power(a, p))
    range_basis = _canonical_phases(u[:, :r])
    null_basis = _canonical_phases(adjoint(vh)[:, r:])
    basis = np.hstack([range_basis, null_basis])
    sigma = np.linalg.svd(basis, compute_uv=False)
    if _rank(sigma, tol) < d:
        raise DecompositionError(
            f"range(T^{p}) and ker(T^{p}) are not numerically complementary "
            f"(smallest basis singular value {float(sigma[-1]):.3e})"
        )
    conj = np.linalg.solve(basis, a @ basis)
    t1 = conj[:r, :r]
    t2 = conj[r:, r:]
    if _rank(_singular_values(t1), tol) < r:
        raise DecompositionError("invertible block is numerically singular")
    nil_residual, nilpotent = _nilpotency(_singular_values(_matrix_power(t2, p)), gate)
    if not nilpotent:
        raise DecompositionError(f"nilpotent block fails t2^{p} = 0 (residual {nil_residual:.3e})")
    cross = _norm2(adjoint(range_basis) @ null_basis)
    return CoreNilpotent(
        index=p,
        basis=basis,
        t1=t1,
        t2=t2,
        orthogonal=cross <= 100.0 * tol.gate(1.0),
    )


@dataclass(frozen=True)
class RangeKernelSplit:
    """Unitary change of basis adapted to range(T^n) and ker(T*^n).

    In the new coordinates T^n becomes [[t1n, x], [0, 0]] and T itself is
    upper triangular [[t1, coupling], [0, t2]] with t2^n = 0.
    """

    basis: np.ndarray
    d1: int
    t1n: np.ndarray
    x: np.ndarray
    t1: np.ndarray
    coupling: np.ndarray
    t2: np.ndarray
    residuals: dict


def range_kernel_split(t, n: int, tol: Tolerance = DEFAULT_TOL) -> RangeKernelSplit:
    """Orthogonal splitting of the space along range(T^n) + ker(T*^n).

    The two subspaces are orthogonal complements, so the basis is unitary;
    a lower block of the conjugated T^n above its gate g_n means the rank
    decision failed and raises DecompositionError.  A power T^n that
    overflows raises NumericalFailureError.  A non-integral n raises
    DomainError before any product.
    """
    n = _split_power(n)
    a = _require_square(as_matrix(t))
    return _range_kernel_split(a, n, _power_rank(a, tol, n), tol)


def _split_power(n) -> int:
    """The power of a range-kernel split: an integer >= 1, else DomainError
    (not integral) or PreconditionError."""
    n = _as_integer(n, "power")
    if n < 1:
        raise PreconditionError(f"power must be >= 1, got {n}")
    return n


def _range_kernel_split(a: np.ndarray, n: int, step: tuple, tol: Tolerance) -> RangeKernelSplit:
    """`range_kernel_split` of a validated square ``a`` at a power ``n`` >= 1,
    given its walk ``step`` = `_power_rank(a, tol, n)`."""
    _, tn, d1, gate, norm = step
    basis = _canonical_phases(np.linalg.svd(tn)[0])
    bn = adjoint(basis) @ tn @ basis
    bt = adjoint(basis) @ a @ basis
    power_lower, dropped = _nilpotency(_singular_values(bn[d1:, :]), gate)
    residuals = {"power_lower": power_lower, "triangular_lower": _norm2(bt[d1:, :d1])}
    if not dropped:
        raise DecompositionError(
            f"lower block of the conjugated power survives ({residuals['power_lower']:.3e}); "
            "rank decision failed"
        )
    if residuals["triangular_lower"] > tol.gate(1.0 + norm):
        raise DecompositionError(
            f"conjugated operator is not upper triangular ({residuals['triangular_lower']:.3e})"
        )
    t2 = bt[d1:, d1:]
    residuals["t2_nilpotency"], nilpotent = _nilpotency(_singular_values(_matrix_power(t2, n)), gate)
    if not nilpotent:
        raise DecompositionError(
            f"kernel-side block fails t2^{n} = 0 (residual {residuals['t2_nilpotency']:.3e})"
        )
    return RangeKernelSplit(
        basis=basis,
        d1=d1,
        t1n=bn[:d1, :d1],
        x=bn[:d1, d1:],
        t1=bt[:d1, :d1],
        coupling=bt[:d1, d1:],
        t2=t2,
        residuals=residuals,
    )


@dataclass(frozen=True)
class PolarParts:
    """Polar decomposition M = u . p with p = (M*M)^{1/2} PSD and u a
    partial isometry vanishing on the orthogonal complement of range(p);
    p_half = p^{1/2} comes from the same SVD."""

    u: np.ndarray
    p: np.ndarray
    p_half: np.ndarray

    def aluthge(self) -> np.ndarray:
        """The balanced transform p^{1/2} u p^{1/2}."""
        return self.p_half @ self.u @ self.p_half

    def duggal(self) -> np.ndarray:
        """The swapped-factor transform p u."""
        return self.p @ self.u


def polar(m, tol: Tolerance = DEFAULT_TOL) -> PolarParts:
    """Polar decomposition of a square matrix (unitary u iff M invertible).

    One SVD gives all three factors; u is W V* restricted to the directions
    kept by the rank cutoff.  A |M| whose entries or Hermitian part overflow
    (sigma_max near the float maximum) raises NumericalFailureError.
    """
    return _polar(_require_square(as_matrix(m)), tol)


def _polar(a: np.ndarray, tol: Tolerance) -> PolarParts:
    """`polar` of a validated square ``a``."""
    if a.size == 0:
        return PolarParts(a.copy(), a.copy(), a.copy())
    w, s, vh = np.linalg.svd(a)
    r = _rank(s, tol)
    v = adjoint(vh)
    # an overflow of |M| is typed by _finite, not warned by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        p = _hermitian_part((v * s) @ vh)
    return PolarParts(
        u=w[:, :r] @ vh[:r, :],
        p=_finite(p, "polar factor |M|", {"sigma_max": float(s[0])}),
        p_half=_hermitian_part((v * np.sqrt(s)) @ vh),
    )


def aluthge(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The balanced transform p^{1/2} u p^{1/2} of the polar factors."""
    return polar(m, tol).aluthge()


def duggal(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The swapped-factor transform p u of the polar factors."""
    return polar(m, tol).duggal()


@dataclass(frozen=True)
class TransformBundle:
    """Operators derived from the splitting T^n = [[t1n, x], [0, 0]] and the
    polar factors t1n = u1 p1, all expressed in the split basis coordinates:

        a = [[p1^{1/2} u1 p1^{1/2}, p1^{1/2} x], [0, 0]]
        b = [[p1 u1,               p1 x],        [0, 0]]
        c = [[p1,             p1^{1/2} u1* x], [x* u1 p1^{1/2}, x* x]]
        d = [[I,              u1* x],          [x* u1,          x* x]]
        q = p1 (+) I  (the invertible weight, q1 = q^{1/2})
    """

    d1: int
    d2: int
    basis: np.ndarray
    t1n: np.ndarray
    x: np.ndarray
    u1: np.ndarray
    p1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    q: np.ndarray
    q1: np.ndarray

    def identity_residuals(self, tol: Tolerance = DEFAULT_TOL) -> dict:
        """Norm residuals of the bundle's defining algebraic identities."""
        q1_inv = _pinv(self.q1, tol)
        return {
            "similarity": _norm2(self.a - q1_inv @ self.b @ self.q1),
            "congruence": _norm2(self.c - self.q1 @ self.d @ self.q1),
            "a_weight": _norm2(adjoint(self.a) @ self.c @ self.a - adjoint(self.a) @ self.q @ self.a),
            "b_weight": _norm2(adjoint(self.b) @ self.d @ self.b - adjoint(self.b) @ self.b),
        }


def build_transform_bundle(t, n: int, tol: Tolerance = DEFAULT_TOL) -> TransformBundle:
    """Assemble the coupled-transform bundle from the range-kernel split; a
    block that overflows raises NumericalFailureError."""
    n = _split_power(n)
    return _build_transform_bundle(_require_square(as_matrix(t)), n, tol)


# a block that overflows raises NumericalFailureError below, so numpy's
# warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _build_transform_bundle(a: np.ndarray, n: int, tol: Tolerance) -> TransformBundle:
    """`build_transform_bundle` of a validated square ``a`` at a power ``n`` >= 1."""
    split = _range_kernel_split(a, n, _power_rank(a, tol, n), tol)
    d = split.basis.shape[0]
    d1, d2 = split.d1, d - split.d1
    parts = _polar(split.t1n, tol)
    u1, p1, p1_half = parts.u, parts.p, parts.p_half
    x = split.x
    i1 = np.eye(d1, dtype=np.complex128)
    i2 = np.eye(d2, dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    z22 = np.zeros((d2, d2), dtype=np.complex128)
    a = _block_compose([[parts.aluthge(), p1_half @ x], [z21, z22]])
    b = _block_compose([[parts.duggal(), p1 @ x], [z21, z22]])
    ux = adjoint(u1) @ x
    c = _block_compose([[p1, p1_half @ ux], [adjoint(ux) @ p1_half, adjoint(x) @ x]])
    dd = _block_compose([[i1, ux], [adjoint(ux), adjoint(x) @ x]])
    q = _block_compose([[p1, np.zeros((d1, d2))], [z21, i2]])
    q1 = _block_compose([[p1_half, np.zeros((d1, d2))], [z21, i2]])
    for block in (a, b, c, dd):
        _finite(block, "transform bundle", {"power": n})
    return TransformBundle(
        d1=d1,
        d2=d2,
        basis=split.basis,
        t1n=split.t1n,
        x=x,
        u1=u1,
        p1=p1,
        a=a,
        b=b,
        c=_hermitian_part(c),
        d=_hermitian_part(dd),
        q=q,
        q1=q1,
    )
