"""Operator decompositions: Drazin inverse, core-nilpotent and range-kernel
splittings, polar factors with the Aluthge/Duggal transforms, and the
block-PSD contraction criterion.

Numerical conventions shared with `matrix_core`:

* ranks are decided by the one rank rule of `matrix_core`,
  `Tolerance.cutoff`: a singular value at or below
  ``max(rel_eps * sigma_max, abs_eps)`` counts as zero, and one within 10x of
  the cutoff triggers IllConditionedWarning,
* basis columns are phase-normalized (largest-modulus entry made real
  positive) so repeated runs produce identical bases,
* on singular input the polar factor ``u`` vanishes on the orthogonal
  complement of range(|M|), making ``u`` a partial isometry with ``u* u``
  the projection onto range(|M|).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    DimensionError,
    NumericalFailureError,
    OplabError,
    PreconditionError,
    Tolerance,
    _matrix_power,
    _psd_sqrt,
    _rank_with_cliff,
    _require_square,
    adjoint,
    as_matrix,
    block_compose,
    block_split,
    definiteness,
    hermitian_part,
    moore_penrose,
    numerical_rank,
    operator_norm,
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
    "ando_check",
    "build_transform_bundle",
]


class DecompositionError(OplabError):
    """A structural decomposition failed numerically."""


class IllConditionedWarning(UserWarning):
    """A rank decision fell within 10x of the singular-value cutoff."""


def _warn_near_cliff(cutoff: float, stacklevel: int) -> None:
    """Warn of singular values near the rank cutoff, ``stacklevel`` as seen
    from the calling function."""
    warnings.warn(
        f"singular values within 10x of the rank cutoff {cutoff:.3e}",
        IllConditionedWarning,
        stacklevel=stacklevel + 1,
    )


def _svd_rank(a: np.ndarray, tol: Tolerance):
    """Full SVD together with the numerical rank under the shared cutoff."""
    u, s, vh = np.linalg.svd(a)
    rank, cutoff, near = _rank_with_cliff(s, tol)
    if near:
        _warn_near_cliff(cutoff, 3)
    return u, s, vh, rank


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
    a = _require_square(as_matrix(t))
    d = a.shape[0]
    if d == 0:
        return 0
    rank_prev = d
    power = np.eye(d, dtype=np.complex128)
    # a power that overflows ends in the typed error below, not in numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d + 1):
            power = power @ a
            # ranks need no singular vectors
            try:
                s = np.linalg.svd(power, compute_uv=False)
            except np.linalg.LinAlgError:
                # LAPACK rejects a power that overflowed to inf or NaN
                raise NumericalFailureError("Drazin index: SVD of a power failed", {"power": k + 1}) from None
            rank_next, cutoff, near = _rank_with_cliff(s, tol)
            if near:
                _warn_near_cliff(cutoff, 2)
            if rank_next >= rank_prev:
                return k
            rank_prev = rank_next
    return d


def drazin_residuals(t, td, index: int) -> dict:
    """Norms of the three defining identities of the Drazin inverse."""
    a = as_matrix(t)
    td = as_matrix(td)
    tp = np.linalg.matrix_power(a, index)
    return {
        "commutator": float(np.linalg.norm(td @ a - a @ td, 2)) if a.size else 0.0,
        "inner_inverse": float(np.linalg.norm(td @ td @ a - td, 2)) if a.size else 0.0,
        "core_projection": float(np.linalg.norm(np.linalg.matrix_power(a, index + 1) @ td - tp, 2)) if a.size else 0.0,
    }


def drazin_inverse(t, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Drazin inverse via rank stabilization: T^k (T^{2k+1})^+ T^k.

    The three defining identities are verified on the result; residuals more
    than 1000x beyond tolerance (at scale 1 + ||T||^{2k+1}) raise
    NumericalFailureError carrying the residual norms.
    """
    a = _require_square(as_matrix(t))
    return _drazin_inverse(a, drazin_index(a, tol), tol)[0]


def _drazin_inverse(a: np.ndarray, k: int, tol: Tolerance) -> tuple[np.ndarray, dict]:
    """`drazin_inverse` of a validated square ``a`` of Drazin index ``k``,
    with the residuals of its three identities."""
    tk = np.linalg.matrix_power(a, k)
    td = tk @ moore_penrose(np.linalg.matrix_power(a, 2 * k + 1), tol) @ tk
    residuals = drazin_residuals(a, td, k)
    scale = 1.0 + float(np.float64(operator_norm(a)) ** (2 * k + 1))
    if max(residuals.values(), default=0.0) > 1e3 * tol.gate(scale):
        raise NumericalFailureError("Drazin identities failed", residuals)
    return td, residuals


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

    def reassemble(self) -> np.ndarray:
        d1 = self.t1.shape[0]
        d2 = self.t2.shape[0]
        blocks = [
            [self.t1, np.zeros((d1, d2), dtype=np.complex128)],
            [np.zeros((d2, d1), dtype=np.complex128), self.t2],
        ]
        return self.basis @ block_compose(blocks) @ np.linalg.inv(self.basis)


def core_nilpotent(t, tol: Tolerance = DEFAULT_TOL) -> CoreNilpotent:
    """Split T along range(T^p) and ker(T^p), p the Drazin index."""
    a = _require_square(as_matrix(t))
    d = a.shape[0]
    p = drazin_index(a, tol)
    if p == 0:
        return CoreNilpotent(
            index=0,
            basis=np.eye(d, dtype=np.complex128),
            t1=a.copy(),
            t2=np.zeros((0, 0), dtype=np.complex128),
            orthogonal=True,
        )
    tp = np.linalg.matrix_power(a, p)
    u, _, vh, r = _svd_rank(tp, tol)
    range_basis = _canonical_phases(u[:, :r])
    null_basis = _canonical_phases(adjoint(vh)[:, r:])
    basis = np.hstack([range_basis, null_basis])
    sigma = np.linalg.svd(basis, compute_uv=False)
    if float(sigma[-1]) <= tol.cutoff(float(sigma[0])):
        raise DecompositionError(
            f"range(T^{p}) and ker(T^{p}) are not numerically complementary "
            f"(smallest basis singular value {float(sigma[-1]):.3e})"
        )
    conj = np.linalg.solve(basis, a @ basis)
    t1 = conj[:r, :r]
    t2 = conj[r:, r:]
    if numerical_rank(t1, tol) < r:
        raise DecompositionError("invertible block is numerically singular")
    nil_residual = operator_norm(np.linalg.matrix_power(t2, p)) if t2.size else 0.0
    if nil_residual > tol.power_gate(operator_norm(t2), p):
        raise DecompositionError(f"nilpotent block fails t2^{p} = 0 (residual {nil_residual:.3e})")
    cross = float(np.linalg.norm(adjoint(range_basis) @ null_basis, 2)) if min(range_basis.shape[1], null_basis.shape[1]) else 0.0
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

    def power_grid(self) -> list[list[np.ndarray]]:
        d2 = self.basis.shape[0] - self.d1
        return [
            [self.t1n.copy(), self.x.copy()],
            [np.zeros((d2, self.d1), dtype=np.complex128), np.zeros((d2, d2), dtype=np.complex128)],
        ]

    def triangular_grid(self) -> list[list[np.ndarray]]:
        d2 = self.basis.shape[0] - self.d1
        return [
            [self.t1.copy(), self.coupling.copy()],
            [np.zeros((d2, self.d1), dtype=np.complex128), self.t2.copy()],
        ]


def range_kernel_split(t, n: int, tol: Tolerance = DEFAULT_TOL) -> RangeKernelSplit:
    """Orthogonal splitting of the space along range(T^n) + ker(T*^n).

    The two subspaces are orthogonal complements, so the basis is unitary;
    a lower block surviving above tolerance means the rank decision failed
    and raises DecompositionError.  A power T^n that overflows raises
    NumericalFailureError.
    """
    if n < 1:
        raise PreconditionError(f"power must be >= 1, got {n}")
    a = _require_square(as_matrix(t))
    tn = _matrix_power(a, n)
    u, s, _, d1 = _svd_rank(tn, tol)
    basis = _canonical_phases(u)
    bn = adjoint(basis) @ tn @ basis
    bt = adjoint(basis) @ a @ basis
    scale_n = 1.0 + (float(s[0]) if s.size else 0.0)
    scale_t = 1.0 + operator_norm(a)
    residuals = {
        "power_lower": float(np.linalg.norm(bn[d1:, :], 2)) if d1 < a.shape[0] else 0.0,
        "triangular_lower": float(np.linalg.norm(bt[d1:, :d1], 2)) if 0 < d1 < a.shape[0] else 0.0,
    }
    if residuals["power_lower"] > tol.gate(scale_n):
        raise DecompositionError(
            f"lower block of the conjugated power survives ({residuals['power_lower']:.3e}); "
            "rank decision failed"
        )
    if residuals["triangular_lower"] > tol.gate(scale_t):
        raise DecompositionError(
            f"conjugated operator is not upper triangular ({residuals['triangular_lower']:.3e})"
        )
    t2 = bt[d1:, d1:]
    residuals["t2_nilpotency"] = operator_norm(np.linalg.matrix_power(t2, n)) if t2.size else 0.0
    if residuals["t2_nilpotency"] > tol.power_gate(operator_norm(t2), n):
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
    kept by the rank cutoff.
    """
    a = _require_square(as_matrix(m))
    if a.size == 0:
        return PolarParts(a.copy(), a.copy(), a.copy())
    w, s, vh = np.linalg.svd(a)
    kept = s > tol.cutoff(float(s[0]))
    v = adjoint(vh)
    return PolarParts(
        u=w[:, kept] @ vh[kept, :],
        p=hermitian_part((v * s) @ vh),
        p_half=hermitian_part((v * np.sqrt(s)) @ vh),
    )


def aluthge(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The balanced transform p^{1/2} u p^{1/2} of the polar factors."""
    return polar(m, tol).aluthge()


def duggal(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The swapped-factor transform p u of the polar factors."""
    return polar(m, tol).duggal()


def ando_check(p, d1: int, tol: Tolerance = DEFAULT_TOL):
    """Block-PSD criterion: P >= 0 iff the diagonal blocks are PSD and the
    lower-left block factors as P22^{1/2} C P11^{1/2} for a contraction C.

    Returns (is_psd, contraction); the contraction is the minimal-norm
    solution built from pseudo-inverses of the square-root factors, and is
    None when P is not PSD.
    """
    a = _require_square(as_matrix(p))
    if not 0 < d1 < a.shape[0]:
        raise DimensionError(f"split index {d1} outside (0, {a.shape[0]})")
    verdict = definiteness(a, tol)
    if not verdict.is_psd:
        return False, None
    blocks = block_split(hermitian_part(a), d1)
    p11, p21, p22 = blocks[0][0], blocks[1][0], blocks[1][1]
    # the blocks of a P that passed as PSD are PSD, so they take the square
    # root without sqrt_psd's check, which is relative to the block's own scale
    c = moore_penrose(_psd_sqrt(p22), tol) @ p21 @ moore_penrose(_psd_sqrt(p11), tol)
    return True, c


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
        q1_inv = moore_penrose(self.q1, tol)
        return {
            "similarity": float(np.linalg.norm(self.a - q1_inv @ self.b @ self.q1, 2)),
            "congruence": float(np.linalg.norm(self.c - self.q1 @ self.d @ self.q1, 2)),
            "a_weight": float(
                np.linalg.norm(
                    adjoint(self.a) @ self.c @ self.a - adjoint(self.a) @ self.q @ self.a, 2
                )
            ),
            "b_weight": float(
                np.linalg.norm(adjoint(self.b) @ self.d @ self.b - adjoint(self.b) @ self.b, 2)
            ),
        }


def build_transform_bundle(t, n: int, tol: Tolerance = DEFAULT_TOL) -> TransformBundle:
    """Assemble the coupled-transform bundle from the range-kernel split."""
    split = range_kernel_split(t, n, tol)
    d = split.basis.shape[0]
    d1, d2 = split.d1, d - split.d1
    parts = polar(split.t1n, tol)
    u1, p1, p1_half = parts.u, parts.p, parts.p_half
    x = split.x
    i1 = np.eye(d1, dtype=np.complex128)
    i2 = np.eye(d2, dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    z22 = np.zeros((d2, d2), dtype=np.complex128)
    a = block_compose([[parts.aluthge(), p1_half @ x], [z21, z22]])
    b = block_compose([[parts.duggal(), p1 @ x], [z21, z22]])
    ux = adjoint(u1) @ x
    c = block_compose([[p1, p1_half @ ux], [adjoint(ux) @ p1_half, adjoint(x) @ x]])
    dd = block_compose([[i1, ux], [adjoint(ux), adjoint(x) @ x]])
    q = block_compose([[p1, np.zeros((d1, d2))], [z21, i2]])
    q1 = block_compose([[p1_half, np.zeros((d1, d2))], [z21, i2]])
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
        c=hermitian_part(c),
        d=hermitian_part(dd),
        q=q,
        q1=q1,
    )
