"""Executable checks for the structural theorems about weighted expansive
operators, one verifier per statement.

Each verifier evaluates a concrete instance and returns a TheoremVerdict:
``premises_met`` records whether the statement's hypotheses hold for the
instance (vacuous premises are a first-class result, not an error), ``holds``
records whether the conclusion was confirmed, and ``witness`` carries the
residual norms, verdicts and offending eigenvalues needed to reproduce the
decision.  A verdict with premises met and ``holds`` false is a potential
counterexample and is what the suite runner quarantines.  Every verifier
returns through ``_conclude``: a vacuous verdict (premises not met) holds,
and its witness carries ``"vacuous": True``.

Residual decisions made by verifiers use a threshold of ``100 * rel_eps``
scaled to the quantity under test (1e-8 at the default tolerance): conclusion
checks sit downstream of decompositions and defect sums, so they are given
two orders of magnitude of slack over the core tolerance.

Statements whose proofs take adjoints block-by-block presume the splitting
``T = T1 (+) T2`` is orthogonal, which the oblique core-nilpotent splitting
of a general matrix need not be; those verifiers therefore gate their
premises on the ``orthogonal`` flag of the computed decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompositions import _block_drazin_inverse, _build_transform_bundle, _core_nilpotent, _power_rank, _split_power
from .expansivity import EXPANSIVE, DefectSpec, _defect_order, _defect_pass, _gram_weight, _tilde
from .matrix_core import (
    DEFAULT_TOL,
    ZERO,
    PreconditionError,
    Tolerance,
    _as_integer,
    _block_compose,
    _finite,
    _hermitian_gate,
    _hermitian_part,
    _matrix_power,
    _nilpotency,
    _norm2,
    _power_walk,
    _rank,
    _require_square,
    _sign_verdict,
    _singular_values,
    adjoint,
    as_matrix,
)

__all__ = [
    "TheoremVerdict",
    "verify_power_stability",
    "verify_no_singular_expansive",
    "verify_weight_decomposition",
    "verify_two_expansive_isometry",
    "verify_unitary_nilpotent_structure",
    "verify_sandwich_isometry",
    "spectral_constraints",
    "verify_transform_bundle",
]

# Conclusion-residual slack over the core tolerance (1e-8 at defaults).
RESIDUAL_FACTOR = 100.0


def _gate(tol: Tolerance, scale: float) -> float:
    return RESIDUAL_FACTOR * tol.rel_eps * scale + tol.abs_eps


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one verifier run on one instance.

    ``holds`` is meaningful only when ``premises_met``; vacuous instances
    report holds=True with witness["vacuous"]=True.
    """

    theorem_id: str
    premises_met: bool
    holds: bool
    witness: dict


def _conclude(theorem_id: str, premises_met: bool, holds: bool, witness: dict) -> TheoremVerdict:
    """The one constructor of a verifier's verdict: a vacuous instance holds,
    with ``"vacuous": True`` added to a copy of its witness."""
    if not premises_met:
        holds, witness = True, {**witness, "vacuous": True}
    return TheoremVerdict(theorem_id, bool(premises_met), holds, witness)


def verify_power_stability(t, p, m: int, n_max: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """(m, P)-expansive operators stay (m, P)-expansive under every power.

    Premise: the instance is (m, P)-expansive at n = 1.  Conclusion: the
    defect of T^n against the same weight stays NSD for 2 <= n <= n_max.
    """
    n_max = _as_integer(n_max, "n_max")
    if n_max < 2:
        raise PreconditionError(f"n_max must be >= 2, got {n_max}")
    spec = DefectSpec(t=t, p=p, m=m)
    h = _hermitian_gate(spec.p, tol)
    base = _defect_pass(spec.t, h, (spec.m,), tol)[0]
    witness = {"m": m, "n_max": n_max, "base_verdict": base.verdict.to_json()}
    if EXPANSIVE not in base.classification:
        return _conclude("power_stability", False, True, witness)
    per_power = []
    holds = True
    for n in range(2, n_max + 1):
        result = _defect_pass(_matrix_power(spec.t, n), h, (spec.m,), tol)[0]
        expansive = EXPANSIVE in result.classification
        per_power.append({"n": n, "verdict": result.verdict.to_json(), "expansive": expansive})
        holds = holds and expansive
    witness["powers"] = per_power
    return _conclude("power_stability", True, holds, witness)


def verify_no_singular_expansive(t, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A singular operator (nontrivial kernel of T^p) is never m-expansive.

    Invertible input makes the premise vacuous: invertible operators can be
    m-expansive (any unitary is), the exclusion needs a nontrivial kernel
    summand.
    """
    m = _defect_order(m)
    a = _require_square(as_matrix(t))
    index, _, rank, _, _ = _power_rank(a, tol)
    kernel_dim = a.shape[0] - rank
    result = _defect_pass(a, np.eye(a.shape[0], dtype=np.complex128), (m,), tol)[0]
    witness = {
        "m": m,
        "drazin_index": index,
        "kernel_dim": kernel_dim,
        "identity_defect": result.verdict.to_json(),
    }
    return _conclude("no_singular_expansive", kernel_dim >= 1, EXPANSIVE not in result.classification, witness)


def _nilpotency_index(t2: np.ndarray, tol: Tolerance) -> int:
    """Smallest q <= dim t2 with `_nilpotency` deciding t2^q = 0, from one
    `_power_walk` of t2; else PreconditionError."""
    if t2.shape[0] == 0:
        return 0
    for q, (_, s, gate) in zip(range(1, t2.shape[0] + 1), _power_walk(t2, tol)):
        if _nilpotency(s, gate)[1]:
            return q
    raise PreconditionError("second block is not nilpotent")


def _psd_weight(p: np.ndarray, tol: Tolerance) -> np.ndarray:
    """``p`` through `_hermitian_gate`, for a finite 2-D ``p``; DimensionError
    unless it is square, and PreconditionError unless it is Hermitian PSD."""
    h = _hermitian_gate(_require_square(p), tol)
    if not _sign_verdict(h, tol).is_psd:
        raise PreconditionError("weight must be Hermitian PSD")
    return h


def verify_weight_decomposition(t1, t2, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """On an orthogonal fixture T = t1 (+) t2 (t1 invertible, t2 nilpotent),
    T is (m, P)-expansive iff P is supported on the invertible summand and
    the sign-flipped defect of the Drazin inverse against P is NSD.

    Both implications are evaluated on the instance; each is vacuous when its
    antecedent fails.  The nilpotent induction anchor
    t2^{*(q-1)} P22 t2^{q-1} <= 0 is checked alongside the forward direction.
    q, the nilpotency index of t2, comes from the one power walk, of t2; the
    Drazin inverse is t1^-1 (+) 0, taken from the blocks
    (`_block_drazin_inverse`), so no power of the composed T is formed.
    """
    m = _defect_order(m)
    a1, a2, p = map(as_matrix, (t1, t2, p))
    d1, d2 = a1.shape[0], a2.shape[0]
    if a1.shape != (d1, d1) or a2.shape != (d2, d2):
        raise PreconditionError("blocks must be square")
    if p.shape != (d1 + d2, d1 + d2):
        raise PreconditionError(f"weight shape {p.shape} does not match block dimensions {(d1 + d2,)}")
    if _rank(_singular_values(a1), tol) < d1:
        raise PreconditionError("invertible block is numerically singular")
    q = _nilpotency_index(a2, tol)
    h = _psd_weight(p, tol)

    z12 = np.zeros((d1, d2), dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    t = _block_compose([[a1, z12], [z21, a2]])
    scale_p = 1.0 + _norm2(p)

    expansive = EXPANSIVE in _defect_pass(t, h, (m,), tol)[0].classification
    td = _block_drazin_inverse(a1, d2, tol)
    tilde = _tilde(_defect_pass(td, h, (m,), tol)[0], m)
    tilde_nsd = tilde.verdict.is_nsd

    p22 = p[d1:, d1:]
    off_norm = max(_norm2(p[:d1, d1:]), _norm2(p[d1:, :d1]), _norm2(p22))
    supported = off_norm <= _gate(tol, scale_p)

    anchor_nsd = True
    if q >= 1 and d2 >= 1:
        edge = _matrix_power(a2, q - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            anchor = _hermitian_part(adjoint(edge) @ p22 @ edge)
        anchor_nsd = _sign_verdict(_finite(anchor, "chain anchor", {"power": q - 1}), tol).is_nsd

    forward_applicable = expansive
    forward_holds = supported and tilde_nsd and anchor_nsd
    reverse_applicable = supported and tilde_nsd
    reverse_holds = expansive

    witness = {
        "m": m,
        "nilpotency_index": q,
        "expansive": expansive,
        "weight_off_support_norm": off_norm,
        "weight_supported": supported,
        "drazin_tilde_verdict": tilde.verdict.to_json(),
        "chain_anchor_nsd": anchor_nsd,
        "forward_applicable": forward_applicable,
        "forward_holds": forward_holds if forward_applicable else None,
        "reverse_applicable": reverse_applicable,
        "reverse_holds": reverse_holds if reverse_applicable else None,
    }
    holds = (not forward_applicable or forward_holds) and (not reverse_applicable or reverse_holds)
    return _conclude("weight_decomposition", forward_applicable or reverse_applicable, holds, witness)


def verify_two_expansive_isometry(t, p, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A (2, P)-expansive operator with orthogonal core-nilpotent splitting
    is P-isometric: T*PT = P."""
    spec = DefectSpec(t=t, p=p, m=2)
    a, p = spec.t, spec.p
    result = _defect_pass(a, _psd_weight(p, tol), (2,), tol)[0]
    core = _core_nilpotent(a, _power_rank(a, tol), tol)
    expansive = EXPANSIVE in result.classification
    residual = _norm2(adjoint(a) @ p @ a - p)
    threshold = _gate(tol, 1.0 + _norm2(p))
    witness = {
        "defect_verdict": result.verdict.to_json(),
        "core_index": core.index,
        "core_orthogonal": core.orthogonal,
        "isometry_residual": residual,
        "threshold": threshold,
    }
    return _conclude("two_expansive_isometry", expansive and core.orthogonal, residual <= threshold, witness)


def verify_unitary_nilpotent_structure(t, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A (2, T*T)-expansive operator with orthogonal core-nilpotent splitting
    has a unitary invertible block, i.e. it is a unitary plus a nilpotent."""
    a = _require_square(as_matrix(t))
    result = _defect_pass(a, _gram_weight(a, 1), (2,), tol)[0]
    core = _core_nilpotent(a, _power_rank(a, tol), tol)
    expansive = EXPANSIVE in result.classification
    t1 = core.t1
    residual = _norm2(adjoint(t1) @ t1 - np.eye(t1.shape[0]))
    witness = {
        "defect_verdict": result.verdict.to_json(),
        "core_index": core.index,
        "core_orthogonal": core.orthogonal,
        "unitarity_residual": residual,
    }
    return _conclude("unitary_nilpotent_structure", expansive and core.orthogonal,
                     residual <= _gate(tol, 1.0), witness)


def verify_sandwich_isometry(t, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """(m, P)-expansive plus (m-2, P)-contractive forces (m-1, P)-isometric
    on orthogonal fixtures; the contractive half is vacuous at m = 2."""
    m = _as_integer(m, "defect order")
    if m < 2:
        raise PreconditionError(f"order must be >= 2, got {m}")
    spec = DefectSpec(t=t, p=p, m=m)
    orders = range(max(m - 2, 1), m + 1)
    *lower, middle, upper = _defect_pass(spec.t, _psd_weight(spec.p, tol), orders, tol)
    expansive = EXPANSIVE in upper.classification
    contractive = all(result.verdict.is_psd for result in lower)
    lower_verdict = lower[0].verdict.to_json() if lower else None
    core = _core_nilpotent(spec.t, _power_rank(spec.t, tol), tol)
    witness = {
        "m": m,
        "upper_verdict": upper.verdict.to_json(),
        "lower_verdict": lower_verdict,
        "middle_verdict": middle.verdict.to_json(),
        "middle_norm": _norm2(middle.delta),
        "core_orthogonal": core.orthogonal,
    }
    return _conclude("sandwich_isometry", expansive and contractive and core.orthogonal,
                     middle.verdict.verdict == ZERO, witness)


def spectral_constraints(t, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """Spectral picture of (m, P)-expansive operators with invertible weight:
    no zero eigenvalue, every modulus >= 1 for odd m and = 1 for even m, and
    operator norm >= 1."""
    spec = DefectSpec(t=t, p=p, m=m)
    a, h = spec.t, _hermitian_gate(spec.p, tol)
    p_verdict = _sign_verdict(h, tol)
    if not p_verdict.is_psd or p_verdict.max_eig <= 0 or p_verdict.min_eig <= tol.gate(p_verdict.max_eig):
        raise PreconditionError("weight must be invertible PSD (0 outside its spectrum)")
    result = _defect_pass(a, h, (spec.m,), tol)[0]
    moduli = np.abs(np.linalg.eigvals(a))
    norm = _norm2(a)
    threshold = _gate(tol, 1.0 + norm)
    checks = {
        "zero_excluded": float(np.min(moduli)) > threshold,
        "norm_at_least_one": norm >= 1.0 - threshold,
    }
    if m % 2 == 0:
        checks["moduli_on_unit_circle"] = float(np.max(np.abs(moduli - 1.0))) <= threshold
    else:
        checks["moduli_at_least_one"] = float(np.min(moduli)) >= 1.0 - threshold
    witness = {
        "m": m,
        "defect_verdict": result.verdict.to_json(),
        "eigenvalue_moduli": sorted((float(x) for x in moduli), reverse=True),
        "operator_norm": norm,
        "threshold": threshold,
        "checks": checks,
    }
    return _conclude("spectral_constraints", EXPANSIVE in result.classification, all(checks.values()), witness)


def verify_transform_bundle(t, n: int, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """Check the derived expansivity statements on the coupled-transform
    bundle of T at power n.

    Premise: T is (m, |T^n|^2)-expansive.  Unconditional conclusions: A is
    (m, C)-expansive, B is (m, D)-expansive, D is PSD, and the bundle's
    algebraic identities hold.  When the side condition
    [[I, X], [X*, X*X]] >= I is satisfied, additionally B is m-expansive and
    A is (m, Q)-expansive for the invertible weight Q = p1 (+) I.  In finite
    dimensions that holds only with X = 0 and d2 = 0: [[0, X], [X*, X*X - I]]
    >= 0 has a zero diagonal block, so X = 0 and then -I >= 0 on the kernel
    side.  For d2 > 0, B and A are singular, and no singular matrix is
    (m, I)- or (m, Q)-expansive.

    The bundle itself is ``build_transform_bundle(t, n, tol)``, which
    computes the same bits as the one checked here.
    """
    m = _defect_order(m)
    a = _require_square(as_matrix(t))
    premise = _defect_pass(a, _gram_weight(a, n), (m,), tol)[0]
    bundle = _build_transform_bundle(a, _split_power(n), tol)

    # the weights c, d (_hermitian_part results) and q = p1 (+) I are exactly self-adjoint
    defect_a = _defect_pass(bundle.a, bundle.c, (m,), tol)[0]
    defect_b = _defect_pass(bundle.b, bundle.d, (m,), tol)[0]
    d_psd = _sign_verdict(bundle.d, tol).is_psd

    residuals = bundle.identity_residuals(tol)
    op_scale = max(*map(_norm2, (bundle.a, bundle.b, bundle.c, bundle.d, bundle.q)), 1.0)
    identity_threshold = _gate(tol, (1.0 + op_scale) ** 3)
    identities_ok = max(residuals.values()) <= identity_threshold

    dim = bundle.d1 + bundle.d2
    i1 = np.eye(bundle.d1, dtype=np.complex128)
    side_matrix = _block_compose(
        [[i1, bundle.x], [adjoint(bundle.x), adjoint(bundle.x) @ bundle.x]]
    ) - np.eye(dim, dtype=np.complex128)
    side_satisfied = _sign_verdict(_hermitian_part(side_matrix), tol).is_psd

    witness = {
        "m": m,
        "n": n,
        "d1": bundle.d1,
        "d2": bundle.d2,
        "premise_verdict": premise.verdict.to_json(),
        "a_weighted_verdict": defect_a.verdict.to_json(),
        "b_weighted_verdict": defect_b.verdict.to_json(),
        "d_psd": d_psd,
        "identity_residuals": residuals,
        "identity_threshold": identity_threshold,
        "side_condition_satisfied": side_satisfied,
    }

    conclusions = [
        EXPANSIVE in defect_a.classification,
        EXPANSIVE in defect_b.classification,
        d_psd,
        identities_ok,
    ]
    if side_satisfied:
        plain_b = _defect_pass(bundle.b, np.eye(dim, dtype=np.complex128), (m,), tol)[0]
        weighted_a = _defect_pass(bundle.a, bundle.q, (m,), tol)[0]
        witness["b_identity_verdict"] = plain_b.verdict.to_json()
        witness["a_equivalent_norm_verdict"] = weighted_a.verdict.to_json()
        conclusions.append(EXPANSIVE in plain_b.classification)
        conclusions.append(EXPANSIVE in weighted_a.classification)
    return _conclude("transform_bundle", EXPANSIVE in premise.classification, all(conclusions), witness)
