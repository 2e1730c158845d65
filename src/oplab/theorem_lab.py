"""Executable checks for the structural theorems about weighted expansive
operators, one verifier per statement.

Each verifier evaluates a concrete instance and returns a TheoremVerdict:
``premises_met`` records whether the statement's hypotheses hold for the
instance (vacuous premises are a first-class result, not an error), ``holds``
records whether the conclusion was confirmed, and ``witness`` carries the
residual norms, verdicts and offending eigenvalues needed to reproduce the
decision.  A verdict with premises met and ``holds`` false is a potential
counterexample and is what the suite runner quarantines.

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

from .decompositions import (
    build_transform_bundle,
    core_nilpotent,
    drazin_index,
    drazin_inverse,
)
from .expansivity import (
    DefectSpec,
    EXPANSIVE,
    _defect_pass,
    defect,
    defect_tilde,
    gram_weight,
)
from .matrix_core import (
    DEFAULT_TOL,
    ZERO,
    PreconditionError,
    Tolerance,
    adjoint,
    as_matrix,
    block_compose,
    block_split,
    definiteness,
    eigenvalues,
    hermitian_part,
    numerical_rank,
    operator_norm,
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


def _vacuous(theorem_id: str, witness: dict) -> TheoremVerdict:
    witness = dict(witness)
    witness["vacuous"] = True
    return TheoremVerdict(theorem_id, premises_met=False, holds=True, witness=witness)


def verify_power_stability(t, p, m: int, n_max: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """(m, P)-expansive operators stay (m, P)-expansive under every power.

    Premise: the instance is (m, P)-expansive at n = 1.  Conclusion: the
    defect of T^n against the same weight stays NSD for 2 <= n <= n_max.
    """
    theorem_id = "power_stability"
    if n_max < 2:
        raise PreconditionError(f"n_max must be >= 2, got {n_max}")
    base = defect(DefectSpec(t=t, p=p, m=m), tol)
    witness = {"m": m, "n_max": n_max, "base_verdict": base.verdict.to_json()}
    if EXPANSIVE not in base.classification:
        return _vacuous(theorem_id, witness)
    per_power = []
    holds = True
    for n in range(2, n_max + 1):
        result = defect(DefectSpec(t=t, p=p, m=m, n=n), tol)
        expansive = EXPANSIVE in result.classification
        per_power.append({"n": n, "verdict": result.verdict.to_json(), "expansive": expansive})
        holds = holds and expansive
    witness["powers"] = per_power
    return TheoremVerdict(theorem_id, premises_met=True, holds=holds, witness=witness)


def verify_no_singular_expansive(t, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A singular operator (nontrivial kernel of T^p) is never m-expansive.

    Invertible input makes the premise vacuous: invertible operators can be
    m-expansive (any unitary is), the exclusion needs a nontrivial kernel
    summand.
    """
    theorem_id = "no_singular_expansive"
    a = as_matrix(t)
    index = drazin_index(a, tol)
    kernel_dim = a.shape[0] - numerical_rank(np.linalg.matrix_power(a, max(index, 1)), tol)
    result = defect(DefectSpec(t=a, p=np.eye(a.shape[0], dtype=np.complex128), m=m), tol)
    witness = {
        "m": m,
        "drazin_index": index,
        "kernel_dim": kernel_dim,
        "identity_defect": result.verdict.to_json(),
    }
    if index < 1 or kernel_dim < 1:
        return _vacuous(theorem_id, witness)
    holds = EXPANSIVE not in result.classification
    return TheoremVerdict(theorem_id, premises_met=True, holds=holds, witness=witness)


def _nilpotency_index(t2: np.ndarray, tol: Tolerance) -> int | None:
    """Smallest q with t2^q = 0 within tolerance, None if not nilpotent."""
    d2 = t2.shape[0]
    if d2 == 0:
        return 0
    norm2 = operator_norm(t2)
    power = np.eye(d2, dtype=np.complex128)
    for q in range(d2 + 1):
        if operator_norm(power) <= tol.power_gate(norm2, q):
            return q
        power = power @ t2
    return None


def verify_weight_decomposition(t1, t2, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """On an orthogonal fixture T = t1 (+) t2 (t1 invertible, t2 nilpotent),
    T is (m, P)-expansive iff P is supported on the invertible summand and
    the sign-flipped defect of the Drazin inverse against P is NSD.

    Both implications are evaluated on the instance; each is vacuous when its
    antecedent fails.  The nilpotent induction anchor
    t2^{*(q-1)} P22 t2^{q-1} <= 0 is checked alongside the forward direction.
    """
    theorem_id = "weight_decomposition"
    a1 = as_matrix(t1)
    a2 = as_matrix(t2)
    p = as_matrix(p)
    d1, d2 = a1.shape[0], a2.shape[0]
    if a1.shape != (d1, d1) or a2.shape != (d2, d2):
        raise PreconditionError("blocks must be square")
    if p.shape != (d1 + d2, d1 + d2):
        raise PreconditionError(f"weight shape {p.shape} does not match block dimensions {(d1 + d2,)}")
    if numerical_rank(a1, tol) < d1:
        raise PreconditionError("invertible block is numerically singular")
    q = _nilpotency_index(a2, tol)
    if q is None:
        raise PreconditionError("second block is not nilpotent")
    if not definiteness(p, tol).is_psd:
        raise PreconditionError("weight must be Hermitian PSD")

    z12 = np.zeros((d1, d2), dtype=np.complex128)
    z21 = np.zeros((d2, d1), dtype=np.complex128)
    t = block_compose([[a1, z12], [z21, a2]])
    scale_p = 1.0 + operator_norm(p)

    expansive = EXPANSIVE in defect(DefectSpec(t=t, p=p, m=m), tol).classification
    td = drazin_inverse(t, tol)
    tilde = defect_tilde(DefectSpec(t=td, p=p, m=m), tol)
    tilde_nsd = tilde.verdict.is_nsd

    if d2 == 0:
        off_norm = 0.0
        p22 = np.zeros((0, 0), dtype=np.complex128)
    elif d1 == 0:
        off_norm = operator_norm(p)
        p22 = p
    else:
        blocks = block_split(p, d1)
        off_norm = max(
            operator_norm(blocks[0][1]),
            operator_norm(blocks[1][0]),
            operator_norm(blocks[1][1]),
        )
        p22 = blocks[1][1]
    supported = off_norm <= _gate(tol, scale_p)

    anchor_nsd = True
    if q >= 1 and d2 >= 1:
        edge = np.linalg.matrix_power(a2, q - 1)
        anchor = hermitian_part(adjoint(edge) @ p22 @ edge)
        anchor_nsd = definiteness(anchor, tol).is_nsd

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
    if not (forward_applicable or reverse_applicable):
        return _vacuous(theorem_id, witness)
    holds = (not forward_applicable or forward_holds) and (not reverse_applicable or reverse_holds)
    return TheoremVerdict(theorem_id, premises_met=True, holds=holds, witness=witness)


def verify_two_expansive_isometry(t, p, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A (2, P)-expansive operator with orthogonal core-nilpotent splitting
    is P-isometric: T*PT = P."""
    theorem_id = "two_expansive_isometry"
    a = as_matrix(t)
    p = as_matrix(p)
    if not definiteness(p, tol).is_psd:
        raise PreconditionError("weight must be Hermitian PSD")
    result = defect(DefectSpec(t=a, p=p, m=2), tol)
    core = core_nilpotent(a, tol)
    expansive = EXPANSIVE in result.classification
    residual = float(np.linalg.norm(adjoint(a) @ p @ a - p, 2)) if p.size else 0.0
    threshold = _gate(tol, 1.0 + operator_norm(p))
    witness = {
        "defect_verdict": result.verdict.to_json(),
        "core_index": core.index,
        "core_orthogonal": core.orthogonal,
        "isometry_residual": residual,
        "threshold": threshold,
    }
    if not (expansive and core.orthogonal):
        return _vacuous(theorem_id, witness)
    return TheoremVerdict(theorem_id, premises_met=True, holds=residual <= threshold, witness=witness)


def verify_unitary_nilpotent_structure(t, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """A (2, T*T)-expansive operator with orthogonal core-nilpotent splitting
    has a unitary invertible block, i.e. it is a unitary plus a nilpotent."""
    theorem_id = "unitary_nilpotent_structure"
    a = as_matrix(t)
    result = defect(DefectSpec(t=a, p=gram_weight(a, 1), m=2), tol)
    core = core_nilpotent(a, tol)
    expansive = EXPANSIVE in result.classification
    t1 = core.t1
    residual = (
        float(np.linalg.norm(adjoint(t1) @ t1 - np.eye(t1.shape[0]), 2)) if t1.size else 0.0
    )
    witness = {
        "defect_verdict": result.verdict.to_json(),
        "core_index": core.index,
        "core_orthogonal": core.orthogonal,
        "unitarity_residual": residual,
    }
    if not (expansive and core.orthogonal):
        return _vacuous(theorem_id, witness)
    return TheoremVerdict(
        theorem_id, premises_met=True, holds=residual <= _gate(tol, 1.0), witness=witness
    )


def verify_sandwich_isometry(t, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """(m, P)-expansive plus (m-2, P)-contractive forces (m-1, P)-isometric
    on orthogonal fixtures; the contractive half is vacuous at m = 2."""
    theorem_id = "sandwich_isometry"
    if m < 2:
        raise PreconditionError(f"order must be >= 2, got {m}")
    a = as_matrix(t)
    p = as_matrix(p)
    if not definiteness(p, tol).is_psd:
        raise PreconditionError("weight must be Hermitian PSD")
    orders = range(max(m - 2, 1), m + 1)
    *lower, middle, upper = _defect_pass(DefectSpec(t=a, p=p, m=m), orders, tol)[1]
    expansive = EXPANSIVE in upper.classification
    contractive = all(result.verdict.is_psd for result in lower)
    lower_verdict = lower[0].verdict.to_json() if lower else None
    core = core_nilpotent(a, tol)
    witness = {
        "m": m,
        "upper_verdict": upper.verdict.to_json(),
        "lower_verdict": lower_verdict,
        "middle_verdict": middle.verdict.to_json(),
        "middle_norm": operator_norm(middle.delta),
        "core_orthogonal": core.orthogonal,
    }
    if not (expansive and contractive and core.orthogonal):
        return _vacuous(theorem_id, witness)
    return TheoremVerdict(
        theorem_id, premises_met=True, holds=middle.verdict.verdict == ZERO, witness=witness
    )


def spectral_constraints(t, p, m: int, tol: Tolerance = DEFAULT_TOL) -> TheoremVerdict:
    """Spectral picture of (m, P)-expansive operators with invertible weight:
    no zero eigenvalue, every modulus >= 1 for odd m and = 1 for even m, and
    operator norm >= 1."""
    theorem_id = "spectral_constraints"
    a = as_matrix(t)
    p = as_matrix(p)
    p_verdict = definiteness(p, tol)
    if not p_verdict.is_psd or p_verdict.max_eig <= 0 or p_verdict.min_eig <= tol.gate(p_verdict.max_eig):
        raise PreconditionError("weight must be invertible PSD (0 outside its spectrum)")
    result = defect(DefectSpec(t=a, p=p, m=m), tol)
    moduli = np.abs(eigenvalues(a)) if a.size else np.zeros(0)
    norm = operator_norm(a)
    threshold = _gate(tol, 1.0 + norm)
    checks = {
        "zero_excluded": bool(moduli.size == 0 or float(np.min(moduli)) > threshold),
        "norm_at_least_one": norm >= 1.0 - threshold,
    }
    if m % 2 == 0:
        checks["moduli_on_unit_circle"] = bool(
            moduli.size == 0 or float(np.max(np.abs(moduli - 1.0))) <= threshold
        )
    else:
        checks["moduli_at_least_one"] = bool(
            moduli.size == 0 or float(np.min(moduli)) >= 1.0 - threshold
        )
    witness = {
        "m": m,
        "defect_verdict": result.verdict.to_json(),
        "eigenvalue_moduli": sorted((float(x) for x in moduli), reverse=True),
        "operator_norm": norm,
        "threshold": threshold,
        "checks": checks,
    }
    if EXPANSIVE not in result.classification:
        return _vacuous(theorem_id, witness)
    return TheoremVerdict(theorem_id, premises_met=True, holds=all(checks.values()), witness=witness)


def verify_transform_bundle(t, n: int, m: int, tol: Tolerance = DEFAULT_TOL):
    """Build the coupled-transform bundle of T at power n and check the
    derived expansivity statements.

    Premise: T is (m, |T^n|^2)-expansive.  Unconditional conclusions: A is
    (m, C)-expansive, B is (m, D)-expansive, D is PSD, and the bundle's
    algebraic identities hold.  When the side condition
    [[I, X], [X*, X*X]] >= I is satisfied, additionally B is m-expansive and
    A is (m, Q)-expansive for the invertible weight Q = p1 (+) I.

    Returns (TransformBundle, TheoremVerdict).
    """
    theorem_id = "transform_bundle"
    a = as_matrix(t)
    premise = defect(DefectSpec(t=a, p=gram_weight(a, n), m=m), tol)
    bundle = build_transform_bundle(a, n, tol)

    defect_a = defect(DefectSpec(t=bundle.a, p=bundle.c, m=m), tol)
    defect_b = defect(DefectSpec(t=bundle.b, p=bundle.d, m=m), tol)
    d_psd = definiteness(bundle.d, tol).is_psd

    residuals = bundle.identity_residuals(tol)
    op_scale = max(
        operator_norm(bundle.a),
        operator_norm(bundle.b),
        operator_norm(bundle.c),
        operator_norm(bundle.d),
        operator_norm(bundle.q),
        1.0,
    )
    identity_threshold = _gate(tol, (1.0 + op_scale) ** 3)
    identities_ok = max(residuals.values()) <= identity_threshold

    dim = bundle.d1 + bundle.d2
    i1 = np.eye(bundle.d1, dtype=np.complex128)
    side_matrix = block_compose(
        [[i1, bundle.x], [adjoint(bundle.x), adjoint(bundle.x) @ bundle.x]]
    ) - np.eye(dim, dtype=np.complex128)
    side_satisfied = definiteness(hermitian_part(side_matrix), tol).is_psd

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
        plain_b = defect(DefectSpec(t=bundle.b, p=np.eye(dim, dtype=np.complex128), m=m), tol)
        weighted_a = defect(DefectSpec(t=bundle.a, p=bundle.q, m=m), tol)
        witness["b_identity_verdict"] = plain_b.verdict.to_json()
        witness["a_equivalent_norm_verdict"] = weighted_a.verdict.to_json()
        conclusions.append(EXPANSIVE in plain_b.classification)
        conclusions.append(EXPANSIVE in weighted_a.classification)

    if EXPANSIVE not in premise.classification:
        return bundle, _vacuous(theorem_id, witness)
    return bundle, TheoremVerdict(
        theorem_id, premises_met=True, holds=all(conclusions), witness=witness
    )
