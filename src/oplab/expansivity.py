"""Weighted defect operators and the expansive/contractive/isometric trichotomy.

The central object is the order-``m`` defect of an operator ``T`` against a
Hermitian weight ``P``:

    delta = sum_{j=0}^{m} (-1)^j C(m, j) T*^j P T^j

``T`` is (m, P)-expansive when the defect is NSD, (m, P)-contractive when it
is PSD, and (m, P)-isometric when it vanishes; the ZERO verdict therefore
classifies as both expansive and contractive.

Every defect is computed twice, via the explicit alternating binomial sum and
via m-fold application of the map ``S -> S - T* S T``, and the two must agree
within tolerance relative to the magnitude of the summed terms.  Their
difference is measured in the Frobenius norm, an upper bound on the spectral
norm, so the gate is no looser than a spectral-norm gate and costs one dot
product instead of an SVD.  The alternating sum is the heart of everything
downstream, so a disagreement is a hard numerical failure, never silently
absorbed; so is a cross-check or a defect that is not finite, and so is a
power T^n that overflows.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb, isfinite

import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    ZERO,
    DefinitenessVerdict,
    DomainError,
    NumericalFailureError,
    Tolerance,
    _hermitian_gate,
    _matrix_power,
    _norm2,
    _norm_fro,
    _sign_verdict,
    adjoint,
    as_matrix,
    definiteness,
    eigenvalues,
    hermitian_part,
    operator_norm,
    sqrt_psd,
)

__all__ = [
    "MAX_ORDER",
    "DefectSpec",
    "DefectResult",
    "defect",
    "defect_series",
    "defect_tilde",
    "is_p_isometric",
    "is_mp_isometric",
    "seminorm_p",
    "gram_weight",
    "ClassificationRow",
    "ClassificationReport",
    "classify",
]

# Binomial coefficients C(m, j) stay below 2^63 up to this order, so the
# alternating sum never works with inexactly represented coefficients.
MAX_ORDER = 62

EXPANSIVE = "expansive"
CONTRACTIVE = "contractive"
ISOMETRIC = "isometric"


@dataclass(frozen=True)
class DefectSpec:
    """Inputs of a defect computation.

    ``n`` raises the operator to a power before the defect is formed, which
    is how power-stability statements about T^n are evaluated.  The weight
    must be Hermitian but is not required to be PSD.
    """

    t: np.ndarray
    p: np.ndarray
    m: int
    n: int = 1

    def __post_init__(self):
        t = as_matrix(self.t)
        p = as_matrix(self.p)
        if t.shape[0] != t.shape[1]:
            raise DomainError(f"operator must be square, got {t.shape}")
        if p.shape != t.shape:
            raise DomainError(f"weight shape {p.shape} does not match operator shape {t.shape}")
        m = _as_integer(self.m, "defect order")
        n = _as_integer(self.n, "operator power")
        if not 1 <= m <= MAX_ORDER:
            raise DomainError(f"defect order must be in [1, {MAX_ORDER}], got {m}")
        if n < 1:
            raise DomainError(f"operator power must be >= 1, got {n}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)


def _as_integer(value, what: str) -> int:
    """``value`` as an int; bools and non-integral numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DefectResult:
    """A defect matrix with its sign verdict and derived classification.

    ``classification`` always describes the operator's (m, P)-classes in the
    standard sign convention, also on results produced by `defect_tilde`
    where ``delta`` itself carries a flipped sign for odd m.
    """

    delta: np.ndarray
    verdict: DefinitenessVerdict
    classification: frozenset
    cross_check: dict

    def to_json(self) -> dict:
        from .matrix_core import matrix_to_json

        return {
            "delta": matrix_to_json(self.delta),
            "verdict": self.verdict.to_json(),
            "classification": sorted(self.classification),
            "cross_check": dict(self.cross_check),
        }


def _classes_for(verdict: DefinitenessVerdict) -> frozenset:
    classes = set()
    if verdict.is_nsd:
        classes.add(EXPANSIVE)
    if verdict.is_psd:
        classes.add(CONTRACTIVE)
    if verdict.verdict == ZERO:
        classes.add(ISOMETRIC)
    return frozenset(classes)


# a non-finite scale, sum or defect raises NumericalFailureError below, so
# numpy's overflow and invalid-value warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _defect_pass(spec: DefectSpec, orders, tol: Tolerance) -> tuple[float, tuple]:
    """Defects of T^n against P at each of ``orders`` (ascending, in [1, spec.m]).

    One pass forms each term T*^j P T^j and each iterate of S -> S - T* S T
    once.  Every requested order keeps its own binomial accumulator, and term
    j is added to each accumulator of order >= j in ascending j, so an
    order's sum takes the same floating-point operations as when that order
    is computed alone.  An order is cross-checked as soon as its last term is
    in, so a disagreement raises NumericalFailureError at the lowest failing
    order.  A non-finite T^n, cross-check or defect raises it too.  Returns
    ||T^n|| (it sets the term scale) with the results.
    """
    p = _hermitian_gate(spec.p, tol)
    t = spec.t if spec.n == 1 else _matrix_power(spec.t, spec.n)
    ta = adjoint(t)
    norm_t = _norm2(t) if t.size else 0.0
    # magnitude bound (1+||P||) (1+||T||^2)^m of an order-m sum's terms
    weight_scale = 1.0 + (_norm2(p) if p.size else 0.0)
    # in float64, so an overflow gives inf (and a non-finite cross-check), not OverflowError
    base = 1.0 + np.float64(norm_t) ** 2

    sums = {m: p.astype(np.complex128, copy=True) for m in orders}
    term = iterated = p
    results = []
    for j in range(1, max(orders) + 1):
        term = ta @ term @ t
        for m, binom_sum in sums.items():
            binom_sum += ((-1) ** j * comb(m, j)) * term
        iterated = iterated - ta @ iterated @ t
        if j not in sums:
            continue
        binom_sum = sums.pop(j)
        scale = float(weight_scale * base**j)
        # ||.||_F >= ||.||_2; a difference holding NaN (inf - inf) gives NaN
        disagreement = _norm_fro(binom_sum - iterated) if p.size else 0.0
        threshold = tol.gate(scale)
        cross_check = {
            "disagreement": disagreement,
            "threshold": threshold,
            "term_scale": scale,
        }
        # a NaN disagreement or an infinite threshold would pass the comparison below
        if not (isfinite(disagreement) and isfinite(threshold)):
            raise NumericalFailureError("defect cross-check is not finite", cross_check)
        if disagreement > threshold:
            raise NumericalFailureError("defect cross-check disagreement", cross_check)
        # hermitian_part without its re-validation; but a finite sum can
        # still overflow when it is added to its adjoint
        delta = (binom_sum + adjoint(binom_sum)) / 2.0
        if not np.isfinite(delta).all():
            raise NumericalFailureError("defect overflows", cross_check)
        verdict = _sign_verdict(delta, tol)
        results.append(DefectResult(delta, verdict, _classes_for(verdict), cross_check))
    return norm_t, tuple(results)


def defect(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> DefectResult:
    """Compute the order-m defect of T^n against the weight P.

    The binomial-sum and iterated-map constructions are cross-checked against
    each other.  ``cross_check`` holds the Frobenius norm of their difference
    (``disagreement``, an upper bound on its spectral norm), the ``threshold``
    it must not exceed, and the ``term_scale`` (1+||P||)(1+||T^n||^2)^m that
    sets the threshold.  A disagreement beyond the threshold raises
    NumericalFailureError carrying that dict; a power T^n that overflows
    raises it too.
    """
    return _defect_pass(spec, (spec.m,), tol)[1][0]


def defect_series(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The defects of T^n against P at every order 1..m, in one pass.

    Entry k-1 equals ``defect`` at order k bit for bit, cross-check
    included, and the whole series costs what order m alone costs:
    4m matrix products.
    """
    return _defect_pass(spec, range(1, spec.m + 1), tol)[1]


def defect_tilde(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> DefectResult:
    """The sign-flipped defect (-1)^m * delta, without recomputation.

    For even m this coincides with `defect`; for odd m the returned matrix
    and its verdict flip sign while the classification still reports the
    operator's (m, P)-classes.
    """
    base = defect(spec, tol)
    if spec.m % 2 == 0:
        return base
    flipped = DefinitenessVerdict(
        is_hermitian=base.verdict.is_hermitian,
        min_eig=-base.verdict.max_eig,
        max_eig=-base.verdict.min_eig,
        verdict={"PSD": "NSD", "NSD": "PSD"}.get(base.verdict.verdict, base.verdict.verdict),
    )
    return DefectResult(-base.delta, flipped, base.classification, base.cross_check)


def _require_psd_weight(p, tol: Tolerance) -> np.ndarray:
    p = as_matrix(p)
    verdict = definiteness(p, tol)
    if not verdict.is_psd:
        raise DomainError(f"weight must be PSD, got verdict {verdict.verdict}")
    return p


def is_p_isometric(t, p, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff T*PT = P within rel_eps * (1 + ||P||)."""
    t = as_matrix(t)
    p = _require_psd_weight(p, tol)
    residual = float(np.linalg.norm(adjoint(t) @ p @ t - p, 2)) if p.size else 0.0
    return residual <= tol.rel_eps * (1.0 + operator_norm(p))


def is_mp_isometric(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the order-m defect vanishes (verdict ZERO)."""
    return defect(spec, tol).verdict.verdict == ZERO


def seminorm_p(x, p, tol: Tolerance = DEFAULT_TOL) -> float:
    """The weight-induced seminorm ||P^{1/2} x||."""
    p = _require_psd_weight(p, tol)
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != p.shape[0]:
        raise DomainError(f"vector length {vec.shape[0]} does not match weight dimension {p.shape[0]}")
    return float(np.linalg.norm(sqrt_psd(p, tol) @ vec))


def gram_weight(t, n: int = 1) -> np.ndarray:
    """The canonical weight T*^n T^n."""
    t = as_matrix(t)
    tn = np.linalg.matrix_power(t, n)
    return hermitian_part(adjoint(tn) @ tn)


@dataclass(frozen=True)
class ClassificationRow:
    m: int
    verdict: DefinitenessVerdict
    classes: frozenset

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "verdict": self.verdict.verdict,
            "min_eig": self.verdict.min_eig,
            "max_eig": self.verdict.max_eig,
            "classes": sorted(self.classes),
        }


@dataclass(frozen=True)
class ClassificationReport:
    """Defect verdicts for m = 1..m_max plus a spectral summary."""

    rows: tuple
    p_isometric: bool | None
    operator_norm: float
    spectral_radius: float
    eigenvalue_moduli: tuple

    def to_json(self) -> dict:
        return {
            "rows": [row.to_json() for row in self.rows],
            "p_isometric": self.p_isometric,
            "spectral": {
                "operator_norm": self.operator_norm,
                "spectral_radius": self.spectral_radius,
                "eigenvalue_moduli": list(self.eigenvalue_moduli),
            },
        }


def classify(t, p, m_max: int, tol: Tolerance = DEFAULT_TOL) -> ClassificationReport:
    """Tabulate defect verdicts for every order up to ``m_max``.

    All orders come from the single pass behind `defect_series`, so the
    table costs 4 * m_max matrix products; ``m_max`` is validated as a
    defect order before any of them.  ``p_isometric`` is reported only for
    PSD weights (None otherwise, since the P-isometry notion presumes a
    nonnegative weight).
    """
    spec = DefectSpec(t=t, p=p, m=m_max)
    norm_t, results = _defect_pass(spec, range(1, m_max + 1), tol)
    rows = tuple(
        ClassificationRow(m, result.verdict, result.classification)
        for m, result in enumerate(results, start=1)
    )
    try:
        p_isometric = is_p_isometric(spec.t, spec.p, tol)
    except DomainError:
        p_isometric = None
    spectrum = eigenvalues(spec.t)
    moduli = tuple(sorted((float(abs(z)) for z in spectrum), reverse=True))
    return ClassificationReport(
        rows=rows,
        p_isometric=p_isometric,
        operator_norm=norm_t,
        spectral_radius=float(np.max(np.abs(spectrum))) if spectrum.size else 0.0,
        eigenvalue_moduli=moduli,
    )
