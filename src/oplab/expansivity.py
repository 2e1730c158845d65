"""Weighted defect operators and the expansive/contractive/isometric trichotomy.

The central object is the order-``m`` defect of an operator ``T`` against a
Hermitian weight ``P``:

    delta = sum_{j=0}^{m} (-1)^j C(m, j) T*^j P T^j

``T`` is (m, P)-expansive when the defect is NSD, (m, P)-contractive when it
is PSD, and (m, P)-isometric when it vanishes; the ZERO verdict therefore
classifies as both expansive and contractive.

Every defect is evaluated one way, as the m-th iterate of the map
``S -> S - T* S T`` started at ``P``.  It equals the binomial sum in exact
arithmetic, needs no binomial coefficients, and costs two matrix products per
order.  A defect that is not finite is a hard numerical failure, never
silently absorbed, and so is a power T^n that overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .matrix_core import (
    DEFAULT_TOL,
    ZERO,
    DefinitenessVerdict,
    DimensionError,
    DomainError,
    Tolerance,
    _as_integer,
    _finite,
    _hermitian_gate,
    _hermitian_part,
    _matrix_power,
    _norm2,
    _require_square,
    _sign_verdict,
    adjoint,
    as_matrix,
)

__all__ = [
    "MAX_ORDER",
    "DefectSpec",
    "DefectResult",
    "defect",
    "defect_series",
    "gram_weight",
    "ClassificationRow",
    "ClassificationReport",
    "classify",
]

# The largest defect order `_defect_order` accepts.  It bounds the work of one
# call at 2 * MAX_ORDER matrix products; nothing in the evaluation depends on it.
MAX_ORDER = 62

EXPANSIVE = "expansive"
CONTRACTIVE = "contractive"
ISOMETRIC = "isometric"


def _defect_order(m) -> int:
    """The order rule: ``m`` as an int in [1, MAX_ORDER], else DomainError."""
    m = _as_integer(m, "defect order")
    if not 1 <= m <= MAX_ORDER:
        raise DomainError(f"defect order must be in [1, {MAX_ORDER}], got {m}")
    return m


@dataclass(frozen=True)
class DefectSpec:
    """Inputs of a defect of T^n against a Hermitian (not necessarily PSD)
    weight, checked where a caller's matrices enter."""

    t: np.ndarray
    p: np.ndarray
    m: int
    n: int = 1

    def __post_init__(self):
        t = _require_square(as_matrix(self.t))
        p = as_matrix(self.p)
        if _require_square(p).shape != t.shape:
            raise DimensionError(f"weight shape {p.shape} does not match operator shape {t.shape}")
        m = _defect_order(self.m)
        n = _as_integer(self.n, "operator power")
        if n < 1:
            raise DomainError(f"operator power must be >= 1, got {n}")
        for name, value in (("t", t), ("p", p), ("m", m), ("n", n)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DefectResult:
    """A defect matrix with its sign verdict and derived classification.

    ``classification`` always describes the operator's (m, P)-classes in the
    standard sign convention, also on results produced by `_tilde` where
    ``delta`` itself carries a flipped sign for odd m.
    """

    delta: np.ndarray
    verdict: DefinitenessVerdict
    classification: frozenset

    def to_json(self) -> dict:
        """The payload for `json_pieces`, which streams ``delta`` (an array) in the matrix wire format, row by row."""
        return {
            "delta": self.delta,
            "verdict": self.verdict.to_json(),
            "classification": sorted(self.classification),
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


# a non-finite defect raises NumericalFailureError below, so numpy's overflow
# and invalid-value warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def _defect_pass(t: np.ndarray, h: np.ndarray, orders, tol: Tolerance, out: np.ndarray | None = None) -> tuple:
    """The one defect kernel: the defects of a finite square ``t``, already
    raised to its power, against an exactly self-adjoint ``h`` of its shape
    at each of ``orders`` (ascending, in [1, MAX_ORDER]), from one pass of
    S -> S - T* S T started at h, two matrix products per order.  A defect
    that is not finite raises NumericalFailureError ("defect overflows",
    residuals ``{"order": k}``) at the lowest such order.  Given ``out``,
    each order-k defect is written to ``out[k - 1]``, its only copy, and
    no verdict is taken.
    """
    ta = adjoint(t)
    iterated = h
    results = []
    for k in range(1, max(orders) + 1):
        iterated = iterated - ta @ iterated @ t
        if k not in orders:
            continue
        # a finite iterate can still overflow when it is added to its adjoint
        delta = _finite(_hermitian_part(iterated, None if out is None else out[k - 1]), "defect", {"order": k})
        if out is None:
            verdict = _sign_verdict(delta, tol)
            results.append(DefectResult(delta, verdict, _classes_for(verdict)))
    return tuple(results)


def _spec_pass(spec: DefectSpec, orders, tol: Tolerance) -> tuple:
    """`_defect_pass` of T^n (NumericalFailureError if it overflows) and gated P."""
    t = spec.t if spec.n == 1 else _matrix_power(spec.t, spec.n)
    return _defect_pass(t, _hermitian_gate(spec.p, tol), orders, tol)


def defect(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> DefectResult:
    """Compute the order-m defect of T^n against the weight P.

    The defect is the m-th iterate of S -> S - T* S T from P, 2m matrix
    products.  A defect that is not finite raises NumericalFailureError
    ("defect overflows", residuals ``{"order": m}``); a power T^n that
    overflows raises it too.
    """
    return _spec_pass(spec, (spec.m,), tol)[0]


def defect_series(spec: DefectSpec, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """The defects of T^n against P at every order 1..m, in one pass.

    Entry k-1 equals ``defect`` at order k bit for bit, and the whole series
    costs what order m alone costs: 2m matrix products.  A defect that is not
    finite raises NumericalFailureError at the lowest failing order.
    """
    return _spec_pass(spec, range(1, spec.m + 1), tol)


def _tilde(result: DefectResult, m: int) -> DefectResult:
    """The order-m ``result`` times (-1)^m, with its classification kept."""
    if m % 2 == 0:
        return result
    lo, hi, verdict = result.verdict.min_eig, result.verdict.max_eig, result.verdict.verdict
    flipped = DefinitenessVerdict(-hi, -lo, {"PSD": "NSD", "NSD": "PSD"}.get(verdict, verdict))
    return DefectResult(-result.delta, flipped, result.classification)


def _p_isometric(t: np.ndarray, p: np.ndarray, h: np.ndarray, tol: Tolerance) -> bool | None:
    """Whether T*PT = P within `Tolerance.p_isometry`, for a finite square
    ``t``, a finite ``p`` of its shape and ``h``, ``p`` through
    `_hermitian_gate`; None unless ``h`` is PSD (the P-isometry notion
    presumes a nonnegative weight)."""
    if not _sign_verdict(h, tol).is_psd:
        return None
    return _norm2(adjoint(t) @ p @ t - p) <= tol.p_isometry(1.0 + _norm2(p))


def gram_weight(t, n: int = 1) -> np.ndarray:
    """The canonical weight T*^n T^n of a square T and an integer n >= 0; a
    negative or non-integral n raises DomainError, and a power T^n or a weight
    that overflows raises NumericalFailureError."""
    return _gram_weight(_require_square(as_matrix(t)), n)


def _gram_weight(t: np.ndarray, n: int) -> np.ndarray:
    """`gram_weight` of a finite square ``t``, exactly self-adjoint."""
    return _gram(_matrix_power(t, n), n)


def _gram(tn: np.ndarray, n: int) -> np.ndarray:
    """T*^n T^n of a finite power ``tn`` = T^n, exactly self-adjoint."""
    # T*^n T^n can overflow where T^n does not, and that is a numerical
    # failure, not a bad input
    with np.errstate(over="ignore", invalid="ignore"):
        weight = _hermitian_part(adjoint(tn) @ tn)
    return _finite(weight, "gram weight", {"power": n})


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

    All orders come from one pass, 2 * m_max matrix products, after ``m_max``
    is checked as a defect order; P passes the Hermitian gate once, for the
    table and for ``p_isometric``, which is reported only for PSD weights
    (None otherwise: the P-isometry notion presumes a nonnegative weight).
    """
    spec = DefectSpec(t=t, p=p, m=m_max)
    h = _hermitian_gate(spec.p, tol)
    rows = tuple(
        ClassificationRow(m, result.verdict, result.classification)
        for m, result in enumerate(_defect_pass(spec.t, h, range(1, spec.m + 1), tol), start=1)
    )
    return _classification_report(rows, _spectral_summary(spec.t, spec.p, h, tol))


def _spectral_summary(t: np.ndarray, p: np.ndarray, h: np.ndarray, tol: Tolerance) -> tuple:
    """The rest of `classify`, which does not depend on its table:
    (`_p_isometric`, the spectrum of ``t`` and ||t||), for ``t``, ``p`` and
    ``h`` as `_p_isometric` takes them."""
    return _p_isometric(t, p, h, tol), np.linalg.eigvals(t), _norm2(t)


def _classification_report(rows: tuple, summary: tuple) -> ClassificationReport:
    """The report of `classify` from its table and `_spectral_summary`."""
    p_isometric, spectrum, norm = summary
    moduli = tuple(sorted((float(abs(z)) for z in spectrum), reverse=True))
    return ClassificationReport(
        rows=rows,
        p_isometric=p_isometric,
        operator_norm=norm,
        spectral_radius=float(np.max(np.abs(spectrum), initial=0.0)),
        eigenvalue_moduli=moduli,
    )
