"""Dense complex matrix primitives.

Everything downstream (decompositions, defect operators, theorem checks)
works on plain ``numpy`` arrays of dtype complex128.  This module owns the
shared conventions:

* tolerance handling (relative to the spectral scale, with an absolute floor),
* the spectral norm: the largest singular value from a values-only SVD,
  ``svd(a, compute_uv=False)[0]``, which is bit for bit what
  ``np.linalg.norm(a, 2)`` returns without that function's axis handling;
  where only an upper bound on it is needed (the defect cross-check), the
  Frobenius norm, one dot product, since ||A||_2 <= ||A||_F,
* Hermiticity and definiteness decisions,
* PSD square roots and the Moore-Penrose pseudo-inverse,
* the one numerical-rank rule, `Tolerance.cutoff`: a singular value at or
  below ``max(rel_eps * sigma_max, abs_eps)`` counts as zero; every rank
  decision in the package (pseudo-inverse, rank, polar factor, splittings)
  uses it,
* 2x2 block composition/splitting,
* the JSON wire format for matrices and the one writer of JSON text.

All functions are pure: inputs are never mutated and there is no module
state, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

__all__ = [
    "OplabError",
    "DimensionError",
    "HermitianError",
    "DomainError",
    "NumericalFailureError",
    "PreconditionError",
    "MatrixFormatError",
    "Tolerance",
    "DEFAULT_TOL",
    "DefinitenessVerdict",
    "as_matrix",
    "adjoint",
    "operator_norm",
    "spectral_radius",
    "eigenvalues",
    "is_hermitian",
    "hermitian_part",
    "definiteness",
    "sqrt_psd",
    "moore_penrose",
    "numerical_rank",
    "block_compose",
    "block_split",
    "matrix_to_json",
    "matrix_from_json",
    "dumps_json",
]

PSD = "PSD"
NSD = "NSD"
ZERO = "ZERO"
INDEFINITE = "INDEFINITE"


class OplabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OplabError):
    """Non-square input or non-conformable block dimensions."""


class HermitianError(OplabError):
    """Input fails the Hermiticity gate; carries the defect norm."""

    def __init__(self, defect_norm: float):
        super().__init__(f"matrix is not Hermitian: ||M - M*|| = {defect_norm:.3e}")
        self.defect_norm = defect_norm


class DomainError(OplabError):
    """Input is outside the mathematical domain of the operation."""


class NumericalFailureError(OplabError):
    """A computation produced residuals beyond the accepted bound."""

    def __init__(self, message: str, residuals: dict):
        super().__init__(f"{message}: {residuals}")
        self.residuals = residuals


class PreconditionError(OplabError):
    """A stated precondition of a verifier or generator is violated."""


class MatrixFormatError(OplabError):
    """Matrix JSON payload violates the wire format."""


@dataclass(frozen=True)
class Tolerance:
    """Relative spectral tolerance with an absolute floor.

    ``rel_eps`` scales with the magnitude of the quantity under test and
    ``abs_eps`` guards decisions near zero.  The defaults realize the
    exact order relations of the underlying theory in double precision.
    """

    rel_eps: float = 1e-10
    abs_eps: float = 1e-12

    def __post_init__(self):
        for name in ("rel_eps", "abs_eps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and nonnegative, got {value!r}")

    def gate(self, scale: float) -> float:
        """Absolute threshold for a residual living at magnitude ``scale``."""
        return self.rel_eps * scale + self.abs_eps

    def power_gate(self, norm: float, power: int) -> float:
        """`gate` at the scale (1 + ||X||)^power of the power X^power, where
        ``norm`` is ||X||; formed in float64, so an overflow gives inf."""
        return self.gate(float(np.float64(1.0 + norm) ** power))

    def cutoff(self, sigma_max: float) -> float:
        """The rank rule: singular values at or below this count as zero."""
        return max(self.rel_eps * sigma_max, self.abs_eps)


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m.T)


def _norm2(a: np.ndarray) -> float:
    """Spectral norm of a nonempty 2-D array, equal to ``np.linalg.norm(a, 2)``."""
    return float(np.linalg.svd(a, compute_uv=False)[0])


# squares below 2**-1022 are subnormal and lose bits; a sum of squares of at
# least this is far above their total loss for any array numpy can hold, and
# _norm_fro forms a smaller (or overflowing) sum again from a / max|a|
_SUMSQ_MIN = 2.0**-600


def _norm_fro(a: np.ndarray) -> float:
    """Frobenius norm of a nonempty float64 or complex128 array, an upper
    bound on `_norm2`: one real dot product over the array's float64 view.

    A sum of squares that overflows, or is small enough to have lost bits to
    underflow, is formed again from ``a / max|a|``.  An array holding NaN
    gives NaN, and one holding inf (but no NaN) gives inf.
    """
    x = a.ravel().view(np.float64)
    # vdot raises no floating-point warnings, so an overflow needs no errstate
    sumsq = float(np.vdot(x, x))
    if _SUMSQ_MIN <= sumsq < math.inf:
        return math.sqrt(sumsq)
    peak = float(np.max(np.abs(x)))
    if not 0.0 < peak < math.inf:
        # all zero, or not finite: the plain sum is already the answer
        return math.sqrt(sumsq)
    x = x / peak
    return peak * math.sqrt(float(np.vdot(x, x)))


def _matrix_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` of a finite square ``a``; a power that overflows raises
    NumericalFailureError instead of numpy's overflow warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(a, n)
    if not np.isfinite(power).all():
        raise NumericalFailureError("operator power overflows", {"power": n})
    return power


def operator_norm(m) -> float:
    """Largest singular value (0.0 for an empty matrix)."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    return _norm2(a)


def spectral_radius(m) -> float:
    """max |lambda| over the spectrum (0.0 for an empty matrix)."""
    a = _require_square(as_matrix(m))
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def eigenvalues(m) -> np.ndarray:
    """Full spectrum of a square matrix, unordered."""
    a = _require_square(as_matrix(m))
    return np.linalg.eigvals(a)


def is_hermitian(m, tol: Tolerance = DEFAULT_TOL) -> bool:
    a = _require_square(as_matrix(m))
    if a.size == 0:
        return True
    return _norm2(a - adjoint(a)) <= tol.gate(_norm2(a))


def hermitian_part(m) -> np.ndarray:
    a = _require_square(as_matrix(m))
    return (a + adjoint(a)) / 2.0


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Sign classification of a Hermitian matrix.

    ``ZERO`` means the matrix is both PSD and NSD within tolerance, i.e.
    numerically zero on the spectral scale.
    """

    is_hermitian: bool
    min_eig: float
    max_eig: float
    verdict: str

    @property
    def is_psd(self) -> bool:
        return self.verdict in (PSD, ZERO)

    @property
    def is_nsd(self) -> bool:
        return self.verdict in (NSD, ZERO)

    def to_json(self) -> dict:
        return {
            "is_hermitian": self.is_hermitian,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "verdict": self.verdict,
        }


def definiteness(m, tol: Tolerance = DEFAULT_TOL) -> DefinitenessVerdict:
    """Classify a Hermitian matrix as PSD / NSD / ZERO / INDEFINITE.

    The matrix is symmetrized as (M + M*)/2 before the eigenanalysis; inputs
    whose Hermiticity defect exceeds the tolerance are rejected.  The verdict
    thresholds are relative to the spectral scale max(|min_eig|, |max_eig|, 1).
    """
    a = _require_square(as_matrix(m))
    return _sign_verdict(_hermitian_gate(a, tol), tol)


def _hermitian_gate(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The Hermitian part of a finite square ``a``; raises HermitianError
    when ||a - a*|| exceeds the gate at the scale ||a||."""
    # an exactly self-adjoint input (every hermitian_part result) has defect 0
    # and is already its own Hermitian part
    if np.array_equal(a, adjoint(a)):
        return a
    defect = _norm2(a - adjoint(a))
    if defect > tol.gate(_norm2(a)):
        raise HermitianError(defect)
    return hermitian_part(a)


def _sign_verdict(h: np.ndarray, tol: Tolerance) -> DefinitenessVerdict:
    """`definiteness` of a finite, exactly self-adjoint matrix."""
    if h.size == 0:
        return DefinitenessVerdict(True, 0.0, 0.0, ZERO)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    thr = tol.gate(max(abs(lo), abs(hi), 1.0))
    psd = lo >= -thr
    nsd = hi <= thr
    if psd and nsd:
        verdict = ZERO
    elif psd:
        verdict = PSD
    elif nsd:
        verdict = NSD
    else:
        verdict = INDEFINITE
    return DefinitenessVerdict(True, lo, hi, verdict)


def sqrt_psd(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues negative within tolerance are clamped.

    Raises DomainError on indefinite or negative input.
    """
    a = _require_square(as_matrix(m))
    verdict = definiteness(a, tol)
    if not verdict.is_psd:
        raise DomainError(f"matrix is not PSD (verdict {verdict.verdict}, min_eig {verdict.min_eig:.3e})")
    return _psd_sqrt(a)


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Square root of the Hermitian part of a square ``a``, with negative
    eigenvalues clamped to 0; `sqrt_psd` without its PSD check."""
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh(hermitian_part(a))
    return hermitian_part((v * np.sqrt(np.clip(w, 0.0, None))) @ adjoint(v))


def moore_penrose(m, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the shared rank cutoff."""
    a = as_matrix(m)
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a)
    inv = np.zeros_like(s)
    kept = s > tol.cutoff(float(s[0]))
    inv[kept] = 1.0 / s[kept]
    k = s.size
    return adjoint(vh)[:, :k] @ (inv[:, None] * adjoint(u)[:k, :])


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the rank cutoff `Tolerance.cutoff`."""
    a = as_matrix(m)
    if a.size == 0:
        return 0
    return _rank_with_cliff(np.linalg.svd(a, compute_uv=False), tol)[0]


def _rank_with_cliff(s: np.ndarray, tol: Tolerance) -> tuple[int, float, bool]:
    """Rank of the descending singular values ``s`` under `Tolerance.cutoff`,
    the cutoff, and a flag marking singular values within 10x of it."""
    cutoff = tol.cutoff(float(s[0]) if s.size else 0.0)
    near = bool(np.any((s > cutoff / 10.0) & (s < cutoff * 10.0)))
    return int(np.count_nonzero(s > cutoff)), cutoff, near


def block_compose(blocks) -> np.ndarray:
    """Assemble [[a, b], [c, d]] into one matrix; blocks may be empty."""
    (a, b), (c, d) = blocks
    a, b, c, d = (as_matrix(x) for x in (a, b, c, d))
    r0, c0 = a.shape
    r1, c1 = d.shape
    if b.shape != (r0, c1) or c.shape != (r1, c0):
        raise DimensionError(
            f"non-conformable blocks: {a.shape}, {b.shape}, {c.shape}, {d.shape}"
        )
    out = np.zeros((r0 + r1, c0 + c1), dtype=np.complex128)
    out[:r0, :c0] = a
    out[:r0, c0:] = b
    out[r0:, :c0] = c
    out[r0:, c0:] = d
    return out


def block_split(m, d1: int) -> list[list[np.ndarray]]:
    """Split a square matrix at row/column ``d1`` into a 2x2 grid."""
    a = _require_square(as_matrix(m))
    if not 0 < d1 < a.shape[0]:
        raise DimensionError(f"split index {d1} outside (0, {a.shape[0]})")
    return [
        [a[:d1, :d1].copy(), a[:d1, d1:].copy()],
        [a[d1:, :d1].copy(), a[d1:, d1:].copy()],
    ]


def matrix_to_json(m) -> dict:
    """Serialize to the wire format {"rows", "cols", "data": [[[re, im], ...], ...]}."""
    a = as_matrix(m)
    rows, cols = a.shape
    return {"rows": rows, "cols": cols, "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the wire format, rejecting ragged rows, non-numbers, non-finite
    numbers and integers beyond the float range.

    Valid input is checked and converted with whole-list operations; only a
    rejected payload is walked entry by entry, to name its first bad entry in
    row-major order.
    """
    if not isinstance(obj, dict):
        raise MatrixFormatError("matrix payload must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise MatrixFormatError(f"missing matrix field {exc}") from exc
    if any(isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in (rows, cols)):
        raise MatrixFormatError("rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows:
        raise MatrixFormatError(f"expected {rows} rows, got {len(data) if isinstance(data, list) else type(data).__name__}")
    numbers = _finite_numbers(data, cols)
    if numbers is None:
        _raise_first_bad_entry(data, cols)
        raise MatrixFormatError("matrix entries cannot be converted to complex128")
    # [re, im] pairs in row-major order are complex128's memory layout
    return numbers.view(np.complex128).reshape(rows, cols)


def _finite_numbers(data: list, cols: int) -> np.ndarray | None:
    """Every re and im of a well-formed payload, in order, as float64; else None."""
    if not (all(map(isinstance, data, repeat(list))) and set(map(len, data)) <= {cols}):
        return None
    entries = list(chain.from_iterable(data))
    if not (all(map(isinstance, entries, repeat(list))) and set(map(len, entries)) <= {2}):
        return None
    numbers = list(chain.from_iterable(entries))
    if not all(issubclass(k, (int, float)) and not issubclass(k, bool) for k in set(map(type, numbers))):
        return None
    try:
        flat = np.array(numbers, dtype=np.float64)
    except OverflowError:
        return None
    return flat if np.isfinite(flat).all() else None


def _raise_first_bad_entry(data: list, cols: int) -> None:
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"ragged row {i}: expected {cols} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise MatrixFormatError(f"entry ({i},{j}) must be a [re, im] pair")
            re, im = entry
            if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                raise MatrixFormatError(f"entry ({i},{j}) must hold two numbers")
            try:
                finite = math.isfinite(re) and math.isfinite(im)
            except OverflowError:
                raise MatrixFormatError(f"entry ({i},{j}) is outside the float range") from None
            if not finite:
                raise MatrixFormatError(f"entry ({i},{j}) is not finite")


def dumps_json(payload) -> str:
    """Return exactly ``json.dumps(payload, sort_keys=True, indent=2)``.

    The stdlib uses its C encoder only without ``indent``, so indented
    output runs every value through Python generator frames.  This writer
    uses the same C-level pieces per scalar (``encode_basestring_ascii``,
    ``int.__repr__``, ``float.__repr__``) and writes a list of floats, or a
    list of equal-length float lists such as a matrix row of ``[re, im]``
    pairs, with one join.  Whatever ``json`` rejects raises ``TypeError``;
    a payload that contains itself exceeds the recursion limit instead of
    raising ``json``'s ``ValueError``.
    """
    return _dump(payload, "\n")


def _json_floats(text: str) -> str:
    # float.__repr__ spells non-finite values nan / inf / -inf; no finite repr holds an "n"
    if "n" in text:
        text = text.replace("nan", "NaN").replace("inf", "Infinity")
    return text


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _dump(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _float_table(items, inner: str) -> str | None:
    """Body of a list of floats or of equal-length float lists, else None."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return _json_floats(("," + inner).join(map(float.__repr__, items)))
    if kinds != {list}:
        return None
    sizes = set(map(len, items))
    if len(sizes) != 1:
        return None
    flat = list(chain.from_iterable(items))
    if set(map(type, flat)) != {float}:
        return None
    deeper = inner + "  "
    cells = map(("," + deeper).join, zip(*[map(float.__repr__, flat)] * sizes.pop()))
    return _json_floats("[" + deeper + (inner + "]," + inner + "[" + deeper).join(cells) + inner + "]")


def _dump(value, newline: str) -> str:
    """JSON text of ``value`` whose first line is indented by ``newline``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_floats(float.__repr__(value))
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = _float_table(value, inner)
        if body is None:
            body = ("," + inner).join([_dump(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join(
            [encode_basestring_ascii(_json_key(key)) + ": " + _dump(item, inner) for key, item in sorted(value.items())]
        )
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
