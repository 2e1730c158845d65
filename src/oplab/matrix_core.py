"""Dense complex matrix primitives.

Everything downstream (decompositions, defect operators, theorem checks)
works on plain ``numpy`` arrays of dtype complex128.  This module owns the
shared conventions:

* tolerance handling (relative to the spectral scale, with an absolute floor),
* the one spectral norm, `_norm2`: the largest singular value from a
  values-only SVD, ``svd(a, compute_uv=False)[0]``, and 0.0 for an empty
  array, which is bit for bit numpy's ``linalg.norm(a, 2)`` without that
  function's axis handling; every spectral norm in the package goes through
  it, so no caller guards against empty blocks,
* one source per power: `_powers` forms T, T^2, ..., each one product
  from the last, and `_power_walk` yields each with its gate g_k =
  cutoff(rho * sum_{j<k} ||T^j|| ||T^{k-1-j}||), T^0 = I, rho = ||T||: the
  first-order change of T^k when T moves by rel_eps * rho, a gate at the
  tolerance and not a certificate (that needs a forward-error bound on T^k);
  `_matrix_power` (DomainError on a negative or non-integral n) squares
  only where a caller's n enters or a block's power is checked,
* one home per decision rule, which every such decision in the package
  goes through: rank in `_rank` (singular values at or below
  `Tolerance.cutoff`, ``max(rel_eps * sigma_max, abs_eps)``, are zero; on
  T^k, at or below g_k), X^q = 0 in `_nilpotency` (``||X^q|| <= g_q``),
  Hermiticity in `_hermitian_gate`, a sign in `_sign_verdict` and overflow
  in `_finite`; every threshold is a `Tolerance` method or `_GATES` entry,
* the Moore-Penrose inverse, `_pinv`, and 2x2 block composition,
  `_block_compose`,
* the JSON wire format for matrices and the one writer of JSON text,
  `_write`: `json_pieces` gives a payload's text in pieces to stream to a
  sink, and `dumps_json` is their join.  Payloads carry complex arrays,
  which are written as their `matrix_to_json` objects straight from the
  array's floats, a block of rows at a time by the vectorized printer of
  `_float_text`, loaded with the first array, so the text held at once is
  one block, not the result; `matrix_to_json` builds those objects in
  Python for library users and round trips.  `_write`
  takes the row formatter as an argument, so the CLI's writer (`cli._emit`)
  can hand a large matrix's rows to a forked child with the same pieces.

All functions are pure: inputs are never mutated and there is no module
state, so values can be shared freely across threads.  None of them forks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from numbers import Integral

import numpy as np

__all__ = [
    "OplabError",
    "DimensionError",
    "HermitianError",
    "DomainError",
    "NumericalFailureError",
    "PreconditionError",
    "MatrixFormatError",
    "DecompositionError",
    "GenerationError",
    "Tolerance",
    "DEFAULT_TOL",
    "DefinitenessVerdict",
    "as_matrix",
    "adjoint",
    "matrix_to_json",
    "matrix_from_json",
    "dumps_json",
    "json_pieces",
]

PSD = "PSD"
NSD = "NSD"
ZERO = "ZERO"
INDEFINITE = "INDEFINITE"
# the verdict of (PSD, NSD), each within the sign gate
_SIGNS = {(True, True): ZERO, (True, False): PSD, (False, True): NSD, (False, False): INDEFINITE}


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


class DecompositionError(OplabError):
    """A structural decomposition failed numerically."""


class GenerationError(OplabError):
    """Fixture generation could not certify its premise."""


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

    def cutoff(self, sigma_max: float) -> float:
        """The rank rule: singular values at or below this count as zero."""
        return max(self.rel_eps * sigma_max, self.abs_eps)

    def conclusion(self, scale: float) -> float:
        """A verifier's conclusion residual: `gate` with its relative part scaled by the table."""
        return _GATES["conclusion"] * self.rel_eps * scale + self.abs_eps

    def drazin(self, scale: float) -> float:
        """A residual of the Drazin inverse's identities."""
        return _GATES["drazin"] * self.gate(scale)

    def ill_conditioned(self, s: np.ndarray, gate: float) -> bool:
        """Whether a singular value in ``s`` lies within the table's factor of its rank gate."""
        return bool(((s > gate / _GATES["ill_conditioned"]) & (s < gate * _GATES["ill_conditioned"])).any())


# The gate table: the factors of the rules above, and the absolute fixture
# acceptance of `generators` (||U*U - I|| of a Haar unitary, ||N^{index-1}||
# of a nilpotent chain); tests/report_diff.py copies what it needs.
_GATES = {"conclusion": 100.0, "drazin": 1e3, "ill_conditioned": 10.0, "unitary_fixture": 1e-12, "chain_edge": 1e-3}


DEFAULT_TOL = Tolerance()


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a 2-D complex128 array with finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size and not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conjugate(m.T)


def _norm2(a: np.ndarray) -> float:
    """Spectral norm of a 2-D array (0.0 when empty), equal to numpy's ``linalg.norm(a, 2)``."""
    return _largest(_singular_values(a))


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The descending singular values of a 2-D array, from a values-only SVD."""
    return np.linalg.svd(a, compute_uv=False)


def _largest(s: np.ndarray) -> float:
    """The first of the descending singular values ``s``, 0.0 when there are none."""
    return float(s[0]) if s.size else 0.0


def _finite(a: np.ndarray, what: str, residuals: dict) -> np.ndarray:
    """The overflow rule: ``a`` if its entries are finite, else NumericalFailureError("<what> overflows")."""
    if not np.isfinite(a).all():
        raise NumericalFailureError(f"{what} overflows", residuals)
    return a


def _as_integer(value, what: str) -> int:
    """``value`` as an int; bools and non-integral numbers raise DomainError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _exponent(n) -> int:
    """``n`` as an operator power's exponent: an integer >= 0, else DomainError."""
    n = _as_integer(n, "operator power")
    if n < 0:
        raise DomainError(f"operator power must be >= 0, got {n}")
    return n


def _matrix_power(a: np.ndarray, n: int) -> np.ndarray:
    """``a**n`` of a finite square ``a`` and an integer n >= 0.

    A negative n, which numpy would turn into a power of the inverse, raises
    DomainError; a power that overflows raises NumericalFailureError instead
    of numpy's overflow warnings."""
    n = _exponent(n)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(a, n)
    return _finite(power, "operator power", {"power": n})


def _powers(a: np.ndarray) -> Iterator[np.ndarray]:
    """T, T^2, ... of a finite square ``a``, each one product from the last
    when it is asked for; an overflow raises NumericalFailureError."""
    power = a
    for k in count(2):
        yield power
        with np.errstate(over="ignore", invalid="ignore"):
            power = power @ a
        _finite(power, "operator power", {"power": k})


def _power_walk(a: np.ndarray, tol: Tolerance) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """T^k from `_powers`, its singular values and its gate g_k (see the
    module docstring) for k = 1, 2, ... of a finite square ``a``."""
    norms = [1.0]
    for k, power in enumerate(_powers(a), 1):
        s = _singular_values(power)
        norms.append(_largest(s))
        lower = norms[:k]
        gate = tol.cutoff(norms[1] * sum(x * y for x, y in zip(lower, reversed(lower))))
        yield power, s, gate


def _nilpotency(s: np.ndarray, gate: float) -> tuple[float, bool]:
    """The nilpotency rule, on the singular values ``s`` of a power X^q (or
    of a block of one) and its gate g_q from `_power_walk`: ||X^q|| and
    whether X^q = 0, i.e. ||X^q|| <= g_q."""
    residual = _largest(s)
    return residual, residual <= gate


def _hermitian_part(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(a + a*) / 2 of a square ``a``, bitwise its own adjoint, written to
    ``out`` where it is given."""
    return np.divide(a + adjoint(a), 2.0, out=out)


@dataclass(frozen=True)
class DefinitenessVerdict:
    """Sign classification of a matrix that passed the Hermitian gate.

    ``ZERO`` means the matrix is both PSD and NSD within tolerance, i.e.
    numerically zero on the spectral scale.
    """

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
            "is_hermitian": True,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "verdict": self.verdict,
        }


def _hermitian_gate(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The Hermiticity rule: the Hermitian part of a finite square ``a`` if
    ||a - a*|| is at most ``tol.gate(||a||)``, else HermitianError."""
    # an exactly self-adjoint input (every _hermitian_part result) has defect 0
    # and is already its own Hermitian part
    if np.array_equal(a, adjoint(a)):
        return a
    defect = _norm2(a - adjoint(a))
    if not defect <= tol.gate(_norm2(a)):
        raise HermitianError(defect)
    return _hermitian_part(a)


def _sign_verdict(h: np.ndarray, tol: Tolerance) -> DefinitenessVerdict:
    """The sign of a finite, exactly self-adjoint ``h``: PSD, NSD, ZERO
    (both) or INDEFINITE, with eigenvalues beyond ``tol.gate`` of the
    spectral scale max(|min_eig|, |max_eig|, 1) counting as nonzero."""
    if h.size == 0:
        return DefinitenessVerdict(0.0, 0.0, ZERO)
    w = np.linalg.eigvalsh(h)
    lo, hi = float(w[0]), float(w[-1])
    thr = tol.gate(max(abs(lo), abs(hi), 1.0))
    return DefinitenessVerdict(lo, hi, _SIGNS[lo >= -thr, hi <= thr])


def _pinv(a: np.ndarray, tol: Tolerance, rank: int | None = None) -> np.ndarray:
    """The Moore-Penrose inverse of a finite 2-D ``a`` with the rank rule's
    cutoff, or its truncation to the largest ``rank`` singular values when a
    caller has decided that rank."""
    if a.size == 0:
        return np.zeros((a.shape[1], a.shape[0]), dtype=np.complex128)
    u, s, vh = np.linalg.svd(a)
    inv = np.zeros_like(s)
    r = _rank(s, tol) if rank is None else rank
    inv[:r] = 1.0 / s[:r]
    k = s.size
    return adjoint(vh)[:, :k] @ (inv[:, None] * adjoint(u)[:k, :])


def _rank(s: np.ndarray, tol: Tolerance) -> int:
    """The rank rule: how many of the descending singular values ``s`` lie
    above `Tolerance.cutoff` of the largest, the gate g_1 of `_power_walk`."""
    return int(np.count_nonzero(s > tol.cutoff(_largest(s))))


def _block_compose(blocks) -> np.ndarray:
    """[[a, b], [c, d]] of conformable 2-D arrays as one matrix; blocks may be empty."""
    (a, b), (c, d) = blocks
    r0, c0 = a.shape
    out = np.zeros((r0 + d.shape[0], c0 + d.shape[1]), dtype=np.complex128)
    out[:r0, :c0] = a
    out[:r0, c0:] = b
    out[r0:, :c0] = c
    out[r0:, c0:] = d
    return out


def matrix_to_json(m) -> dict:
    """The wire format {"rows", "cols", "data": [[[re, im], ...], ...]} as
    Python objects, for library users and round trips.  Payloads written by
    `json_pieces` carry the array itself, which it writes as these bytes."""
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
    """Return exactly ``json.dumps(payload, sort_keys=True, indent=2)``, where
    every complex ``ndarray`` in the payload is written as its
    `matrix_to_json` object would be: the join of `json_pieces`.  Unlike the
    stdlib's indented output, the writer runs no generator frame per value.
    An array is checked as `matrix_to_json` checks it, with the same errors.
    Whatever ``json`` rejects raises ``TypeError``; a payload that contains
    itself exceeds the recursion limit instead of raising ``ValueError``."""
    return "".join(json_pieces(payload))


def json_pieces(payload) -> Iterator[str]:
    """The text of ``dumps_json(payload)`` in pieces, to write to a sink one
    at a time: a dict's keys and scalar items, one string per item of a list,
    and each array row by row.  All but the arrays' rows is written, and
    every array checked, before this returns, so a payload that raises does
    so before the caller opens its sink."""
    out = []
    _write(payload, "\n", out, _row_text)
    return _joined(out)


def _joined(out: list) -> Iterator[str]:
    # anything but a string is an array's rows, formatted as they are read
    return chain.from_iterable((piece,) if isinstance(piece, str) else piece for piece in out)


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    # float.__repr__ spells non-finite values nan / inf / -inf; no finite repr holds an "n"
    return text.replace("nan", "NaN").replace("inf", "Infinity") if "n" in text else text


# how `_write` converts a scalar: by its exact type first, else by isinstance
# in this order (a bool is an int; np.float64 is a float)
_SCALARS = {str: encode_basestring_ascii, bool: lambda value: "true" if value else "false", int: int.__repr__,
            float: _json_float, type(None): lambda value: "null"}


def _scalar(value) -> str:
    for kind, convert in _SCALARS.items():
        if isinstance(value, kind):
            return convert(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _write(value, newline: str, out: list, rows) -> None:
    """The one JSON writer: append the text of ``value``, first line indented
    by ``newline``, to ``out``; an array's, checked on the call, with its rows
    written by ``rows`` (`_row_text`, or what the CLI's writer puts in their
    place) as the pieces are read, or now where ``rows`` is None."""
    inner = newline + "  "
    if isinstance(value, dict) and value:
        separator, following = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            head = separator + encode_basestring_ascii(key if type(key) is str else _json_key(key)) + ": "
            convert = _SCALARS.get(type(item))
            if convert is None:
                out.append(head)
                _write(item, inner, out, rows)
            else:
                out.append(head + convert(item))
            separator = following
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        separator, following = "[" + inner, "," + inner
        for item in value:
            convert = _SCALARS.get(type(item))
            if convert is not None:
                out.append(separator + convert(item))
            else:
                part = [separator]
                _write(item, inner, part, None)
                out.append("".join(part))
            separator = following
        out.append(newline + "]")
    elif isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, np.ndarray):
        a = as_matrix(value)
        n, cols = a.shape
        out.append(f'{{{inner}"cols": {cols},{inner}"data": ' + ("[]" if not n else ""))
        if n:
            out.append(rows(a, inner + "  ") if rows else "".join(_row_text(a, inner + "  ")))
        out.append(f'{inner + "]" if n else ""},{inner}"rows": {n}{newline}}}')
    else:
        out.append(_scalar(value))


def _row_text(a: np.ndarray, newline: str, opening: str = "[") -> Iterator[str]:
    """The one row formatter: the rows of a finite ``a`` as the items of its
    "data" list, each after ``newline`` and its separator, ``opening`` for
    the first row ("," when ``a`` continues rows already written) and ","
    for the others, in one piece per block of rows (`_float_text`)."""
    from ._float_text import row_text  # on the first array written: see `_float_text`

    return row_text(a, newline, opening)


def _json_key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _scalar(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
