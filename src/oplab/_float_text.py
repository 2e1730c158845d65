"""The rows of a matrix's JSON text, its floats printed a block at a time.

Every float is spelled exactly as ``float.__repr__`` spells it: the
shortest decimal that reads back as the same double, the nearest such
where there are several, ties to an even last digit; positional when its
decimal point position decpt (value = 0.d1d2... x 10^decpt) satisfies
-4 < decpt <= 16, else ``d[.ddd]e±XX``.  The digits come from Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), the
algorithm of Java's ``Double.toString``, run on ``uint64`` arrays:

* the decimal exponent k of the interval of doubles that round to v, and
  v and the interval's bounds times 10^-k, each the 126-bit g of `_G`
  times a 60-bit integer, rounded to odd (`_round_to_odd`): the bounds'
  products are v's moved by a shifted g (`_moved`);
* the one candidate on the 10^(k+1) grid in the interval, where there is
  one, else the nearer of the two on the 10^k grid, ties to even; Java
  skips the first step below about 1e-321 (s = floor(v 10^-k) < 100) to
  keep two digits, and here it is taken there too, which gives Python's
  one-digit ``5e-324`` (all 20 such doubles of each sign are tested);
* an integer from 1 to 2^52 is its own digits, and 0 is handled apart.

The layout goes into NUL-padded byte columns, one row of the text per
array row: per float a sign, a ``0.000`` prefix, 17 digit/dot slot pairs
and an exponent, between the row's fixed separators.  One
``bytearray.translate`` removes the NULs.  Only the writer of arrays loads
this module (`matrix_core._row_text`), on its first array.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW63 = _U(2**63 - 1)
_K_MIN = -324


def _flog2pow10(e):
    """floor(e log2 10), for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _table() -> np.ndarray:
    """g = floor(10^-k 2^-r) + 1, r = floor(-k log2 10) - 125, for k in
    [-324, 292] (2^125 <= g < 2^126), as g = g1 2^63 + g0: column k + 324
    holds g1, g0, and the high and low 32 bits of g1 and of g0."""
    rows = []
    for k in range(_K_MIN, 293):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            g = (10**-k << -r if r < 0 else 10**-k >> r) + 1
        else:
            g = (1 << -r) // 10**k + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        rows.append((g1, g0, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(rows, dtype=_U).T.copy()


_G = _table()
_FIELD = 1 + 5 + 34 + 5  # sign, prefix, 17 digit/dot slot pairs, exponent
_POW10 = np.array([10**i for i in range(1, 18)], dtype=_U)
_SCALE = np.array([10 ** (17 - n) for n in range(18)], dtype=_U)  # 10^(17 - len) by len
_NUMBERS = np.arange(10_000, dtype=np.int32)
# "0000" to "9999" as the four bytes of a uint32, row m holding only the first m digits
_QUADS = (((_NUMBERS[:, None] // np.array([1000, 100, 10, 1], dtype=np.int32) % 10 + 48).astype(np.uint8))
          * (np.arange(4) < np.arange(5)[:, None, None])).view(np.uint32).reshape(-1)
# trailing zeros of 0 to 9999 written in four digits
_ZEROS = sum(_NUMBERS % 10**j == 0 for j in range(1, 5)).astype(np.int8)
# where in `_QUADS` quad j of a value showing n digits starts, by j and n: the
# quad holds digits 4j - 3 to 4j, quad 0 the first alone
_SHOWN = np.array([[min(max(n + 3 - 4 * j, 0), 4) * 10_000 for n in range(18)] for j in range(5)], dtype=np.int32)
# the sign, then the "0." prefix and its zeros before a positional value
# below 1: row 5 * sign + z for z = -decpt, z = 4 for no prefix
_HEAD = np.frombuffer(b"".join(sign + prefix.ljust(5, b"\0") for sign in (b"\0", b"-")
                                for prefix in (b"0.", b"0.0", b"0.00", b"0.000", b"")), dtype="V6")
# "e-324" to "e+308" by exponent + 324, and no exponent last
_EXPONENT = np.frombuffer(b"".join(f"e{x:+03d}".encode().ljust(5, b"\0") for x in range(-324, 309)) + b"\0" * 5,
                          dtype="V5")


def _product(high: np.ndarray, low: np.ndarray, cp0: np.ndarray, cp1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low 64 bits of (high 2^32 + low)(cp1 2^32 + cp0)."""
    p00, p01, p10 = low * cp0, low * cp1, high * cp0
    mid = p00 >> _U(32)
    mid += p01 & _LOW32
    mid += p10 & _LOW32
    p01 >>= _U(32)
    p10 >>= _U(32)
    p01 += p10
    np.multiply(high, cp1, out=p10)
    p10 += p01
    p10 += mid >> _U(32)
    mid <<= _U(32)
    p00 &= _LOW32
    mid |= p00
    return p10, mid


def _round_to_odd(y1: np.ndarray, y0: np.ndarray, x1: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), g = g1 2^63 + g0, from the words y1 2^64 + y0 =
    g1 cp and x1 = floor(g0 cp / 2^64), its last bit set if any bit below
    it, as far as these words show, was."""
    z = y0 >> _U(1)
    z += x1
    high = y1 + (z >> _U(63))
    z &= _LOW63
    z += _LOW63
    z >>= _U(63)
    high |= z
    return high


def _moved(words: tuple, g1: np.ndarray, g0: np.ndarray, shift: np.ndarray, up: bool) -> tuple:
    """The words of `_round_to_odd` for cp + 2^shift (``up``) or cp - 2^shift
    from those of cp, ``words`` = (y1, y0, x1, x0) with x1 2^64 + x0 = g0 cp."""
    y1, y0, x1, x0 = words
    back = 64 - shift
    if up:
        low = y0 + (g1 << shift)
        return y1 + (g1 >> back) + (low < y0), low, x1 + (g0 >> back) + (x0 + (g0 << shift) < x0)
    step = g1 << shift
    return y1 - (g1 >> back) - (y0 < step), y0 - step, x1 - (g0 >> back) - (x0 < (g0 << shift))


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip decimal f 10^e of each finite double of
    ``bits`` (its sign ignored), as (f, e).  Each temporary is dropped once
    used: a block's peak is what the writer's memory tests bound."""
    bq = (bits >> _U(52)).astype(np.int16) & 0x7FF
    c = bits & _U(2**52 - 1)
    # the interval of doubles that round to v is asymmetric at a power of 2
    wide = (c == 0) & (bq > 1)
    c |= (bq != 0).astype(_U) << _U(52)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    k = (q * 661_971_961_083 - wide * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint8)
    del q
    g1, g0, *halves = (np.take(column, k - _K_MIN) for column in _G)
    k = k.astype(np.int16)
    # v, its lower and its upper bound times 4 2^h: cp, cp - (2 or 1) 2^h and cp + 2 2^h
    cp = c << (h + 2)
    cp0, cp1 = cp & _LOW32, cp >> _U(32)
    del cp
    words = (*_product(*halves[:2], cp0, cp1), *_product(*halves[2:], cp0, cp1))
    del halves, cp0, cp1
    vb = _round_to_odd(*words[:3])
    vbl = _round_to_odd(*_moved(words, g1, g0, h + 1 - wide, False))
    vbr = _round_to_odd(*_moved(words, g1, g0, h + 1, True))
    del words, g1, g0, h, wide
    odd = c & _U(1)  # an odd significand's interval is open
    vbl += odd
    vbr -= odd
    s = vb >> _U(2)
    # s or s + 1, whichever alone lies in the interval, else the nearer, ties to even
    uin = vbl <= s << _U(2)
    win = (s << _U(2)) + _U(4) <= vbr
    middle = (s << _U(2)) + _U(2)
    f = s + np.where(uin != win, win, (vb > middle) | ((vb == middle) & ((s & _U(1)) == 1)))
    del uin, win, middle, vb
    # the candidates on the 10^(k+1) grid, where exactly one of them lies in it
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl <= sp10 << _U(2)
    short = upin != ((sp10 << _U(2)) + _U(40) <= vbr)
    f = np.where(short, sp10 + _U(10) * ~upin, f)
    del sp10, upin, short, vbl, vbr, s
    # an integer from 1 to 2^52 is its own digits, and 0 is 0
    exact = (bq > 1022) & (bq < 1075)
    shift = np.where(exact, 1075 - bq, 0).astype(np.uint8)
    whole = c >> shift
    exact = (exact & ((whole << shift) == c)) | (c == 0)
    return np.where(exact, whole, f), np.where(exact, 0, k)


def _fields(bits: np.ndarray, f: np.ndarray, e: np.ndarray, out: np.ndarray) -> None:
    """Write the ``repr`` of each finite double of ``bits``, its decimal
    f 10^e from `_decimal`, into ``out``, of shape (..., 45) with a float
    of ``bits`` per field in row-major order, NUL-padded."""
    n = np.searchsorted(_POW10, f, side="right") + 1
    decpt = e + n
    f *= np.take(_SCALE, n)
    del e, n
    hi = (f // _U(10**8)).astype(np.int32)
    lo = (f % _U(10**8)).astype(np.int32)
    del f
    quads = (hi // 10**8, (hi // 10**4) % 10**4, hi % 10**4, lo // 10**4, lo % 10**4)
    del hi, lo
    # the digits after the last nonzero one: 17 - nd
    trailing = np.take(_ZEROS, quads[4]).astype(np.int32)
    for quad, more in zip(quads[3::-1], (4, 8, 12, 16)):
        trailing += (trailing == more) * np.take(_ZEROS, quad)
    nd = np.maximum(17 - trailing, 1)
    del trailing
    positional = (decpt > -4) & (decpt <= 16)
    # a positional value of at least 1 shows its zeros up to the point and one after
    shown = np.where(positional & (decpt >= nd), decpt + 1, nd)
    digits = np.empty((bits.size, 5), dtype=np.uint32)
    for j, quad in enumerate(quads):
        digits[:, j] = np.take(_QUADS, quad + np.take(_SHOWN[j], shown))
    del quads, shown
    shape = out.shape[:-1]
    out[..., 6:40:2] = digits.view(np.uint8)[:, 3:].reshape(*shape, 17)
    del digits
    dot = np.where(positional, decpt - 1, np.where(nd > 1, 0, -1))
    placed = np.flatnonzero(dot >= 0)
    dots = np.zeros((bits.size, 17), dtype=np.uint8)
    dots.reshape(-1)[placed * 17 + dot[placed]] = 46
    out[..., 7:40:2] = dots.reshape(*shape, 17)
    del dot, placed, dots, nd
    sign = (bits >> _U(63)).astype(np.int32)
    out[..., :6].view("V6")[..., 0] = np.take(_HEAD, sign * 5 + np.where(positional & (decpt <= 0), -decpt, 4)
                                              ).reshape(shape)
    out[..., 40:45].view("V5")[..., 0] = np.take(_EXPONENT, np.where(positional, -1, decpt + 323)).reshape(shape)


# complex entries per block
_BLOCK = 2048


def row_text(a: np.ndarray, newline: str, opening: str) -> Iterator[str]:
    """The rows of the finite complex ``a`` as `matrix_core._row_text` gives
    them, one piece per block of rows."""
    rows, cols = a.shape
    inner = newline + "  "
    if not cols:
        yield opening + newline + "[]" + ("," + newline + "[]") * (rows - 1)
        return
    # a row: its head, then per entry [re, im] and, but after the last, the
    # separator to the next, then its tail
    head, pair_head, middle, between = "," + newline + "[" + inner, "[" + inner + "  ", "," + inner + "  ", "," + inner
    field = "\0" * _FIELD
    pair = pair_head + field + middle + field + inner + "]"
    template = np.frombuffer((head + (pair + between) * (cols - 1) + pair + "\0" * len(between) + newline + "]"
                              ).encode(), dtype=np.uint8)
    start, strides = len(head + pair_head), (template.size, len(pair + between), len(field + middle), 1)
    floats = np.ascontiguousarray(a).view(np.float64).reshape(rows, cols, 2)
    step = max(1, _BLOCK // cols)
    for first in range(0, rows, step):
        yield _block(floats[first : first + step], template, start, strides, opening if first == 0 else ",")


def _block(x: np.ndarray, template: np.ndarray, start: int, strides: tuple, opening: str) -> str:
    """The text of the rows of floats ``x``, each laid out in ``template``
    with its fields at ``start`` and ``strides``, the first after ``opening``."""
    bits = x.reshape(-1).view(_U)
    decimal = _decimal(bits)  # before the block's text, so the two are not held at once
    text = bytearray(x.shape[0] * template.size)
    buf = np.frombuffer(text, dtype=np.uint8).reshape(x.shape[0], template.size)
    buf[:] = template
    buf[0, 0] = ord(opening)
    _fields(bits, *decimal, np.lib.stride_tricks.as_strided(buf[:, start:], shape=x.shape + (_FIELD,),
                                                            strides=strides, writeable=True))
    del decimal, buf
    packed = text.translate(None, b"\0")
    del text
    return packed.decode("ascii")
