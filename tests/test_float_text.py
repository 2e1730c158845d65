"""The matrix writer's float printer: `_float_text` against ``float.__repr__``.

The reference is the per-entry ``%r`` row template that printed matrices
before the vectorized kernel: the kernel must give its text byte for byte.
"""

import warnings
from itertools import repeat

import numpy as np
import pytest

from oplab.matrix_core import _row_text

from conftest import assert_same_text, ginibre, philox

NEWLINE = "\n      "


def _float_template(cols: int, newline: str) -> str:
    """The ``%r`` template of a matrix row of ``cols`` [re, im] pairs, first
    line indented by ``newline``, filled with the row's floats in order."""
    inner = newline + "  "
    pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
    return "[" + inner + ("," + inner).join(repeat(pair, cols)) + newline + "]" if cols else "[]"


def reference_row_text(a: np.ndarray, newline: str, opening: str = "[") -> str:
    template = _float_template(a.shape[1], newline)
    separator, text = opening + newline, []
    for row in np.ascontiguousarray(a).view(np.float64):
        text.append(separator + template % tuple(row.tolist()))
        separator = "," + newline
    return "".join(text)


def kernel_row_text(a: np.ndarray, newline: str = NEWLINE, opening: str = "[") -> str:
    """The kernel's rows under the writer's forked child's settings, where
    any floating-point error raises and any warning is an error (a child
    that raises hands its rows back to one process): a cast of a huge or
    non-integral float to uint64 would warn there."""
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return "".join(_row_text(a, newline, opening))


def as_entries(floats) -> np.ndarray:
    """Finite floats, in order, as the entries of a 64-column complex matrix, 0.0 padding the last row."""
    x = np.asarray(floats, dtype=np.float64)
    x = x[np.isfinite(x)]
    return np.concatenate([x, np.zeros(-x.size % 128)]).view(np.complex128).reshape(-1, 64)


def edge_floats() -> np.ndarray:
    """Every power of 2 and of 10 with both neighbours, the integers about
    2^53 and below 2^16, the first 3,000 subnormals (among them every double
    below 1e-321, where Java's Schubfach keeps two digits), the largest
    finite value and both zeros, each with both signs."""
    powers = [2.0**k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    around = np.array(powers)
    values = np.concatenate([
        around, np.nextafter(around, 0.0), np.nextafter(around, np.inf), [np.finfo(np.float64).max],
        np.arange(2.0**53 - 2_000, 2.0**53 + 4), np.arange(2.0**16),
        np.arange(3_000, dtype=np.uint64).view(np.float64), [0.0, -0.0, 0.1, 1e16, 1e-5, 1e-4, 123456.789],
    ])
    return np.concatenate([values, -values])


def test_edge_values_print_as_float_repr():
    a = as_entries(edge_floats())
    assert_same_text(kernel_row_text(a), reference_row_text(a, NEWLINE))


def test_random_bit_patterns_print_as_float_repr():
    # 200,000 finite doubles spread over every exponent and significand
    bits = philox(711).integers(0, 2**64, size=201_000, dtype=np.uint64)
    a = as_entries(bits.view(np.float64)[:200_000])
    assert_same_text(kernel_row_text(a), reference_row_text(a, NEWLINE))


@pytest.mark.parametrize("opening", ["[", ","])
@pytest.mark.parametrize(
    "shape,kind",
    [
        ((64, 64), "bits"),
        ((70, 64), "gaussian"),  # three blocks
        ((2, 3000), "gaussian"),  # a row a block
        ((16, 16), "integers"),
        ((1, 1), "gaussian"),
        ((1, 9), "gaussian"),
        ((9, 1), "gaussian"),
        ((5, 5), "zero"),
        ((5, 5), "negative zero"),
        ((3, 0), "zero"),
    ],
)
def test_rows_are_the_template_rows(shape, kind, opening):
    rng = philox(712)
    if kind == "bits":
        floats = rng.integers(0, 2**64, size=2 * shape[0] * shape[1], dtype=np.uint64).view(np.float64)
        a = np.where(np.isfinite(floats), floats, 1.5).view(np.complex128).reshape(shape)
    elif kind == "integers":
        a = rng.integers(-(2**53), 2**53, size=shape).astype(float) + 1j * np.arange(shape[1])
    elif kind == "gaussian":
        a = ginibre(rng, *shape)
    else:
        a = np.full(shape, complex(-0.0, -0.0) if kind == "negative zero" else 0j)
    assert_same_text(kernel_row_text(a, NEWLINE, opening), reference_row_text(a, NEWLINE, opening))

