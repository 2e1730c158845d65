"""Tests for the matrix substrate: definiteness, roots, pseudo-inverse,
blocks and the JSON wire format."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oplab.cli as cli
from oplab import (
    DimensionError,
    DomainError,
    HermitianError,
    MatrixFormatError,
    Tolerance,
    block_compose,
    block_split,
    definiteness,
    eigenvalues,
    hermitian_part,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    moore_penrose,
    operator_norm,
    spectral_radius,
    sqrt_psd,
)
from oplab.generators import gen_haar_unitary, gen_psd
from oplab.matrix_core import dumps_json

from conftest import ginibre, philox, rank_deficient

# 2x2 eigenvalue oracle lambda = (tr +- sqrt(tr^2 - 4 det)) / 2 applied to
# [[-4,-2],[-2,-3]] (tr = -7, det = 8): both roots negative.
NSD_EXAMPLE_EIGS = ((-7 - math.sqrt(17)) / 2, (-7 + math.sqrt(17)) / 2)
# sigma_max of [[2,0],[1,2]]: largest eigenvalue of T*T = [[5,2],[2,4]].
NORM_EXAMPLE = math.sqrt((9 + math.sqrt(17)) / 2)


def test_is_hermitian_identity():
    for d in (1, 3, 6):
        assert is_hermitian(np.eye(d))


def test_is_hermitian_strict_upper():
    assert not is_hermitian([[0, 1], [0, 0]])


def test_is_hermitian_complex_example():
    assert is_hermitian([[1, 1j], [-1j, 1]])


def test_definiteness_zero_matrix():
    verdict = definiteness(np.zeros((3, 3)))
    assert verdict.verdict == "ZERO"
    assert verdict.is_psd and verdict.is_nsd


def test_definiteness_nsd_example():
    verdict = definiteness([[-4, -2], [-2, -3]])
    assert verdict.verdict == "NSD"
    assert verdict.min_eig == pytest.approx(NSD_EXAMPLE_EIGS[0])
    assert verdict.max_eig == pytest.approx(NSD_EXAMPLE_EIGS[1])


def test_definiteness_indefinite_example():
    verdict = definiteness([[0, 1], [1, 0]])
    assert verdict.verdict == "INDEFINITE"
    assert verdict.min_eig == pytest.approx(-1.0)
    assert verdict.max_eig == pytest.approx(1.0)


def test_definiteness_rejects_non_hermitian():
    with pytest.raises(HermitianError):
        definiteness([[0, 1], [0, 0]])


def test_definiteness_accepts_near_hermitian_within_gate():
    rng = philox(12)
    h = hermitian_part(ginibre(rng, 5)) + 3.0 * np.eye(5)
    skew = ginibre(rng, 5)
    near = h + 1e-14 * (skew - skew.conj().T)
    assert not np.array_equal(near, near.conj().T)
    exact, perturbed = definiteness(h), definiteness(near)
    assert exact.verdict == perturbed.verdict == "PSD"
    assert perturbed.min_eig == pytest.approx(exact.min_eig, abs=1e-12)


@pytest.mark.parametrize("field", ["rel_eps", "abs_eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-3])
def test_tolerance_rejects_non_finite_and_negative(field, value):
    with pytest.raises(DomainError):
        Tolerance(**{field: value})


def test_definiteness_unitary_conjugation_invariant():
    # verdicts survive a change of orthonormal basis (10x tolerance slack)
    rng = philox(11)
    tol = Tolerance()
    loose = Tolerance(rel_eps=10 * tol.rel_eps, abs_eps=10 * tol.abs_eps)
    for trial in range(25):
        d = int(rng.integers(2, 9))
        h = hermitian_part(ginibre(rng, d))
        u = gen_haar_unitary(500 + trial, d)
        base = definiteness(h, tol).verdict
        conjugated = definiteness(u.conj().T @ h @ u, loose).verdict
        assert base == conjugated


def test_sqrt_psd_identity_and_diagonal():
    np.testing.assert_allclose(sqrt_psd(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(sqrt_psd([[4, 0], [0, 9]]), [[2, 0], [0, 3]], atol=1e-14)
    np.testing.assert_allclose(sqrt_psd([[0, 0], [0, 4]]), [[0, 0], [0, 2]], atol=1e-14)


def test_sqrt_psd_rejects_indefinite_and_negative():
    with pytest.raises(DomainError):
        sqrt_psd([[0, 1], [1, 0]])
    with pytest.raises(DomainError):
        sqrt_psd([[-1, 0], [0, -2]])


def test_sqrt_psd_squares_back():
    for trial in range(20):
        d = int(philox(trial).integers(1, 17))
        p = gen_psd(trial, d, condition_cap=1e8)
        s = sqrt_psd(p)
        assert operator_norm(s @ s - p) <= 1e-8 * (1 + operator_norm(p))


def test_moore_penrose_invertible_and_zero():
    rng = philox(5)
    a = ginibre(rng, 4) + 2 * np.eye(4)
    np.testing.assert_allclose(moore_penrose(a), np.linalg.inv(a), atol=1e-10)
    np.testing.assert_allclose(moore_penrose(np.zeros((3, 3))), np.zeros((3, 3)))


def test_moore_penrose_example():
    # oracle: check the four Penrose identities for the claimed inverse
    a = np.array([[0, 2], [0, 0]], dtype=complex)
    claimed = np.array([[0, 0], [0.5, 0]], dtype=complex)
    np.testing.assert_allclose(a @ claimed @ a, a, atol=1e-15)
    np.testing.assert_allclose(claimed @ a @ claimed, claimed, atol=1e-15)
    np.testing.assert_allclose((a @ claimed).conj().T, a @ claimed, atol=1e-15)
    np.testing.assert_allclose((claimed @ a).conj().T, claimed @ a, atol=1e-15)
    np.testing.assert_allclose(moore_penrose(a), claimed, atol=1e-12)


def test_moore_penrose_identities_rank_deficient():
    rng = philox(9)
    for trial in range(15):
        d = int(rng.integers(2, 17))
        a = rank_deficient(rng, d, rank=int(rng.integers(1, d)))
        pinv = moore_penrose(a)
        scale = 1e-8 * (1 + operator_norm(a) + operator_norm(pinv))
        assert operator_norm(a @ pinv @ a - a) <= scale
        assert operator_norm(pinv @ a @ pinv - pinv) <= scale
        assert operator_norm(a @ pinv - (a @ pinv).conj().T) <= scale
        assert operator_norm(pinv @ a - (pinv @ a).conj().T) <= scale


def test_norms_and_spectrum_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0)
    assert spectral_radius(np.eye(5)) == pytest.approx(1.0)
    nil = [[0, 1], [0, 0]]
    assert operator_norm(nil) == pytest.approx(1.0)
    assert spectral_radius(nil) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(sorted(eigenvalues(nil)), [0, 0], atol=1e-12)
    t = [[2, 0], [1, 2]]
    assert spectral_radius(t) == pytest.approx(2.0)
    assert operator_norm(t) == pytest.approx(NORM_EXAMPLE)


def test_eigenvalues_of_symmetrized_are_real():
    rng = philox(13)
    for _ in range(10):
        d = int(rng.integers(2, 10))
        h = hermitian_part(ginibre(rng, d))
        eigs = eigenvalues(h)
        assert float(np.max(np.abs(eigs.imag))) <= 1e-12 * max(1.0, operator_norm(h))


def test_norm_requires_square_for_spectrum():
    with pytest.raises(DimensionError):
        spectral_radius(np.zeros((2, 3)))


def test_block_compose_examples():
    composed = block_compose([[np.eye(1), np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))]])
    np.testing.assert_allclose(composed, np.diag([1.0, 0.0]))
    grid = block_split(np.diag([1.0, 2.0, 3.0]), 2)
    np.testing.assert_allclose(grid[0][0], np.diag([1.0, 2.0]))
    np.testing.assert_allclose(grid[1][1], [[3.0]])
    np.testing.assert_allclose(grid[0][1], np.zeros((2, 1)))


def test_block_round_trip_exact():
    rng = philox(21)
    m = ginibre(rng, 4)
    assert np.array_equal(block_compose(block_split(m, 3)), m)


def test_block_compose_rejects_non_conformable():
    with pytest.raises(DimensionError):
        block_compose([[np.eye(2), np.zeros((1, 1))], [np.zeros((1, 2)), np.eye(1)]])


def test_matrix_json_round_trip():
    rng = philox(33)
    m = ginibre(rng, 3, 2)
    payload = matrix_to_json(m)
    assert payload["rows"] == 3 and payload["cols"] == 2
    text = json.dumps(payload)
    np.testing.assert_array_equal(matrix_from_json(json.loads(text)), m)


def per_element_json(a):
    """The element-by-element encoding the vectorized codec must reproduce."""
    rows, cols = a.shape
    data = [[[float(a[i, j].real), float(a[i, j].imag)] for j in range(cols)] for i in range(rows)]
    return {"rows": rows, "cols": cols, "data": data}


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0), (1, 1), (4, 6)])
def test_matrix_to_json_matches_per_element_encoding(shape):
    special = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0]
    a = np.empty(shape, dtype=np.complex128)
    a.real = np.resize(special, shape)
    a.imag = np.resize(special[::-1], shape)
    got, expected = matrix_to_json(a), per_element_json(a)
    assert json.dumps(got) == json.dumps(expected)
    assert dumps_json({"m": got, "n": [got]}) == json.dumps({"m": got, "n": [got]}, sort_keys=True, indent=2)
    assert all(type(x) is float for row in got["data"] for entry in row for x in entry)


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, 0]]]},
        {"rows": 2, "cols": 1, "data": [[[1, 0]], [[float("nan"), 0]]]},
        {"rows": 1, "cols": 1, "data": [[[1]]]},
        {"rows": 1, "cols": 1},
        {"rows": "1", "cols": 1, "data": [[[1, 0]]]},
        [[1, 0]],
        {"rows": True, "cols": True, "data": [[[1, 0]]]},
        {"rows": False, "cols": False, "data": []},
        {"rows": 1, "cols": 2, "data": [[[1, 0], [0, 10**400]]]},
    ],
)
def test_matrix_json_rejects_malformed(payload):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(payload)


def reference_matrix_from_json(obj):
    """The per-entry parser the whole-list one must agree with: same checks in
    the same order, with an int beyond float range reported, not raised."""
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            return f"ragged row {i}: expected {cols} entries"
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                return f"entry ({i},{j}) must be a [re, im] pair"
            re, im = entry
            if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
                return f"entry ({i},{j}) must hold two numbers"
            try:
                finite = math.isfinite(re) and math.isfinite(im)
            except OverflowError:
                return f"entry ({i},{j}) is outside the float range"
            if not finite:
                return f"entry ({i},{j}) is not finite"
            out[i, j] = complex(re, im)
    return out


def parse_or_message(obj):
    try:
        return matrix_from_json(obj)
    except MatrixFormatError as exc:
        return str(exc)


def assert_same_parse(obj):
    got, expected = parse_or_message(obj), reference_matrix_from_json(obj)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()  # bitwise, signed zeros included


@pytest.mark.parametrize(
    "data",
    [
        [[[1, 0], [0.5, -0.0]], [[-0.0, 2], [3, 4.25]]],
        [[[2**53 + 1, 2**64]], [[-(2**53 + 3), 2**63 + 1]]],
        [[[10**308, -(2**1023)], [1e308, 5e-324]], [[0, 0], [1, 1]]],
        # first bad entry in row-major order wins over later and deeper faults
        [[[float("nan"), 0], [0, 0]], [[1, 0]]],
        [[[1, 0], [0, 0]], [[1, 0], [True, 0]]],
        [[[1, 0], [10**400, float("inf")]], [[1, 0], [1, "x"]]],
        [[[1, 0], [0, 1, 2]], [[float("nan"), 0], [0, 0]]],
        [[[1, 0], (0, 1)], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 0]], ([0, 0], [0, 0])],
        [[[1, None], [0, 0]], [[0, 0], [0, 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [np.float64(2.5), 0]]],
        [[[1, 0], [0, 0]], [[0, 0], [np.int64(2), 0]]],
    ],
)
def test_matrix_from_json_matches_per_entry_parser(data):
    assert_same_parse({"rows": len(data), "cols": 2, "data": data})


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
def test_matrix_from_json_empty_shapes(rows, cols):
    data = [[] for _ in range(rows)]
    assert_same_parse({"rows": rows, "cols": cols, "data": data})


json_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 3).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(
                st.lists(
                    st.one_of(
                        st.lists(json_numbers, min_size=2, max_size=2),
                        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
                        st.lists(json_numbers, max_size=3),
                        json_numbers,
                    ),
                    min_size=max(cols - 1, 0),
                    max_size=cols + 1,
                ),
                max_size=3,
            ),
        )
    )
)
def test_matrix_from_json_property(case):
    cols, data = case
    assert_same_parse({"rows": len(data), "cols": cols, "data": data})


def stdlib_dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


def test_dumps_json_matches_stdlib_on_every_cli_payload(tmp_path, monkeypatch):
    payloads = []

    def checked(payload):
        text = dumps_json(payload)
        assert text == stdlib_dumps(payload)
        payloads.append(payload)
        return text

    monkeypatch.setattr(cli, "dumps_json", checked)
    rng = philox(91)
    for d in (1, 4):
        t = ginibre(rng, d)
        t[:, -1] = 0.0  # a kernel direction, so drazin and split have both blocks at d = 4
        path = tmp_path / f"t{d}.json"
        path.write_text(json.dumps(matrix_to_json(t)))
        matrix = ["--matrix", str(path)]
        commands = [
            ["classify", *matrix, "--m-max", "4"],
            ["classify", *matrix, "--weight", "gram", "--n", "2"],
            ["defect", *matrix, "--m", "2"],
            ["drazin", *matrix],
            ["transform", *matrix],
            ["split", *matrix, "--n", "2"],
            ["verify", "--dims", f"{d},{d}", "--count", "2", "--quarantine", str(tmp_path / "q")],
            ["fuzz", "--dims", f"{d},{d}", "--count", "2", "--quarantine", str(tmp_path / "q")],
        ]
        for argv in commands:
            assert cli.main(argv + ["--output", str(tmp_path / "out.json")]) == 0, argv
            assert (tmp_path / "out.json").read_text() == stdlib_dumps(payloads[-1]) + "\n"
    assert len(payloads) == 16


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "payload",
    [
        NAN, INF, -INF, -0.0, 5e-324, 1e308, -1e308, 0, -(2**80), True, False, None, "", "x",
        [NAN, 1.5, INF, -INF],
        [[NAN, 0.0], [INF, -INF], [1.0, -0.0]],
        [[1.0, 2.0], [3.0]],
        [[1.0, 2], [3.0, True]],
        [[1, 2], [3, 4]],
        [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]], []],
        [[], []],
        [[], [1.0]],
        [[None, 1.0]],
        [["a", 1.0]],
        [],
        {},
        [{}, [], [[]], {"a": []}],
        (1.0, 2.0),
        [(1.0, 2.0), (3.0, 4.0)],
        ((1.0, 2.0), [3.0, 4.0]),
        {"t": (1, "a", None)},
        np.float64(1.25),
        [np.float64(-0.5), 1.0],
        [[np.float64(0.1), 0.2]],
        {"z": 1, "a": {"y": [1.0], "b": 2}},
        "\u00e9\u4e2d\U0001f600 \"quoted\" back\\slash \n\t\x00\x1f\x7f",
        {"\u00e9": "\ud800", "\n": "\U0001f600"},
        {3: "int", 10: "ten", -1: "neg"},
        {1.5: "a", -0.0: "b", NAN: "c", INF: "d"},
        {True: 1, False: 0},
        {None: 1},
        [[1.0, 2.0]] * 3,
    ],
)
def test_dumps_json_matches_stdlib(payload):
    assert dumps_json(payload) == stdlib_dumps(payload)


@pytest.mark.parametrize(
    "payload",
    [
        np.int64(3),
        [1.0, np.int64(3)],
        [[1.0, np.float32(2.0)], [3.0, 4.0]],
        {"a": {1, 2}},
        {(1, 2): "tuple key"},
        {1: "a", "b": 2},
        {False: 0, None: 1},
        object(),
        [b"bytes"],
        1 + 2j,
    ],
)
def test_dumps_json_raises_type_error_where_json_does(payload):
    with pytest.raises(TypeError) as stdlib_error:
        stdlib_dumps(payload)
    with pytest.raises(TypeError) as ours:
        dumps_json(payload)
    assert str(ours.value) == str(stdlib_error.value)


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
json_keys = st.one_of(st.text(), st.integers(), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    st.recursive(
        json_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=4),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=4), inner, max_size=4),
            st.dictionaries(json_keys, inner, max_size=3),
        ),
        max_leaves=25,
    )
)
def test_dumps_json_property(payload):
    try:
        expected = stdlib_dumps(payload)
    except TypeError:
        with pytest.raises(TypeError):
            dumps_json(payload)
        return
    assert dumps_json(payload) == expected


def norm2_inputs():
    rng = philox(4242)
    yield "real-square", rng.standard_normal((5, 5))
    yield "complex-square", ginibre(rng, 6)
    yield "real-wide", rng.standard_normal((3, 7))
    yield "complex-tall", ginibre(rng, 8, 3)
    yield "1x1", np.array([[-2.5 + 1j]])
    yield "zeros", np.zeros((4, 4), dtype=complex)
    yield "64x64", ginibre(rng, 64)


@pytest.mark.parametrize("name,a", list(norm2_inputs()), ids=lambda x: x if isinstance(x, str) else "")
def test_norm2_equals_linalg_norm_bitwise(name, a):
    from oplab.matrix_core import _norm2

    assert _norm2(a) == float(np.linalg.norm(a, 2))
    assert math.copysign(1.0, _norm2(a)) == math.copysign(1.0, float(np.linalg.norm(a, 2)))
    if np.iscomplexobj(a):
        assert operator_norm(a) == float(np.linalg.norm(a, 2))


def norm_fro_inputs():
    rng = philox(4444)
    yield "real-square", rng.standard_normal((5, 5))
    yield "complex-square", ginibre(rng, 6)
    yield "real-wide", rng.standard_normal((3, 7))
    yield "complex-tall", ginibre(rng, 8, 3)
    yield "1x1", np.array([[-2.5 + 1j]])
    yield "zeros", np.zeros((4, 4), dtype=complex)
    yield "256x256", ginibre(rng, 256)


@pytest.mark.parametrize("name,a", list(norm_fro_inputs()), ids=lambda x: x if isinstance(x, str) else "")
def test_norm_fro_agrees_with_linalg_norm_and_bounds_norm2(name, a):
    from oplab.matrix_core import _norm2, _norm_fro

    expected = float(np.linalg.norm(a))
    assert abs(_norm_fro(a) - expected) <= 4 * math.ulp(expected)
    # ||A||_2 = ||A||_F in exact arithmetic when A is one row or column, so
    # there the two roundings may differ in the last bit
    slack = 2 * math.ulp(_norm2(a)) if min(a.shape) == 1 else 0.0
    assert _norm_fro(a) >= _norm2(a) - slack


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norm_fro_rescales_a_sum_of_squares_out_of_range(scale):
    from oplab.matrix_core import _norm_fro

    # squares of entries near 1e200 overflow and near 1e-200 underflow;
    # scaling by a power of ten is inexact, hence the few ulp
    a = ginibre(philox(4545), 5)
    got = _norm_fro(scale * a)
    assert math.isfinite(got)
    assert abs(got - scale * _norm_fro(a)) <= 4 * math.ulp(scale * _norm_fro(a))


def test_norm_fro_of_a_non_finite_array():
    from oplab.matrix_core import _norm_fro

    assert math.isnan(_norm_fro(np.array([[1.0, np.nan], [1e200, 0.0]])))
    assert math.isnan(_norm_fro(np.array([[complex(np.inf, np.nan)]])))
    assert _norm_fro(np.array([[1.0, np.inf]])) == math.inf


def test_definiteness_of_self_adjoint_input_skips_symmetrizing_bitwise():
    rng = philox(4343)
    for d in (1, 3, 7):
        h = hermitian_part(ginibre(rng, d))
        verdict = definiteness(h)
        w = np.linalg.eigvalsh(hermitian_part(h))
        assert (verdict.min_eig, verdict.max_eig) == (float(w[0]), float(w[-1]))
    # a nearly self-adjoint input is still symmetrized before the eigenanalysis
    skew = ginibre(rng, 4)
    a = hermitian_part(ginibre(rng, 4)) + 1e-14 * (skew - skew.conj().T)
    w = np.linalg.eigvalsh(hermitian_part(a))
    assert (definiteness(a).min_eig, definiteness(a).max_eig) == (float(w[0]), float(w[-1]))
