"""Tests for the matrix substrate: the Hermitian gate and sign verdicts,
pseudo-inverse, blocks and the JSON wire format."""

import ast
import json
import math
import os
import tracemalloc
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplab
import oplab.cli as cli
import oplab.decompositions as decompositions
import oplab._float_text as _float_text
import oplab.matrix_core as matrix_core
from oplab import (
    DimensionError,
    DomainError,
    HermitianError,
    MatrixFormatError,
    PreconditionError,
    Tolerance,
    classify,
    matrix_from_json,
    matrix_to_json,
)
from oplab.generators import gen_haar_unitary
from oplab.matrix_core import (
    _block_compose,
    _hermitian_gate,
    _hermitian_part,
    _pinv,
    _require_square,
    _sign_verdict,
    as_matrix,
    dumps_json,
    json_pieces,
)

from conftest import ginibre, patch_everywhere, philox, rank_deficient

# 2x2 eigenvalue oracle lambda = (tr +- sqrt(tr^2 - 4 det)) / 2 applied to
# [[-4,-2],[-2,-3]] (tr = -7, det = 8): both roots negative.
NSD_EXAMPLE_EIGS = ((-7 - math.sqrt(17)) / 2, (-7 + math.sqrt(17)) / 2)
# sigma_max of [[2,0],[1,2]]: largest eigenvalue of T*T = [[5,2],[2,4]].
NORM_EXAMPLE = math.sqrt((9 + math.sqrt(17)) / 2)


def definiteness(m, tol=Tolerance()):
    """The sign verdict every defect gets: its Hermitian gate, then
    `_sign_verdict` of the gated matrix."""
    return _sign_verdict(_hermitian_gate(_require_square(as_matrix(m)), tol), tol)


def is_hermitian(m, tol=Tolerance()):
    """Whether ``m`` passes the Hermitian gate."""
    try:
        _hermitian_gate(_require_square(as_matrix(m)), tol)
    except HermitianError:
        return False
    return True


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
    h = _hermitian_part(ginibre(rng, 5)) + 3.0 * np.eye(5)
    skew = ginibre(rng, 5)
    near = h + 1e-14 * (skew - skew.conj().T)
    assert not np.array_equal(near, near.conj().T)
    exact, perturbed = definiteness(h), definiteness(near)
    assert exact.verdict == perturbed.verdict == "PSD"
    assert perturbed.min_eig == pytest.approx(exact.min_eig, abs=1e-12)


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel_eps=1e-6, abs_eps=0.0)])
def test_is_hermitian_agrees_with_the_definiteness_gate_at_its_edge(tol):
    # a = h + eps * skew has ||a - a*|| = 2 * eps * ||skew||; eps puts that
    # at a factor of the gate tol.gate(||h||), on either side of it, where
    # the gate passes a or raises HermitianError
    rng = philox(31)
    h = _hermitian_part(ginibre(rng, 4))
    skew = ginibre(rng, 4)
    skew = skew - skew.conj().T
    unit = tol.gate(np.linalg.norm(h, 2)) / (2.0 * np.linalg.norm(skew, 2))
    accepted = []
    for factor in (0.5, 0.99, 1.01, 2.0):
        a = h + factor * unit * skew
        try:
            _hermitian_gate(a, tol)
        except HermitianError:
            accepted.append(False)
        else:
            accepted.append(True)
    assert accepted == [True, True, False, False]


@pytest.mark.parametrize("field", ["rel_eps", "abs_eps"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-3])
def test_tolerance_rejects_non_finite_and_negative(field, value):
    with pytest.raises(DomainError):
        Tolerance(**{field: value})


def test_every_gate_factor_and_threshold_is_set_in_the_gate_table():
    # the table (`_GATES`) and Tolerance's field defaults hold every float a
    # decision turns on; 0.0, 1.0 and 2.0 are the spectral scale's 1 and
    # arithmetic, not gates
    import oplab.theorem_lab as theorem_lab

    src = Path(oplab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    exempt = [node for node in trees["matrix_core"].body
              if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["_GATES"]]
    exempt += [item for node in trees["matrix_core"].body if isinstance(node, ast.ClassDef) and node.name == "Tolerance"
               for item in node.body if isinstance(item, ast.AnnAssign)]
    assert len(exempt) == 3
    in_table = {id(n) for node in exempt for n in ast.walk(node)}

    def floats(nodes, allowed) -> list:
        return [(n.lineno, n.value) for n in nodes if id(n) not in in_table
                and isinstance(n, ast.Constant) and type(n.value) is float and n.value not in allowed]

    for name in ("matrix_core", "expansivity", "decompositions", "theorem_lab"):
        assert floats(ast.walk(trees[name]), (0.0, 1.0, 2.0)) == [], name
    compared = [n for node in ast.walk(trees["generators"]) if isinstance(node, ast.Compare) for n in ast.walk(node)]
    assert floats(compared, (0.0, 1.0)) == []
    # outside matrix_core a tolerance's fields are only handed on: to a
    # Tolerance, an option's default or a report, never into a gate
    for name, tree in trees.items():
        parents = {id(child): node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        read = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr in ("rel_eps", "abs_eps") and not isinstance(parents[id(node)], (ast.keyword, ast.Dict))]
        assert name == "matrix_core" or read == [], name
    assert not hasattr(theorem_lab, "_gate") and not hasattr(theorem_lab, "RESIDUAL_FACTOR")


@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rel_eps=3e-9, abs_eps=7e-13), Tolerance(0.0, 0.0)])
@pytest.mark.parametrize("scale", [0.0, 1.0, 1.7, 3.3e5, 1e300])
def test_each_gate_keeps_the_float_operations_of_the_sites_it_replaced(tol, scale):
    rel, floor = tol.rel_eps, tol.abs_eps
    assert tol.gate(scale) == rel * scale + floor
    assert tol.cutoff(scale) == max(rel * scale, floor)
    assert tol.conclusion(scale) == 100.0 * rel * scale + floor
    assert tol.drazin(scale) == 1e3 * (rel * scale + floor)
    # the band's edges are outside it
    s = np.array([1e-9 / 10.0, 1e-9 * 10.0, scale * 1e-9])
    assert tol.ill_conditioned(s, 1e-9) == (1e-9 / 10.0 < scale * 1e-9 < 1e-9 * 10.0)
    assert not tol.ill_conditioned(s[:2], 1e-9)


def test_definiteness_unitary_conjugation_invariant():
    # verdicts survive a change of orthonormal basis (10x tolerance slack)
    rng = philox(11)
    tol = Tolerance()
    loose = Tolerance(rel_eps=10 * tol.rel_eps, abs_eps=10 * tol.abs_eps)
    for trial in range(25):
        d = int(rng.integers(2, 9))
        h = _hermitian_part(ginibre(rng, d))
        u = gen_haar_unitary(500 + trial, d)
        base = definiteness(h, tol).verdict
        conjugated = definiteness(u.conj().T @ h @ u, loose).verdict
        assert base == conjugated


def test_moore_penrose_invertible_and_zero():
    rng = philox(5)
    a = ginibre(rng, 4) + 2 * np.eye(4)
    np.testing.assert_allclose(_pinv(a, Tolerance()), np.linalg.inv(a), atol=1e-10)
    np.testing.assert_allclose(_pinv(np.zeros((3, 3), dtype=complex), Tolerance()), np.zeros((3, 3)))


def test_moore_penrose_example():
    # oracle: check the four Penrose identities for the claimed inverse
    a = np.array([[0, 2], [0, 0]], dtype=complex)
    claimed = np.array([[0, 0], [0.5, 0]], dtype=complex)
    np.testing.assert_allclose(a @ claimed @ a, a, atol=1e-15)
    np.testing.assert_allclose(claimed @ a @ claimed, claimed, atol=1e-15)
    np.testing.assert_allclose((a @ claimed).conj().T, a @ claimed, atol=1e-15)
    np.testing.assert_allclose((claimed @ a).conj().T, claimed @ a, atol=1e-15)
    np.testing.assert_allclose(_pinv(a, Tolerance()), claimed, atol=1e-12)


def test_moore_penrose_identities_rank_deficient():
    rng = philox(9)
    for trial in range(15):
        d = int(rng.integers(2, 17))
        a = rank_deficient(rng, d, rank=int(rng.integers(1, d)))
        pinv = _pinv(a, Tolerance())
        scale = 1e-8 * (1 + np.linalg.norm(a, 2) + np.linalg.norm(pinv, 2))
        assert np.linalg.norm(a @ pinv @ a - a, 2) <= scale
        assert np.linalg.norm(pinv @ a @ pinv - pinv, 2) <= scale
        assert np.linalg.norm(a @ pinv - (a @ pinv).conj().T, 2) <= scale
        assert np.linalg.norm(pinv @ a - (pinv @ a).conj().T, 2) <= scale


def test_norms_and_spectrum_examples():
    # the spectral summary of classify: ||T||, the spectral radius and the
    # moduli of the spectrum
    def summary(t):
        return classify(t, np.eye(len(t)), 1)

    eye = summary(np.eye(5))
    assert eye.operator_norm == pytest.approx(1.0)
    assert eye.spectral_radius == pytest.approx(1.0)
    nil = summary([[0, 1], [0, 0]])
    assert nil.operator_norm == pytest.approx(1.0)
    assert nil.spectral_radius == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(nil.eigenvalue_moduli, [0, 0], atol=1e-12)
    t = summary([[2, 0], [1, 2]])
    assert t.spectral_radius == pytest.approx(2.0)
    assert t.operator_norm == pytest.approx(NORM_EXAMPLE)


def test_block_compose_examples():
    composed = _block_compose([[np.eye(1), np.zeros((1, 1))], [np.zeros((1, 1)), np.zeros((1, 1))]])
    np.testing.assert_allclose(composed, np.diag([1.0, 0.0]))


def test_block_round_trip_exact():
    rng = philox(21)
    m = ginibre(rng, 4)
    grid = [[m[:3, :3], m[:3, 3:]], [m[3:, :3], m[3:, 3:]]]
    assert np.array_equal(_block_compose(grid), m)


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


def wire(payload):
    """``payload`` with every array replaced by its `matrix_to_json` object."""
    if isinstance(payload, np.ndarray):
        return matrix_to_json(payload)
    if isinstance(payload, dict):
        return {key: wire(value) for key, value in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [wire(value) for value in payload]
    return payload


def test_dumps_json_matches_stdlib_on_every_cli_payload(tmp_path, monkeypatch):
    payloads = []

    real = cli._forked_json_pieces

    def checked(payload):
        assert dumps_json(payload) == stdlib_dumps(wire(payload))
        payloads.append(wire(payload))
        return real(payload)

    monkeypatch.setattr(cli, "_forked_json_pieces", checked)
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


def test_json_pieces_hold_one_row_of_text_not_the_result():
    # four 128 x 128 matrices, one in a nested dict: the whole text at once
    # peaked at 20.4 MB; a block of rows at a time holds one block's floats,
    # their digits and text (about 0.7 MB against one matrix's 1.24 MB)
    rng = philox(92)
    payload = {"a": ginibre(rng, 128), "b": {"c": ginibre(rng, 128), "d": 1.5}, "e": ginibre(rng, 128),
               "f": ginibre(rng, 128)}
    one_matrix = len(dumps_json(payload["a"]))
    with open(os.devnull, "w") as handle:
        tracemalloc.start()
        try:
            handle.writelines(json_pieces(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < one_matrix


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
        with pytest.raises(TypeError):
            json_pieces(payload)  # on the call, before a piece is read
        return
    assert dumps_json(payload) == expected
    assert "".join(json_pieces(payload)) == expected


SPECIAL_FLOATS = [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]


@st.composite
def complex_arrays(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    parts = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(parts, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return np.array(values, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def nested(leaf, depth):
    """``leaf`` at exactly ``depth`` levels of dicts and lists, among other values."""
    if depth == 0:
        return leaf
    below = nested(leaf, depth - 1)
    return st.one_of(
        st.tuples(below, st.lists(st.floats(), max_size=3)).map(list),
        st.dictionaries(st.text(max_size=3), st.integers(), max_size=2).flatmap(
            lambda extra: below.map(lambda value: {**extra, "m": value})
        ),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 3).flatmap(lambda depth: nested(complex_arrays(), depth)))
@example(np.zeros((0, 3), dtype=complex))
@example({"m": np.zeros((3, 0), dtype=complex), "n": [np.ones((1, 3), dtype=complex)]})
@example({"m": {"m": np.full((1, 3), 0.5 - 2j)}, "x": 1})
@example(np.linspace(-3e3, 5e-3, 5000).view(np.complex128).reshape(1250, 2))  # rows in three blocks
def test_dumps_json_writes_arrays_as_their_wire_format(payload):
    text = dumps_json(payload)
    assert text == stdlib_dumps(wire(payload))
    pieces = list(json_pieces(payload))
    assert "".join(pieces) == text
    if isinstance(payload, np.ndarray) and len(payload):
        # a head, one piece per block of rows, a tail
        per_block = max(1, _float_text._BLOCK // max(payload.shape[1], 1))
        assert len(pieces) == 2 + -(-len(payload) // per_block)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[1.0, float("nan")]]),
        np.array([[complex(0.0, float("inf"))]]),
        np.zeros(3, dtype=complex),
        np.zeros((2, 2, 2)),
        np.array(1.0 + 2.0j),
    ],
)
def test_dumps_json_rejects_arrays_as_matrix_to_json_does(array):
    with pytest.raises((DomainError, DimensionError)) as expected:
        matrix_to_json(array)
    for payload in (array, {"a": [array]}, {"a": 1, "b": {"c": array}}):
        with pytest.raises(expected.type) as got:
            dumps_json(payload)
        assert str(got.value) == str(expected.value)
        with pytest.raises(expected.type):
            json_pieces(payload)  # checked on the call, before a piece is read


def norm2_inputs():
    rng = philox(4242)
    yield "real-square", rng.standard_normal((5, 5))
    yield "complex-square", ginibre(rng, 6)
    yield "real-wide", rng.standard_normal((3, 7))
    yield "complex-tall", ginibre(rng, 8, 3)
    yield "1x1", np.array([[-2.5 + 1j]])
    yield "zeros", np.zeros((4, 4), dtype=complex)
    yield "64x64", ginibre(rng, 64)
    for shape in ((0, 0), (3, 0), (0, 3)):
        yield f"empty-{shape[0]}x{shape[1]}", np.zeros(shape, dtype=complex)


@pytest.mark.parametrize("name,a", list(norm2_inputs()), ids=lambda x: x if isinstance(x, str) else "")
def test_norm2_equals_linalg_norm_bitwise(name, a):
    from oplab.matrix_core import _norm2

    assert _norm2(a) == float(np.linalg.norm(a, 2))
    assert math.copysign(1.0, _norm2(a)) == math.copysign(1.0, float(np.linalg.norm(a, 2)))


def test_definiteness_of_self_adjoint_input_skips_symmetrizing_bitwise():
    rng = philox(4343)
    for d in (1, 3, 7):
        h = _hermitian_part(ginibre(rng, d))
        verdict = definiteness(h)
        w = np.linalg.eigvalsh(_hermitian_part(h))
        assert (verdict.min_eig, verdict.max_eig) == (float(w[0]), float(w[-1]))
    # a nearly self-adjoint input is still symmetrized before the eigenanalysis
    skew = ginibre(rng, 4)
    a = _hermitian_part(ginibre(rng, 4)) + 1e-14 * (skew - skew.conj().T)
    w = np.linalg.eigvalsh(_hermitian_part(a))
    assert (definiteness(a).min_eig, definiteness(a).max_eig) == (float(w[0]), float(w[-1]))


def _matmul_operands(node):
    """The operands of a chain ``a @ b @ ...``; empty for any other expression."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)):
        return []
    return [side for operand in (node.left, node.right) for side in (_matmul_operands(operand) or [operand])]


class _DirectLinalgCalls(ast.NodeVisitor):
    """Every ``np.linalg.matrix_power`` and ``_matrix_power`` call, every
    ``np.linalg.norm`` call given an ``ord``, every import or attribute named ``comb``, every
    ``.cutoff(``, ``.power_gate(``, ``.tolist(`` and ``.matrix_to_json(``
    call, every ``NumericalFailureError(`` and ``matrix_to_json(`` call, every difference
    ``x - adjoint(y)`` ("M - M*"), every string
    "weight must be Hermitian PSD" ("psd weight") and every self-update
    ``x = x @ y`` or ``x @= y`` ("x @ x"), as (enclosing function, name)."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_ImportFrom(self, node):
        self.found += [(self.scope[-1], "comb") for alias in node.names if alias.name == "comb"]

    def visit_Attribute(self, node):
        if node.attr == "comb":
            self.found.append((self.scope[-1], "comb"))
        self.generic_visit(node)

    def visit_Assign(self, node):
        names = {t.id for t in node.targets if isinstance(t, ast.Name)}
        if any(isinstance(o, ast.Name) and o.id in names for o in _matmul_operands(node.value)):
            self.found.append((self.scope[-1], "x @ x"))
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        if isinstance(node.op, ast.MatMult):
            self.found.append((self.scope[-1], "x @ x"))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        right = node.right
        if (isinstance(node.op, ast.Sub) and isinstance(right, ast.Call) and isinstance(right.func, ast.Name)
                and right.func.id == "adjoint"):
            self.found.append((self.scope[-1], "M - M*"))
        self.generic_visit(node)

    def visit_Constant(self, node):
        if node.value == "weight must be Hermitian PSD":
            self.found.append((self.scope[-1], "psd weight"))

    def visit_Call(self, node):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("cutoff", "power_gate", "tolist", "matrix_to_json"):
            self.found.append((self.scope[-1], f.attr))
        if isinstance(f, ast.Name) and f.id in ("NumericalFailureError", "matrix_to_json", "_matrix_power"):
            self.found.append((self.scope[-1], f.id))
        if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute) and f.value.attr == "linalg"
                and isinstance(f.value.value, ast.Name) and f.value.value.id in ("np", "numpy")):
            with_ord = len(node.args) > 1 or any(k.arg == "ord" for k in node.keywords)
            if f.attr == "matrix_power" or (f.attr == "norm" and with_ord):
                self.found.append((self.scope[-1], f.attr))
        self.generic_visit(node)


def test_spectral_norms_and_powers_go_through_matrix_core():
    # `_powers` forms T, T^2, ..., each one product from the last, the only
    # self-update x = x @ y, and `_power_walk` reads it.  `_matrix_power`
    # forms one T^n by repeated squaring only where a caller's n enters (a
    # defect's T^n, a gram weight) or a block's power t2^n is checked; every
    # call site is named below.  The cutoff is
    # read in `_rank` and in the walk alone, which forms the gate g_k of
    # every decision on a power; power_gate is gone and must not return.
    # Each other decision rule has one home too: X^q = 0 in `_nilpotency`,
    # ||M - M*|| within the gate in
    # `_hermitian_gate`, an overflow in `_finite` (the other two
    # NumericalFailureErrors are the Drazin identity checks, both in
    # decompositions: the rank-stabilization formula for an arbitrary T and
    # the block formula t1^-1 (+) 0 for the verifier's T = t1 (+) t2), and a
    # verifier's PSD weight in theorem_lab's `_psd_weight`.
    # Every spectral norm is matrix_core._norm2; gen_haar_unitary's gate is a
    # Frobenius norm, which keeps a np.linalg.norm call for
    # perfbench/selftest.py's linalg.norm.calls > 0.
    # No binomial coefficient is used: a defect has one evaluation, the
    # iterated map in expansivity.  Payloads carry arrays, which the writer
    # prints straight from their floats, a block of rows at a time
    # (`_float_text`): only the codec builds the per-entry lists of the wire
    # format, and nothing calls matrix_to_json.
    allowed = {
        ("matrix_core.py", "_matrix_power", "matrix_power"),
        ("expansivity.py", "_spec_pass", "_matrix_power"),
        ("expansivity.py", "_gram_weight", "_matrix_power"),
        ("decompositions.py", "_core_nilpotent", "_matrix_power"),
        ("decompositions.py", "_range_kernel_split", "_matrix_power"),
        ("matrix_core.py", "_powers", "x @ x"),
        ("matrix_core.py", "_rank", "cutoff"),
        ("matrix_core.py", "_power_walk", "cutoff"),
        ("matrix_core.py", "_hermitian_gate", "M - M*"),
        ("matrix_core.py", "_finite", "NumericalFailureError"),
        ("decompositions.py", "_drazin_inverse", "NumericalFailureError"),
        ("decompositions.py", "_block_drazin_inverse", "NumericalFailureError"),
        ("theorem_lab.py", "_psd_weight", "psd weight"),
        ("matrix_core.py", "matrix_to_json", "tolist"),
    }
    found = set()
    for path in sorted(Path(oplab.__file__).parent.glob("*.py")):
        visitor = _DirectLinalgCalls()
        visitor.visit(ast.parse(path.read_text()))
        found |= {(path.name, scope, name) for scope, name in visitor.found}
    assert found == allowed


def _checking_helpers(source: str) -> set:
    """The public functions of matrix_core whose body calls ``as_matrix``."""
    return {
        node.name for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "as_matrix"
                for call in ast.walk(node))
    }


class _CheckedAgain(ast.NodeVisitor):
    """Every use of a name in ``helpers`` and every ``as_matrix`` use outside
    a public function (dunder methods count as public), as (scope, name)."""

    def __init__(self, helpers):
        self.helpers = helpers
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load):
            return
        scope = self.scope[-1]
        public = not scope.startswith("_") or (scope.startswith("__") and scope.endswith("__"))
        if node.id in self.helpers or (node.id == "as_matrix" and not public):
            self.found.append((scope, node.id))


def test_matrices_are_checked_once_where_they_enter():
    # A matrix is checked where it enters oplab: a public function's
    # argument, a DefectSpec or a loaded file.  Internal code calls the
    # kernels (_norm2, _rank(_singular_values(.)), _sign_verdict(...),
    # _hermitian_part, _pinv, _block_compose, np.linalg.eigvals,
    # _core_nilpotent, _range_kernel_split, _polar,
    # _build_transform_bundle), never a public helper that checks its
    # argument again; only the JSON writer, _write, checks the
    # arrays of a payload it is handed.  Every public function of
    # decompositions checks its argument: the transform and split commands
    # hand one the matrix they read, and nothing else calls one; the drazin
    # command checks the matrix it read for squareness and runs the kernels
    # on one walk.
    sources = {path.name: path.read_text() for path in sorted(Path(oplab.__file__).parent.glob("*.py"))}
    helpers = _checking_helpers(sources["matrix_core.py"])
    assert helpers == {"matrix_to_json"}
    helpers |= {name for name in decompositions.__all__
                if isinstance(getattr(decompositions, name), types.FunctionType)}
    found = set()
    for name, source in sources.items():
        visitor = _CheckedAgain(helpers)
        visitor.visit(ast.parse(source))
        found |= {(name, scope, used) for scope, used in visitor.found}
    assert found == {
        ("matrix_core.py", "_write", "as_matrix"),
        ("cli.py", "_cmd_transform", "polar"),
        ("cli.py", "_cmd_split", "range_kernel_split"),
    }


class _NameCalls(ast.NodeVisitor):
    """Every call of a plain name, as (enclosing function, name)."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name):
            self.found.append((self.scope[-1], node.func.id))
        self.generic_visit(node)


def test_defect_specs_are_built_only_where_matrices_enter():
    # _defect_pass is the one defect kernel: it takes a checked square T,
    # already raised to its power, and an exactly self-adjoint weight.  A
    # DefectSpec checks a caller's matrices, so it is built once at each
    # entry handed them (classify, the CLI's classify and defect commands and
    # the four verifiers handed a weight) and nowhere else; the public functions that
    # check their arguments again are called only by the CLI.
    checking = {"DefectSpec", "defect", "defect_series", "gram_weight"}
    found = Counter()
    for path in sorted(Path(oplab.__file__).parent.glob("*.py")):
        visitor = _NameCalls()
        visitor.visit(ast.parse(path.read_text()))
        found.update((path.name, scope, name) for scope, name in visitor.found if name in checking)
    assert found == Counter({
        ("expansivity.py", "classify", "DefectSpec"): 1,
        ("cli.py", "_classify", "DefectSpec"): 1,
        ("cli.py", "_cmd_defect", "DefectSpec"): 1,
        ("theorem_lab.py", "verify_power_stability", "DefectSpec"): 1,
        ("theorem_lab.py", "verify_two_expansive_isometry", "DefectSpec"): 1,
        ("theorem_lab.py", "verify_sandwich_isometry", "DefectSpec"): 1,
        ("theorem_lab.py", "spectral_constraints", "DefectSpec"): 1,
        ("cli.py", "_cmd_defect", "defect"): 1,
        ("cli.py", "_resolve_weight", "gram_weight"): 1,
    })


def _imports_forking(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "_forking" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "_forking" or any(
            alias.name == "_forking" for alias in node.names)
    return False


def test_only_the_cli_imports_the_fork_code():
    # the CLI decides when a split runs (every split size lives in cli),
    # _forking how, and matrix_core stays pure: no fork, no split size, no
    # two-process reader or writer
    sources = {path.name: path.read_text() for path in sorted(Path(oplab.__file__).parent.glob("*.py"))}
    importers = {name for name, source in sources.items() if any(map(_imports_forking, ast.walk(ast.parse(source))))}
    assert importers == {"cli.py"}
    assert not any(word in sources["matrix_core.py"] for word in ("_forked_", "_SPLIT_", "_forking"))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "fork" and getattr(node.value, "id", None) == "os"
                   for node in ast.walk(ast.parse(sources["matrix_core.py"])))
    assert {"_forked_json_pieces", "_forked_matrix_from_text", "_SPLIT_ENTRIES", "_SPLIT_TEXT"} <= set(vars(cli))


def test_os_fork_is_called_only_in_start_child_and_that_only_in_split_streams():
    # every split, the writer's too, is a list of streams (`_split_streams`),
    # which forks, waits and reads in one place through one fork seam
    # (`_start_child`), with no context manager between them; the child
    # pickles its sign verdicts itself, so no rule on bare eigenvalues is
    # left, and `_forking` formats no text
    sources = {path.name: path.read_text() for path in sorted(Path(oplab.__file__).parent.glob("*.py"))}

    def callers(is_callee) -> set:
        return {(name, top.name) for name, source in sources.items() for top in ast.parse(source).body
                if isinstance(top, ast.FunctionDef)
                for node in ast.walk(top) if isinstance(node, ast.Call) and is_callee(node.func)}

    assert callers(lambda f: isinstance(f, ast.Attribute) and f.attr == "fork"
                   and getattr(f.value, "id", None) == "os") == {("_forking.py", "_start_child")}
    assert callers(lambda f: getattr(f, "id", None) == "_start_child") == {("_forking.py", "_split_streams")}
    assert not any(word in sources["_forking.py"] for word in ("contextmanager", "contextlib"))
    assert not any("_sign_rule" in source for source in sources.values())
    imported = {alias.name for node in ast.walk(ast.parse(sources["_forking.py"]))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not imported & {"_row_text", "_float_template"}


def test_suite_runs_check_each_matrix_at_most_half_as_often(monkeypatch, tmp_path):
    # before matrices were checked once where they enter, these runs made
    # 7,562 and 5,833 as_matrix calls, and 2,959 and 2,373 while every defect
    # built a DefectSpec; with DefectSpec only at the entries they made 1,000,
    # and with the verifiers reaching decompositions through its kernels 700,
    # each a check of a matrix handed to a verifier
    calls = []
    original = matrix_core.as_matrix

    def counting(m):
        calls.append(None)
        return original(m)

    patch_everywhere(monkeypatch, original, counting)
    for mode, bound in (("verify", 700), ("fuzz", 700)):
        calls.clear()
        oplab.run_suite(mode, seed=7, count=50, dims=(4, 3), quarantine_dir=tmp_path / mode)
        assert len(calls) <= bound, mode


_NAN = np.array([[np.nan, 0.0], [0.0, 1.0]])
_FLAT = np.ones(2)
_WIDE = np.ones((2, 3))
_SQUARE = (DimensionError, "expected a square matrix, got shape (2, 3)")

# every public oplab function (and DefectSpec) that takes a matrix: the call
# with the bad matrix in one argument, and the error a 2x3 matrix there
# raises, None where a non-square matrix is valid or not checked
_ENTRY_CALLS = {
    "adjoint": None,  # conjugate transpose of an array; checks nothing
    "build_transform_bundle": (lambda m: oplab.build_transform_bundle(m, 1), _SQUARE),
    "classify": (lambda m: oplab.classify(m, np.eye(2), 2), _SQUARE),
    "classify:p": (lambda m: oplab.classify(np.eye(2), m, 2), _SQUARE),
    "core_nilpotent": (lambda m: oplab.core_nilpotent(m), _SQUARE),
    "DefectSpec": (lambda m: oplab.DefectSpec(t=m, p=np.eye(2), m=1), _SQUARE),
    "DefectSpec:p": (lambda m: oplab.DefectSpec(t=np.eye(2), p=m, m=1), _SQUARE),
    "drazin_inverse": (lambda m: oplab.drazin_inverse(m), _SQUARE),
    "gram_weight": (lambda m: oplab.gram_weight(m), _SQUARE),
    "matrix_to_json": (lambda m: oplab.matrix_to_json(m), None),
    "polar": (lambda m: oplab.polar(m), _SQUARE),
    "range_kernel_split": (lambda m: oplab.range_kernel_split(m, 1), _SQUARE),
    "spectral_constraints": (lambda m: oplab.spectral_constraints(m, np.eye(2), 1), _SQUARE),
    "spectral_constraints:p": (lambda m: oplab.spectral_constraints(np.eye(2), m, 1), _SQUARE),
    "verify_no_singular_expansive": (lambda m: oplab.verify_no_singular_expansive(m, 1), _SQUARE),
    "verify_power_stability": (lambda m: oplab.verify_power_stability(m, np.eye(2), 1, 2), _SQUARE),
    "verify_power_stability:p": (lambda m: oplab.verify_power_stability(np.eye(2), m, 1, 2), _SQUARE),
    "verify_sandwich_isometry": (lambda m: oplab.verify_sandwich_isometry(m, np.eye(2), 2), _SQUARE),
    "verify_sandwich_isometry:p": (lambda m: oplab.verify_sandwich_isometry(np.eye(2), m, 2), _SQUARE),
    "verify_transform_bundle": (lambda m: oplab.verify_transform_bundle(m, 1, 1), _SQUARE),
    "verify_two_expansive_isometry": (lambda m: oplab.verify_two_expansive_isometry(m, np.eye(2)), _SQUARE),
    "verify_two_expansive_isometry:p": (lambda m: oplab.verify_two_expansive_isometry(np.eye(2), m), _SQUARE),
    "verify_unitary_nilpotent_structure": (lambda m: oplab.verify_unitary_nilpotent_structure(m), _SQUARE),
    "verify_weight_decomposition": (lambda m: oplab.verify_weight_decomposition(m, [[0]], np.eye(3), 1),
                                    (PreconditionError, "blocks must be square")),
    "verify_weight_decomposition:p": (lambda m: oplab.verify_weight_decomposition([[1]], [[0]], m, 1),
                                      (PreconditionError, "weight shape (2, 3) does not match block dimensions (2,)")),
}
# the public functions that take no matrix: the defect functions take a
# DefectSpec, whose checks are its rows above; matrix_from_json takes a JSON
# payload (see the wire-format tests); the generators and the suite take
# seeds, specs and paths, and read matrices only through matrix_from_json
_NOT_MATRIX_TAKING = {
    "defect", "defect_series",
    "matrix_from_json",
    "gen_coupled_kernel", "gen_drazin_pair", "gen_expansive_invertible", "gen_haar_unitary", "gen_nilpotent",
    "gen_psd", "generate", "replay_quarantine", "run_suite",
}


def test_entry_call_table_covers_every_public_function():
    functions = {name for name in oplab.__all__ if isinstance(getattr(oplab, name), types.FunctionType)}
    assert functions | {"DefectSpec"} == {key.split(":")[0] for key in _ENTRY_CALLS} | _NOT_MATRIX_TAKING


@pytest.mark.parametrize(
    "key, bad",
    [(key, bad) for key, entry in _ENTRY_CALLS.items() if entry is not None
     for bad in ("nan", "1-d", "2x3") if bad != "2x3" or entry[1] is not None],
)
def test_entry_checks_reject_bad_matrices(key, bad):
    # the checks a matrix meets where it enters oplab: finite, 2-D and,
    # where the function needs it, square
    call, square = _ENTRY_CALLS[key]
    matrix, expected = {
        "nan": (_NAN, (DomainError, "matrix entries must be finite")),
        "1-d": (_FLAT, (DimensionError, "expected a 2-D matrix, got ndim=1")),
        "2x3": (_WIDE, square),
    }[bad]
    with pytest.raises(expected[0]) as caught:
        call(matrix)
    assert (type(caught.value), str(caught.value)) == expected
