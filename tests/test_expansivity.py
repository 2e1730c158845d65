"""Tests for defect operators and their classification."""

import json
import math

import numpy as np
import pytest

import oplab.expansivity as expansivity_mod
from oplab import (
    DEFAULT_TOL,
    DefectSpec,
    DimensionError,
    DomainError,
    HermitianError,
    NumericalFailureError,
    classify,
    defect,
    defect_series,
    gram_weight,
)
from oplab.expansivity import ClassificationReport, ClassificationRow, _tilde
from oplab.matrix_core import _hermitian_gate, _sign_verdict
from oplab.generators import gen_coupled_kernel, gen_haar_unitary

from conftest import ginibre, philox, random_hermitian

I2 = np.eye(2)


def brute_defects(t, p, m):
    """Independent oracle: the alternating binomial sum of every order 1..m,
    term by term."""
    t = np.asarray(t, dtype=complex)
    terms = []
    for j in range(m + 1):
        tj = np.linalg.matrix_power(t, j)
        terms.append(tj.conj().T @ p @ tj)
    return [sum((-1) ** j * math.comb(k, j) * terms[j] for j in range(k + 1)) for k in range(1, m + 1)]


def test_scalar_defect_example():
    result = defect(DefectSpec(t=[[2]], p=[[1]], m=1))
    np.testing.assert_allclose(result.delta, [[-3]])
    assert result.verdict.verdict == "NSD"
    assert result.classification == {"expansive"}


def test_unitary_collapse_all_classes():
    for m in (1, 2, 3, 5):
        u = gen_haar_unitary(40 + m, 5)
        result = defect(DefectSpec(t=u, p=np.eye(5), m=m))
        assert np.linalg.norm(result.delta, 2) <= 1e-10
        assert result.classification == {"expansive", "contractive", "isometric"}


def test_defect_derived_example():
    # T*T = [[5,2],[2,4]] by direct multiplication, so delta = I - T*T
    result = defect(DefectSpec(t=[[2, 0], [1, 2]], p=I2, m=1))
    np.testing.assert_allclose(result.delta, [[-4, -2], [-2, -3]], atol=1e-14)
    assert result.verdict.verdict == "NSD"
    assert "expansive" in result.classification


def test_defect_matches_brute_oracle():
    rng = philox(101)
    for _ in range(30):
        d = int(rng.integers(1, 9))
        m = int(rng.integers(1, 7))
        t = ginibre(rng, d)
        p = random_hermitian(rng, d)
        expected = brute_defects(t, p, m)[-1]
        got = defect(DefectSpec(t=t, p=p, m=m)).delta
        scale = (1 + np.linalg.norm(p, 2)) * (1 + np.linalg.norm(t, 2) ** 2) ** m
        assert np.linalg.norm(got - expected, 2) <= 1e-12 * scale
    # every order of a series: powers T^n, d up to 256, and a weight that is
    # not exactly self-adjoint
    specs = list(series_fixtures()) + [DefectSpec(t=gen_haar_unitary(1001, 256), p=np.eye(256), m=12)]
    for spec in specs:
        tn = np.linalg.matrix_power(spec.t, spec.n)
        expected = brute_defects(tn, spec.p, spec.m)
        for k, (result, oracle) in enumerate(zip(defect_series(spec), expected), start=1):
            scale = (1 + np.linalg.norm(spec.p, 2)) * (1 + np.linalg.norm(tn, 2) ** 2) ** k
            assert np.linalg.norm(result.delta - oracle, 2) <= 1e-12 * scale


def test_defect_requires_hermitian_weight():
    with pytest.raises(HermitianError):
        defect(DefectSpec(t=I2, p=[[0, 1], [0, 0]], m=1))


def test_defect_order_guard():
    with pytest.raises(DomainError):
        DefectSpec(t=[[1]], p=[[1]], m=63)
    with pytest.raises(DomainError):
        DefectSpec(t=[[1]], p=[[1]], m=0)


@pytest.mark.parametrize(
    "field, value", [("m", True), ("m", 1.5), ("m", 2.0), ("m", "2"), ("n", False), ("n", 1.5)]
)
def test_defect_spec_rejects_non_integer_orders(field, value):
    with pytest.raises(DomainError):
        DefectSpec(t=[[1]], p=[[1]], **{"m": 1, field: value})


def test_defect_spec_accepts_numpy_integers():
    spec = DefectSpec(t=[[1]], p=[[1]], m=np.int64(3), n=np.int32(2))
    assert (spec.m, spec.n) == (3, 2)
    assert type(spec.m) is int and type(spec.n) is int


def test_defect_linear_in_weight():
    rng = philox(202)
    for _ in range(10):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        t = ginibre(rng, d)
        p, q = random_hermitian(rng, d), random_hermitian(rng, d)
        alpha, beta = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combined = defect(DefectSpec(t=t, p=alpha * p + beta * q, m=m)).delta
        separate = alpha * defect(DefectSpec(t=t, p=p, m=m)).delta + beta * defect(
            DefectSpec(t=t, p=q, m=m)
        ).delta
        scale = (1 + np.linalg.norm(p, 2) + np.linalg.norm(q, 2)) * (1 + np.linalg.norm(t, 2) ** 2) ** m
        assert np.linalg.norm(combined - separate, 2) <= 1e-10 * scale


def test_defect_unitary_conjugation_covariance():
    rng = philox(303)
    for trial in range(10):
        d = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        t = ginibre(rng, d)
        p = random_hermitian(rng, d)
        v = gen_haar_unitary(900 + trial, d)
        direct = defect(DefectSpec(t=v.conj().T @ t @ v, p=v.conj().T @ p @ v, m=m))
        pushed = v.conj().T @ defect(DefectSpec(t=t, p=p, m=m)).delta @ v
        scale = (1 + np.linalg.norm(p, 2)) * (1 + np.linalg.norm(t, 2) ** 2) ** m
        assert np.linalg.norm(direct.delta - pushed, 2) <= 1e-10 * scale
        assert direct.verdict.verdict == defect(DefectSpec(t=t, p=p, m=m)).verdict.verdict


def test_defect_delta_is_hermitian():
    rng = philox(404)
    t = ginibre(rng, 6)
    p = random_hermitian(rng, 6)
    delta = defect(DefectSpec(t=t, p=p, m=4)).delta
    assert np.linalg.norm(delta - delta.conj().T, 2) <= 1e-12


def defect_tilde(spec):
    """The sign-flipped defect (-1)^m delta, as the weight-decomposition verifier forms it."""
    return _tilde(defect(spec), spec.m)


def test_defect_tilde_even_matches_defect():
    rng = philox(505)
    t, p = ginibre(rng, 4), random_hermitian(rng, 4)
    plain = defect(DefectSpec(t=t, p=p, m=2))
    tilde = defect_tilde(DefectSpec(t=t, p=p, m=2))
    np.testing.assert_array_equal(plain.delta, tilde.delta)
    assert plain.verdict == tilde.verdict


def test_defect_tilde_odd_flips_sign():
    tilde = defect_tilde(DefectSpec(t=[[2]], p=[[1]], m=1))
    np.testing.assert_allclose(tilde.delta, [[3]])
    assert tilde.verdict.verdict == "PSD"
    # classification still describes the operator: [2] is 1-expansive
    assert tilde.classification == {"expansive"}
    unitary = defect_tilde(DefectSpec(t=gen_haar_unitary(3, 4), p=np.eye(4), m=3))
    assert unitary.verdict.verdict == "ZERO"


def test_is_p_isometric_examples():
    # classify reports whether T*PT = P as p_isometric
    u = gen_haar_unitary(7, 4)
    assert classify(u, np.eye(4), 1).p_isometric is True
    assert classify([[2]], [[1]], 1).p_isometric is False
    t = np.array([[1, 1], [0, 0]], dtype=complex)
    assert classify(t, gram_weight(t), 1).p_isometric is True


def test_is_p_isometric_rejects_indefinite_weight():
    # the P-isometry notion presumes a nonnegative weight: no answer otherwise
    assert classify(I2, [[0, 1], [1, 0]], 1).p_isometric is None


_MISMATCHED_SHAPES = pytest.mark.parametrize(
    "t, p, message",
    [
        (np.eye(2), np.eye(3), r"weight shape \(3, 3\) does not match operator shape \(2, 2\)"),
        (np.eye(3), I2, r"weight shape \(2, 2\) does not match operator shape \(3, 3\)"),
        (np.ones((2, 3)), I2, r"expected a square matrix, got shape \(2, 3\)"),
    ],
    ids=["larger-weight", "smaller-weight", "non-square-operator"],
)


@_MISMATCHED_SHAPES
def test_is_p_isometric_rejects_mismatched_shapes(t, p, message):
    # classify, which answers the P-isometry question, types a mismatch
    # before any product, not as numpy's matmul ValueError
    with pytest.raises(DimensionError, match=message):
        classify(t, p, 1)


@_MISMATCHED_SHAPES
def test_defect_spec_rejects_mismatched_shapes_as_is_p_isometric_does(t, p, message):
    # one squareness rule: the same DimensionError and message
    with pytest.raises(DimensionError, match=message):
        DefectSpec(t=t, p=p, m=1)


def is_mp_isometric(spec):
    """T is (m, P)-isometric: its order-m defect vanishes."""
    return defect(spec).verdict.verdict == "ZERO"


def test_is_mp_isometric_examples_and_monotonicity():
    u = gen_haar_unitary(9, 3)
    assert is_mp_isometric(DefectSpec(t=u, p=np.eye(3), m=2))
    assert not is_mp_isometric(DefectSpec(t=[[2]], p=[[1]], m=1))
    t = np.array([[1, 1], [0, 0]], dtype=complex)
    for m in (1, 2, 3):
        assert is_mp_isometric(DefectSpec(t=t, p=gram_weight(t), m=m))


def test_isometry_propagates_up_in_m():
    for stream in range(5):
        t = gen_coupled_kernel(60 + stream, 3, 2)
        p = gram_weight(t)
        held = False
        for m in range(1, 6):
            now = is_mp_isometric(DefectSpec(t=t, p=p, m=m))
            assert now or not held
            held = now
        assert held


def test_classify_scalar_alternation():
    report = classify([[2]], [[1]], m_max=2)
    assert [sorted(row.classes) for row in report.rows] == [["expansive"], ["contractive"]]
    assert report.rows[1].verdict.max_eig == pytest.approx(9.0)
    assert report.p_isometric is False
    assert report.operator_norm == pytest.approx(2.0)


def test_classify_unitary_all_isometric():
    report = classify(gen_haar_unitary(5, 3), np.eye(3), m_max=4)
    assert all("isometric" in row.classes for row in report.rows)


def test_classify_nilpotent_contractive():
    report = classify([[0, 1], [0, 0]], I2, m_max=1)
    row = report.rows[0]
    assert sorted(row.classes) == ["contractive"]
    assert row.verdict.verdict == "PSD"


def test_classify_report_json_shape():
    payload = classify([[2]], [[1]], m_max=2).to_json()
    assert {"rows", "p_isometric", "spectral"} <= set(payload)
    assert payload["rows"][0] == {
        "m": 1,
        "verdict": "NSD",
        "min_eig": -3.0,
        "max_eig": -3.0,
        "classes": ["expansive"],
    }


def test_power_spec_matches_explicit_power():
    rng = philox(707)
    t = ginibre(rng, 4)
    p = random_hermitian(rng, 4)
    via_spec = defect(DefectSpec(t=t, p=p, m=2, n=3)).delta
    explicit = defect(DefectSpec(t=np.linalg.matrix_power(t, 3), p=p, m=2)).delta
    np.testing.assert_allclose(via_spec, explicit, atol=1e-12)


def test_classify_order_guard_runs_before_any_defect(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("classify computed a defect before validating m_max")

    monkeypatch.setattr(expansivity_mod, "_defect_pass", forbidden)
    for m_max in (0, 63, True, 1.5, 3.0):
        with pytest.raises(DomainError):
            classify([[2]], [[1]], m_max=m_max)


def test_classify_gates_the_weight_once(monkeypatch):
    # the defect table and p_isometric share one Hermitian gate of P
    gates = []
    real = expansivity_mod._hermitian_gate

    def counting(a, tol):
        gates.append(None)
        return real(a, tol)

    monkeypatch.setattr(expansivity_mod, "_hermitian_gate", counting)
    # Hermitian within the gate, not exactly, so the gate does its full check
    report = classify(np.eye(2), [[2.0, 1e-14], [0.0, 1.0]], m_max=3)
    assert len(gates) == 1
    assert report.p_isometric is True


def assert_same_result(got, expected):
    """Bit-for-bit equality of two DefectResults."""
    assert got.delta.shape == expected.delta.shape
    assert got.delta.tobytes() == expected.delta.tobytes()
    assert got.verdict == expected.verdict
    assert got.classification == expected.classification


def series_fixtures():
    rng = philox(808)
    for d in (1, 4, 16, 64):
        t = 1.1 * ginibre(rng, d) / math.sqrt(d)
        yield DefectSpec(t=t, p=random_hermitian(rng, d), m=6)
        yield DefectSpec(t=t, p=gram_weight(t), m=5, n=2)
    u = gen_haar_unitary(811, 5)
    yield DefectSpec(t=u, p=np.eye(5), m=8)
    # a weight within the Hermiticity gate but not exactly self-adjoint, so
    # the pass symmetrizes it first
    h = random_hermitian(rng, 5)
    skew = ginibre(rng, 5)
    p = h + 1e-14 * (skew - skew.conj().T)
    assert not np.array_equal(p, p.conj().T)
    yield DefectSpec(t=ginibre(rng, 5), p=p, m=4)


@pytest.mark.parametrize("spec", list(series_fixtures()), ids=lambda s: f"d{s.t.shape[0]}-m{s.m}-n{s.n}")
def test_defect_series_matches_defect_bit_for_bit(spec):
    series = defect_series(spec)
    assert len(series) == spec.m
    for k, result in enumerate(series, start=1):
        single = defect(DefectSpec(t=spec.t, p=spec.p, m=k, n=spec.n))
        assert_same_result(result, single)
    assert_same_result(series[-1], defect(spec))


def test_defect_series_raises_at_the_first_failing_order():
    # the order-k defect of 1000 I against I is (1 - 1e6)^k I: finite at low
    # orders, beyond the float range from some order on
    t, p = 1000.0 * np.eye(3), np.eye(3)
    first = None
    for m in range(1, 63):
        try:
            defect(DefectSpec(t=t, p=p, m=m))
        except NumericalFailureError as exc:
            first, residuals = m, exc.residuals
            break
    assert first is not None and first > 2
    assert residuals == {"order": first}
    with pytest.raises(NumericalFailureError, match="defect overflows") as caught:
        defect_series(DefectSpec(t=t, p=p, m=62))
    assert caught.value.residuals == residuals
    with pytest.raises(NumericalFailureError, match="defect overflows") as caught:
        classify(t, p, m_max=62)
    assert caught.value.residuals == residuals


def reference_classify(t, p, m_max):
    """Per-order loop: one independent defect call per row."""
    rows = []
    for m in range(1, m_max + 1):
        result = defect(DefectSpec(t=t, p=p, m=m))
        rows.append(ClassificationRow(m, result.verdict, result.classification))
    t, p = np.asarray(t, dtype=complex), np.asarray(p, dtype=complex)
    p_isometric = None
    if _sign_verdict(_hermitian_gate(p, DEFAULT_TOL), DEFAULT_TOL).is_psd:
        residual = np.linalg.norm(t.conj().T @ p @ t - p, 2)
        p_isometric = bool(residual <= DEFAULT_TOL.rel_eps * (1.0 + np.linalg.norm(p, 2)))
    spectrum = np.linalg.eigvals(t)
    return ClassificationReport(
        rows=tuple(rows),
        p_isometric=p_isometric,
        operator_norm=float(np.linalg.norm(t, 2)),
        spectral_radius=float(np.max(np.abs(spectrum), initial=0.0)),
        eigenvalue_moduli=tuple(sorted((float(abs(z)) for z in spectrum), reverse=True)),
    )


def test_classify_matches_per_order_reference():
    rng = philox(1010)
    cases = [
        ([[2]], [[1]], 3),
        (gen_haar_unitary(12, 6), np.eye(6), 10),
        (1.2 * gen_haar_unitary(13, 6), np.eye(6), 10),
        ([[0, 1], [0, 0]], I2, 3),
    ]
    for d in (4, 16):
        t = ginibre(rng, d) / math.sqrt(d)
        cases.append((t, random_hermitian(rng, d), 8))
        cases.append((t, gram_weight(t), 8))
    for t, p, m_max in cases:
        got = json.dumps(classify(t, p, m_max).to_json(), sort_keys=True)
        expected = json.dumps(reference_classify(t, p, m_max).to_json(), sort_keys=True)
        assert got == expected


def test_defect_makes_no_linalg_norm_call(monkeypatch):
    rng = philox(1111)
    t = ginibre(rng, 4)
    spec = DefectSpec(t=t, p=gram_weight(t), m=3)

    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.norm called on the defect path")

    monkeypatch.setattr(np.linalg, "norm", forbidden)
    result = defect(spec)
    assert result.delta.shape == (4, 4)


@pytest.mark.parametrize(
    "t,p,m",
    [
        # the order-2 iterate -1e154 + 1e154 * (1e154 - 1) is finite, but it
        # overflows when added to its adjoint
        (np.diag([1e77, 1.0, 0.5]), np.eye(3), 2),
        # likewise at order 1: 1e154 - 1.5e308 is finite, twice it is not
        ([[math.sqrt(1.5e154)]], [[1e154]], 1),
        # T*PT rounds to inf although |T|^2 |P| rounds to the largest finite float
        ([[complex(-3.7420269360892266e119, 1.0497912805917645e120)]], [[1.4473138175090447e68]], 1),
        # the iterates overflow long before order 62
        (1000.0 * np.eye(2), I2, 62),
    ],
    ids=["infinite-threshold", "overflowing-defect", "nan-disagreement", "overflowing-terms"],
)
def test_defect_fails_closed_on_overflow(t, p, m):
    with pytest.raises(NumericalFailureError, match="defect overflows"):
        defect(DefectSpec(t=t, p=p, m=m))
    with pytest.raises(NumericalFailureError, match="defect overflows"):
        classify(t, p, m_max=m)


def test_overflowing_power_is_rejected_as_input():
    with pytest.raises(NumericalFailureError, match="power overflows"):
        defect(DefectSpec(t=[[1e200, 1.0], [0.0, 1.0]], p=I2, m=1, n=2))


@pytest.mark.parametrize(
    "t,n,message",
    [([[1e200, 1e200], [0.0, 0.0]], 2, "operator power overflows"), (np.diag([1e160, 1.0]), 1, "gram weight overflows")],
    ids=["power", "weight"],
)
def test_overflowing_gram_weight_is_a_numerical_failure(t, n, message):
    with pytest.raises(NumericalFailureError, match=message):
        gram_weight(t, n)


@pytest.mark.parametrize("n", [-1, -2, 1.0, 0.5, True, np.float64(2.0)])
@pytest.mark.parametrize("t", [np.diag([2.0, 4.0]), np.diag([1.0, 0.0])], ids=["invertible", "singular"])
def test_gram_weight_rejects_a_negative_or_non_integral_power(t, n):
    # numpy's matrix_power would form a power of the inverse (or fail to)
    with pytest.raises(DomainError, match="operator power must be"):
        gram_weight(t, n)


def test_gram_weight_of_power_zero_is_the_identity():
    np.testing.assert_array_equal(gram_weight(np.diag([1.0, 0.0]), 0), np.eye(2))
    np.testing.assert_array_equal(gram_weight(np.diag([2.0, 4.0]), np.int64(0)), np.eye(2))


def test_gram_weight_of_a_non_square_operator_is_a_dimension_error():
    with pytest.raises(DimensionError, match="expected a square matrix"):
        gram_weight(np.ones((2, 3)))


def test_defect_of_a_huge_operator_is_psd_in_defect_and_classify():
    # T = 1e8 G, P = I, m = 16: the defect's entries reach about 1e266
    rng = np.random.default_rng(3)
    g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
    t, p, m = 1e8 * g, np.eye(4), 16
    result = defect(DefectSpec(t=t, p=p, m=m))
    assert result.verdict.verdict == "PSD"
    row = classify(t, p, m_max=m).rows[-1]
    assert (row.m, row.verdict) == (m, result.verdict)


def exact_iterated_defect_verdict(t, m, tol=DEFAULT_TOL):
    """The verdict of the stored float matrix's exact order-m defect: the
    iterated map S -> S - T* S T from I in mpmath at 60 digits, its extreme
    eigenvalues judged by the library's own ZERO/PSD/NSD gate."""
    import mpmath

    with mpmath.workdps(60):
        tm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in t])
        delta = mpmath.eye(t.shape[0])
        for _ in range(m):
            delta = delta - tm.H * delta * tm
        w = mpmath.eighe(delta, eigvals_only=True)
        lo, hi = float(min(w)), float(max(w))
    thr = tol.gate(max(abs(lo), abs(hi), 1.0))
    psd, nsd = lo >= -thr, hi <= thr
    return "ZERO" if psd and nsd else "PSD" if psd else "NSD" if nsd else "INDEFINITE"


_UNCERTIFIED = pytest.mark.xfail(
    strict=True,
    reason="certified verdicts: the float64 sign cutoff ignores the rounding in forming delta, "
           "which grows like (1 + ||T||^2)^m",
)


@pytest.mark.parametrize(
    "s,m",
    [
        (100.0, 3),
        (100.0, 4),
        pytest.param(100.0, 5, marks=_UNCERTIFIED),
        pytest.param(1000.0, 3, marks=_UNCERTIFIED),
        pytest.param(1000.0, 4, marks=_UNCERTIFIED),
        pytest.param(1000.0, 5, marks=_UNCERTIFIED),
    ],
)
def test_three_isometry_verdict_matches_the_exact_defect_of_the_stored_input(s, m):
    # T = V (I + N) V* with N = s e1 e4^T is a 3-isometry: its ideal defects
    # vanish from order 3 on, but the stored matrix's exact ones at orders
    # 3 and 4 do not, so the reference is the stored input's, not the ideal's
    v = gen_haar_unitary(4, 4)
    n = np.zeros((4, 4))
    n[0, 3] = s
    t = v @ (np.eye(4) + n) @ v.conj().T
    got = defect(DefectSpec(t=t, p=np.eye(4), m=m)).verdict.verdict
    assert got == exact_iterated_defect_verdict(t, m)
