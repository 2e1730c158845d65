"""Tests for defect operators, their classification, and the weighted
seminorm."""

import json
import math

import numpy as np
import pytest

import oplab.expansivity as expansivity_mod
from oplab import (
    DefectSpec,
    DomainError,
    HermitianError,
    NumericalFailureError,
    Tolerance,
    classify,
    defect,
    defect_series,
    defect_tilde,
    eigenvalues,
    gram_weight,
    is_mp_isometric,
    is_p_isometric,
    operator_norm,
    seminorm_p,
    spectral_radius,
    sqrt_psd,
)
from oplab.expansivity import ClassificationReport, ClassificationRow
from oplab.generators import gen_coupled_kernel, gen_haar_unitary, gen_psd

from conftest import ginibre, philox, random_hermitian

I2 = np.eye(2)


def brute_defect(t, p, m):
    """Independent oracle: the alternating binomial sum, term by term."""
    t = np.asarray(t, dtype=complex)
    acc = np.zeros_like(np.asarray(p, dtype=complex))
    for j in range(m + 1):
        tj = np.linalg.matrix_power(t, j)
        acc += (-1) ** j * math.comb(m, j) * (tj.conj().T @ p @ tj)
    return acc


def test_scalar_defect_example():
    result = defect(DefectSpec(t=[[2]], p=[[1]], m=1))
    np.testing.assert_allclose(result.delta, [[-3]])
    assert result.verdict.verdict == "NSD"
    assert result.classification == {"expansive"}


def test_unitary_collapse_all_classes():
    for m in (1, 2, 3, 5):
        u = gen_haar_unitary(40 + m, 5)
        result = defect(DefectSpec(t=u, p=np.eye(5), m=m))
        assert operator_norm(result.delta) <= 1e-10
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
        expected = brute_defect(t, p, m)
        got = defect(DefectSpec(t=t, p=p, m=m)).delta
        scale = (1 + operator_norm(p)) * (1 + operator_norm(t) ** 2) ** m
        assert operator_norm(got - expected) <= 1e-12 * scale


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
        scale = (1 + operator_norm(p) + operator_norm(q)) * (1 + operator_norm(t) ** 2) ** m
        assert operator_norm(combined - separate) <= 1e-10 * scale


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
        scale = (1 + operator_norm(p)) * (1 + operator_norm(t) ** 2) ** m
        assert operator_norm(direct.delta - pushed) <= 1e-10 * scale
        assert direct.verdict.verdict == defect(DefectSpec(t=t, p=p, m=m)).verdict.verdict


def test_defect_delta_is_hermitian():
    rng = philox(404)
    t = ginibre(rng, 6)
    p = random_hermitian(rng, 6)
    delta = defect(DefectSpec(t=t, p=p, m=4)).delta
    assert operator_norm(delta - delta.conj().T) <= 1e-12


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
    u = gen_haar_unitary(7, 4)
    assert is_p_isometric(u, np.eye(4))
    assert not is_p_isometric([[2]], [[1]])
    t = np.array([[1, 1], [0, 0]], dtype=complex)
    assert is_p_isometric(t, gram_weight(t))


def test_is_p_isometric_rejects_indefinite_weight():
    with pytest.raises(DomainError):
        is_p_isometric(I2, [[0, 1], [1, 0]])


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


def test_seminorm_examples():
    x = np.array([3.0, 4.0])
    assert seminorm_p(x, I2) == pytest.approx(5.0)
    assert seminorm_p([1.0, 1.0], np.diag([4.0, 0.0])) == pytest.approx(2.0)


def test_seminorm_two_sided_bounds():
    rng = philox(606)
    for trial in range(10):
        d = int(rng.integers(2, 7))
        p = gen_psd(700 + trial, d, condition_cap=50.0)
        x = ginibre(rng, d, 1).reshape(-1)
        value2 = seminorm_p(x, p) ** 2
        inv_root = np.linalg.inv(sqrt_psd(p))
        lower = operator_norm(inv_root) ** -2 * float(np.linalg.norm(x)) ** 2
        upper = operator_norm(sqrt_psd(p)) ** 2 * float(np.linalg.norm(x)) ** 2
        assert lower - 1e-9 <= value2 <= upper + 1e-9


def test_seminorm_rejects_non_psd():
    with pytest.raises(DomainError):
        seminorm_p([1.0, 0.0], [[0, 1], [1, 0]])


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


def assert_same_result(got, expected):
    """Bit-for-bit equality of two DefectResults."""
    assert got.delta.shape == expected.delta.shape
    assert got.delta.tobytes() == expected.delta.tobytes()
    assert got.verdict == expected.verdict
    assert got.classification == expected.classification
    assert got.cross_check == expected.cross_check


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
    t = ginibre(philox(909), 6)
    p = random_hermitian(philox(910), 6)
    # no relative slack and a small absolute floor: the cross-check passes
    # at low orders and fails once the two constructions drift apart
    tol = Tolerance(rel_eps=0.0, abs_eps=1e-11)
    first = None
    for m in range(1, 13):
        try:
            defect(DefectSpec(t=t, p=p, m=m), tol)
        except NumericalFailureError as exc:
            first, residuals = m, exc.residuals
            break
    assert first is not None and first > 2
    with pytest.raises(NumericalFailureError) as caught:
        defect_series(DefectSpec(t=t, p=p, m=12), tol)
    assert caught.value.residuals == residuals
    with pytest.raises(NumericalFailureError) as caught:
        classify(t, p, m_max=12, tol=tol)
    assert caught.value.residuals == residuals


def reference_classify(t, p, m_max):
    """Per-order loop: one independent defect call per row."""
    rows = []
    for m in range(1, m_max + 1):
        result = defect(DefectSpec(t=t, p=p, m=m))
        rows.append(ClassificationRow(m, result.verdict, result.classification))
    try:
        p_isometric = is_p_isometric(t, p)
    except DomainError:
        p_isometric = None
    return ClassificationReport(
        rows=tuple(rows),
        p_isometric=p_isometric,
        operator_norm=operator_norm(t),
        spectral_radius=spectral_radius(t),
        eigenvalue_moduli=tuple(sorted((float(abs(z)) for z in eigenvalues(t)), reverse=True)),
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
    "t,p,m,message",
    [
        # term scale 2 (1 + 1e154)^2 overflows: the threshold is inf, which any
        # disagreement would pass, and the defect itself overflows
        (np.diag([1e77, 1.0, 0.5]), np.eye(3), 2, "defect cross-check is not finite"),
        # a finite threshold whose defect still overflows when symmetrized
        ([[math.sqrt(1.5e154)]], [[1e154]], 1, "defect overflows"),
        # T*PT rounds to inf while the term scale rounds to the largest finite
        # float: both constructions hold inf, and their difference is NaN
        ([[complex(-3.7420269360892266e119, 1.0497912805917645e120)]], [[1.4473138175090447e68]], 1,
         "defect cross-check is not finite"),
        # terms overflow long before order 62, and their difference is NaN
        (1000.0 * np.eye(2), I2, 62, "defect cross-check is not finite"),
    ],
    ids=["infinite-threshold", "overflowing-defect", "nan-disagreement", "overflowing-terms"],
)
def test_defect_fails_closed_on_overflow(t, p, m, message):
    with pytest.raises(NumericalFailureError, match=message):
        defect(DefectSpec(t=t, p=p, m=m))
    with pytest.raises(NumericalFailureError, match=message):
        classify(t, p, m_max=m)


def test_overflowing_power_is_rejected_as_input():
    with pytest.raises(NumericalFailureError, match="power overflows"):
        defect(DefectSpec(t=[[1e200, 1.0], [0.0, 1.0]], p=I2, m=1, n=2))


def huge_ginibre_case():
    """T = 1e8 G, P = I, m = 16: a sum of squares of the order-16 difference
    (about 2e251) overflows, so the Frobenius norm must rescale."""
    rng = np.random.default_rng(3)
    g = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 2
    return 1e8 * g, np.eye(4), 16


def test_cross_check_survives_an_overflowing_sum_of_squares():
    t, p, m = huge_ginibre_case()
    result = defect(DefectSpec(t=t, p=p, m=m))
    assert result.verdict.verdict == "PSD"
    assert 1e250 < result.cross_check["disagreement"] <= result.cross_check["threshold"]
    row = classify(t, p, m_max=m).rows[-1]
    assert (row.m, row.verdict) == (m, result.verdict)


@pytest.mark.parametrize("spec", list(series_fixtures()), ids=lambda s: f"d{s.t.shape[0]}-m{s.m}-n{s.n}")
def test_cross_check_bounds_the_spectral_disagreement(spec, monkeypatch):
    norm_fro = expansivity_mod._norm_fro
    differences = []

    def recording_norm_fro(a):
        differences.append(a.copy())
        return norm_fro(a)

    monkeypatch.setattr(expansivity_mod, "_norm_fro", recording_norm_fro)
    series = defect_series(spec)
    assert len(differences) == len(series)
    for result, difference in zip(series, differences):
        spectral = float(np.linalg.norm(difference, 2))
        # equal in exact arithmetic at d = 1, where the roundings may differ
        slack = 2 * math.ulp(spectral) if spec.t.shape[0] == 1 else 0.0
        assert result.cross_check["disagreement"] >= spectral - slack


def test_cross_check_threshold_scales_with_the_weight_and_the_power():
    # term scale (1 + ||P||) (1 + ||T^n||^2)^m
    cases = [(DefectSpec(t=[[2]], p=[[3]], m=2), 4.0 * 5.0**2), (DefectSpec(t=[[2]], p=[[3]], m=1, n=2), 4.0 * 17.0)]
    for spec, scale in cases:
        cross_check = defect(spec).cross_check
        assert cross_check["term_scale"] == scale
        assert cross_check["threshold"] == Tolerance().gate(scale)
