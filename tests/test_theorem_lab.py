"""Tests for the theorem verifiers: spec'd concrete instances, vacuity
behavior, and witness content."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplab import (
    DomainError,
    NumericalFailureError,
    PreconditionError,
    block_compose,
    build_transform_bundle,
    classify,
    defect,
    DefectSpec,
    drazin_residuals,
    gen_coupled_kernel,
    gen_drazin_pair,
    gen_expansive_invertible,
    gen_haar_unitary,
    gen_nilpotent,
    gram_weight,
    operator_norm,
    spectral_constraints,
    verify_no_singular_expansive,
    verify_power_stability,
    verify_sandwich_isometry,
    verify_transform_bundle,
    verify_two_expansive_isometry,
    verify_unitary_nilpotent_structure,
    verify_weight_decomposition,
)
import oplab.generators as generators
import oplab.matrix_core as matrix_core
import oplab.theorem_lab as theorem_lab
from oplab.matrix_core import DEFAULT_TOL
from oplab.theorem_lab import _nilpotency_index

from conftest import patch_everywhere

I2 = np.eye(2)
IDEMPOTENT = np.array([[1, 1], [0, 0]], dtype=complex)


def u_plus_zero(seed, d1, d2):
    u = gen_haar_unitary(seed, d1)
    return block_compose([[u, np.zeros((d1, d2))], [np.zeros((d2, d1)), np.zeros((d2, d2))]])


def test_power_stability_unitary():
    v = verify_power_stability(gen_haar_unitary(1, 3), np.eye(3), m=2, n_max=5)
    assert v.premises_met and v.holds


def test_power_stability_scalar():
    v = verify_power_stability([[2]], [[1]], m=1, n_max=4)
    assert v.premises_met and v.holds
    assert len(v.witness["powers"]) == 3


def test_power_stability_idempotent_family():
    v = verify_power_stability(IDEMPOTENT, gram_weight(IDEMPOTENT), m=2, n_max=4)
    assert v.premises_met and v.holds


def test_power_stability_vacuous_when_not_expansive():
    v = verify_power_stability([[0.5]], [[1]], m=1, n_max=3)
    assert not v.premises_met and v.witness["vacuous"]


def test_power_stability_requires_n_max():
    with pytest.raises(PreconditionError):
        verify_power_stability([[2]], [[1]], m=1, n_max=1)


def test_no_singular_expansive_oblique_example():
    # T*T = [[1,1],[1,1]] by direct multiplication, so I - T*T = [[0,-1],[-1,0]]
    # with eigenvalues -1 and +1: mixed sign, hence not expansive.
    v = verify_no_singular_expansive(IDEMPOTENT, 1)
    assert v.premises_met and v.holds
    verdict = v.witness["identity_defect"]
    assert verdict["verdict"] == "INDEFINITE"
    assert verdict["min_eig"] == pytest.approx(-1.0)
    assert verdict["max_eig"] == pytest.approx(1.0)


def test_no_singular_expansive_nilpotent():
    v = verify_no_singular_expansive([[0, 1], [0, 0]], 2)
    assert v.premises_met and v.holds
    verdict = v.witness["identity_defect"]
    assert verdict["verdict"] == "INDEFINITE"


def test_no_singular_expansive_vacuous_on_unitary():
    v = verify_no_singular_expansive(gen_haar_unitary(2, 4), 2)
    assert not v.premises_met and v.holds


def test_weight_decomposition_scalar_example():
    v = verify_weight_decomposition([[2]], [[0]], np.diag([1.0, 0.0]), m=1)
    assert v.premises_met and v.holds
    assert v.witness["forward_applicable"] and v.witness["reverse_applicable"]
    # Drazin inverse is 1/2 (+) 0 and its flipped defect is -3/4 on the support
    assert v.witness["drazin_tilde_verdict"]["min_eig"] == pytest.approx(-0.75)


def test_weight_decomposition_block_fixture_both_directions():
    t, p = gen_drazin_pair(5, 3, 2, m=2)
    v = verify_weight_decomposition(t[:3, :3], t[3:, 3:], p, m=2)
    assert v.premises_met and v.holds
    assert v.witness["chain_anchor_nsd"]


def test_weight_decomposition_full_identity_weight_vacuous():
    t, _ = gen_drazin_pair(6, 2, 2, m=1)
    v = verify_weight_decomposition(t[:2, :2], t[2:, 2:], np.eye(4), m=1)
    assert not v.premises_met
    assert not v.witness["forward_applicable"]
    assert not v.witness["reverse_applicable"]


def test_weight_decomposition_empty_invertible_block():
    # purely nilpotent operator: the only admissible PSD weight is zero
    n = gen_nilpotent(3, 2, index=2)
    empty = np.zeros((0, 0), dtype=complex)
    v = verify_weight_decomposition(empty, n, np.eye(2), m=1)
    assert not v.premises_met  # identity weight is entirely off-support
    v = verify_weight_decomposition(empty, n, np.zeros((2, 2)), m=1)
    assert v.premises_met and v.holds


def test_weight_decomposition_rejects_bad_blocks():
    with pytest.raises(PreconditionError):
        verify_weight_decomposition([[0]], [[0]], np.diag([1.0, 0.0]), m=1)  # singular t1
    with pytest.raises(PreconditionError):
        verify_weight_decomposition([[1]], [[1]], np.diag([1.0, 0.0]), m=1)  # t2 not nilpotent


def test_weight_decomposition_overflowing_nilpotent_power_is_typed():
    # t2^2 ~ 1e400 overflows while the nilpotency index is sought: a typed
    # error, with no numpy overflow warning (an error under the test filter)
    t2 = 1e200 * gen_nilpotent(1, 3, 3)
    with pytest.raises(NumericalFailureError, match=r"operator power overflows: \{'power': 2\}"):
        verify_weight_decomposition([[2.0]], t2, np.diag([1.0, 0.0, 0.0, 0.0]), m=1)


def test_weight_decomposition_overflowing_chain_anchor_is_typed():
    # t2 = 1e100 N, N the 3x3 shift: t2^2 ~ 1e200 is finite, but the anchor
    # t2^{*2} P22 t2^2 ~ 1e400 is not, and it must not be decided as INDEFINITE
    t2 = np.diag([1e100, 1e100], k=1)
    with pytest.raises(NumericalFailureError, match=r"chain anchor overflows: \{'power': 2\}"):
        verify_weight_decomposition(I2, t2, np.eye(5), m=1)


def _block_drazin_pairs():
    yield gen_drazin_pair(5, 3, 2, m=2), 3
    yield gen_drazin_pair(2, 16, 8, m=1), 16
    yield gen_drazin_pair(1, 4, 30, m=1, nil_index=30), 4


@pytest.mark.parametrize("case", range(3))
def test_weight_decomposition_takes_the_drazin_inverse_from_its_blocks(monkeypatch, case):
    # T^D = t1^-1 (+) 0: it satisfies the three Drazin identities on the
    # composed T at the nilpotency index q of t2
    (t, p), d1 = list(_block_drazin_pairs())[case]
    inverses = []
    real = theorem_lab._block_drazin_inverse

    def keeping(*args):
        inverses.append(real(*args))
        return inverses[-1]

    monkeypatch.setattr(theorem_lab, "_block_drazin_inverse", keeping)
    v = verify_weight_decomposition(t[:d1, :d1], t[d1:, d1:], p, m=1)
    [td] = inverses
    d2 = t.shape[0] - d1
    expected = block_compose([[np.linalg.inv(t[:d1, :d1]), np.zeros((d1, d2))],
                              [np.zeros((d2, d1)), np.zeros((d2, d2))]])
    assert np.allclose(td, expected, rtol=0.0, atol=1e-12)
    assert not td[d1:].any() and not td[:, d1:].any()
    # ||T|| <= 1.5 and ||T^D|| = 1 here, and the residuals are about 1e-15
    assert max(drazin_residuals(t, td, v.witness["nilpotency_index"]).values()) <= 1e-13


def test_weight_decomposition_walks_only_the_nilpotent_block(monkeypatch):
    # one power walk per instance, of t2, and no pseudo-inverse or power of
    # the composed T
    t, p = gen_drazin_pair(2, 16, 8, m=1)
    t1, t2 = t[:16, :16], t[16:, 16:]
    walked, powers, pinvs = [], [], []

    def recording(calls, real):
        def call(a, *args):
            calls.append(a.shape)
            return real(a, *args)
        return call

    for name, calls in (("_power_walk", walked), ("_matrix_power", powers), ("_pinv", pinvs)):
        real = getattr(matrix_core, name)
        patch_everywhere(monkeypatch, real, recording(calls, real))
    v = verify_weight_decomposition(t1, t2, p, m=1)
    assert v.premises_met and v.holds
    assert walked == [t2.shape]
    assert pinvs == []
    assert powers == [t2.shape]  # the chain anchor's t2^(q-1)


@pytest.mark.parametrize("failure", ["inaccurate", "singular"])
def test_weight_decomposition_bad_block_inverse_is_typed(monkeypatch, failure):
    t, p = gen_drazin_pair(5, 3, 2, m=2)
    real = np.linalg.solve

    def bad_solve(a, b):
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return 1.01 * real(a, b)

    monkeypatch.setattr(np.linalg, "solve", bad_solve)
    with pytest.raises(NumericalFailureError, match=r"Drazin identities failed: \{'inverse': ") as caught:
        verify_weight_decomposition(t[:3, :3], t[3:, 3:], p, m=2)
    residual = caught.value.residuals["inverse"]
    assert residual == math.inf if failure == "singular" else 0.005 < residual < 0.02


def test_transform_bundle_overflowing_block_is_typed():
    # T = [[0, 1e200], [0, 0]]: the coupling X = 1e200 is finite, X*X is not
    with pytest.raises(NumericalFailureError, match=r"transform bundle overflows: \{'power': 1\}"):
        build_transform_bundle(np.diag([1e200], k=1), 1)


@pytest.mark.parametrize(
    "verify, kwargs, message",
    [
        (verify_power_stability, {"m": 1, "n_max": 2.5}, "n_max must be an integer, got 2.5"),
        (verify_power_stability, {"m": 1, "n_max": 3.0}, "n_max must be an integer, got 3.0"),
        (verify_power_stability, {"m": 1, "n_max": "3"}, "n_max must be an integer, got '3'"),
        (verify_sandwich_isometry, {"m": 2.0}, "defect order must be an integer, got 2.0"),
        (verify_sandwich_isometry, {"m": 2.5}, "defect order must be an integer, got 2.5"),
    ],
    ids=["n_max-fraction", "n_max-integral-float", "n_max-string", "m-integral-float", "m-fraction"],
)
def test_integer_params_reject_non_integers(verify, kwargs, message):
    # a param read back from a quarantine file reaches range() only as an int
    u = gen_haar_unitary(2, 3)
    with pytest.raises(DomainError, match=f"^{message}$"):
        verify(u, np.eye(3), **kwargs)


_RANGE = (DomainError, "defect order must be in [1, 62], got {}")
_INTEGRAL = (DomainError, "defect order must be an integer, got {}")

# every entry that takes a defect order, called with order m
_ORDER_ENTRIES = {
    "DefectSpec": lambda m: DefectSpec(t=I2, p=I2, m=m),
    "classify": lambda m: classify(I2, I2, m),
    "verify_power_stability": lambda m: verify_power_stability(I2, I2, m, 2),
    "verify_no_singular_expansive": lambda m: verify_no_singular_expansive(I2, m),
    "verify_weight_decomposition": lambda m: verify_weight_decomposition([[1]], [[0]], np.diag([1.0, 0.0]), m),
    "verify_sandwich_isometry": lambda m: verify_sandwich_isometry(I2, I2, m),
    "spectral_constraints": lambda m: spectral_constraints(I2, I2, m),
    "verify_transform_bundle": lambda m: verify_transform_bundle(I2, 1, m),
    "gen_drazin_pair": lambda m: gen_drazin_pair(1, 2, 2, m=m),
    "gen_expansive_invertible@2": lambda m: gen_expansive_invertible(1, 2, m=m, scale=1.5),
    "gen_expansive_invertible@64": lambda m: gen_expansive_invertible(1, 64, m=m, scale=1.5),
}
# the error of each rejected order; an order below 1 keeps the entry's own
# precondition where it has one
_ORDER_ERRORS = {0: _RANGE, 63: _RANGE, 2.5: _INTEGRAL, True: _INTEGRAL}
_ORDER_PRECONDITIONS = {
    ("verify_sandwich_isometry", 0): "order must be >= 2, got 0",
    ("gen_expansive_invertible@2", 0): "dimension and order must be >= 1, got d = 2, m = 0",
    ("gen_expansive_invertible@64", 0): "dimension and order must be >= 1, got d = 64, m = 0",
}


@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRIES))
@pytest.mark.parametrize("m", [0, 63, 2.5, True], ids=["zero", "above-max", "fraction", "bool"])
def test_every_order_taking_entry_rejects_a_bad_order(monkeypatch, entry, m):
    # one order rule, checked before any draw or product: at d = 64 the
    # generator used to spend its resampling budget and raise GenerationError
    def forbidden(*args):
        raise AssertionError("an order was used before it was checked")

    monkeypatch.setattr(generators, "_rng", forbidden)
    monkeypatch.setattr(theorem_lab, "_power_rank", forbidden)
    if (entry, m) in _ORDER_PRECONDITIONS:
        kind, message = PreconditionError, _ORDER_PRECONDITIONS[entry, m]
    else:
        kind, template = _ORDER_ERRORS[m]
        message = template.format(m)
    with pytest.raises(kind) as caught:
        _ORDER_ENTRIES[entry](m)
    assert (type(caught.value), str(caught.value)) == (kind, message)


_NEARLY_HERMITIAN = np.array([[1.0, 1e-14, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize(
    "verify, inputs",
    [
        (verify_power_stability, {"p": _NEARLY_HERMITIAN, "m": 1, "n_max": 3}),
        (verify_two_expansive_isometry, {"p": _NEARLY_HERMITIAN}),
        (verify_sandwich_isometry, {"p": _NEARLY_HERMITIAN, "m": 3}),
        (spectral_constraints, {"p": _NEARLY_HERMITIAN, "m": 2}),
        (verify_weight_decomposition, {"t2": np.zeros((1, 1)), "p": _NEARLY_HERMITIAN * [1, 1, 0], "m": 1}),
    ],
    ids=["power_stability", "two_expansive_isometry", "sandwich_isometry", "spectral_constraints",
         "weight_decomposition"],
)
def test_each_verifier_gates_its_weight_once(monkeypatch, verify, inputs):
    # P is Hermitian within the gate but not exactly, so the gate does its
    # full check; every defect of the verifier reuses its result
    gates = []
    real = matrix_core._hermitian_gate

    def counting(a, tol):
        gates.append(None)
        return real(a, tol)

    patch_everywhere(monkeypatch, real, counting)
    u = gen_haar_unitary(2, 2 if "t2" in inputs else 3)
    verdict = verify(u, **inputs)
    assert len(gates) == 1
    assert verdict.premises_met and verdict.holds


def _gated_nilpotency_index(x, tol=DEFAULT_TOL):
    """Reference: the smallest q with ||X^q|| <= g_q, where
    g_q = max(rel_eps * ||X|| * sum_{j<q} ||X^j|| ||X^{q-1-j}||, abs_eps),
    each power formed by numpy's matrix_power (repeated squaring from
    q = 4 on) rather than by one product from the last."""
    norms = [float(np.linalg.norm(np.linalg.matrix_power(x, j), 2)) for j in range(x.shape[0] + 1)]
    norms[0] = 1.0
    for q in range(1, x.shape[0] + 1):
        scale = norms[1] * sum(norms[j] * norms[q - 1 - j] for j in range(q))
        if norms[q] <= max(tol.rel_eps * scale, tol.abs_eps):
            return q
    return None


@pytest.mark.parametrize("seed", [1, 2])
def test_weight_decomposition_reports_the_nilpotency_index(seed):
    # the smallest q with t2^q = 0 at the gate g_q, which for a generated
    # nilpotent is its index
    u = gen_haar_unitary(seed, 2)
    for d in range(1, 9):
        p = block_compose([[np.eye(2), np.zeros((2, d))], [np.zeros((d, 2)), np.zeros((d, d))]])
        for index in range(1, d + 1):
            t2 = gen_nilpotent(seed, d, index)
            v = verify_weight_decomposition(u, t2, p, m=1)
            assert v.witness["nilpotency_index"] == _gated_nilpotency_index(t2) == index


@pytest.mark.parametrize("index", [32, 24])
def test_nilpotency_index_of_a_long_jordan_chain(index):
    # ||N|| ~ 1.5 while ||N^{index-1}|| is 0.02 (index 32) and 0.07 (index 24):
    # the gate must follow the error made in forming N^q, not grow like
    # (1 + ||N||)^q
    t2 = gen_nilpotent(1, 32, index)
    assert _nilpotency_index(t2, DEFAULT_TOL) == _gated_nilpotency_index(t2) == index


def test_two_expansive_isometry_unitary():
    u = gen_haar_unitary(7, 3)
    v = verify_two_expansive_isometry(u, np.eye(3))
    assert v.premises_met and v.holds


def test_two_expansive_isometry_block_fixture():
    t, p = gen_drazin_pair(8, 2, 2, m=2)
    v = verify_two_expansive_isometry(t, p)
    assert v.premises_met and v.holds
    assert v.witness["isometry_residual"] <= v.witness["threshold"]


def test_two_expansive_isometry_scalar_vacuous():
    v = verify_two_expansive_isometry([[2]], [[1]])
    assert not v.premises_met
    assert v.witness["defect_verdict"]["max_eig"] == pytest.approx(9.0)


def test_unitary_nilpotent_structure_examples():
    v = verify_unitary_nilpotent_structure(u_plus_zero(9, 3, 2))
    assert v.premises_met and v.holds
    v = verify_unitary_nilpotent_structure(gen_haar_unitary(10, 4))
    assert v.premises_met and v.holds
    assert v.witness["core_index"] == 0


def test_unitary_nilpotent_structure_scaled_vacuous():
    t = u_plus_zero(11, 2, 2)
    t = t.copy()
    t[:2, :2] *= 2.0  # invertible block 2U: defect of (2, T*T) is 36 I > 0 there
    v = verify_unitary_nilpotent_structure(t)
    assert not v.premises_met


def test_sandwich_isometry_examples():
    v = verify_sandwich_isometry(gen_haar_unitary(12, 3), np.eye(3), m=3)
    assert v.premises_met and v.holds
    t, p = gen_drazin_pair(13, 2, 2, m=2)
    v = verify_sandwich_isometry(t, p, m=2)
    assert v.premises_met and v.holds
    assert v.witness["middle_norm"] <= 1e-8
    v = verify_sandwich_isometry([[2]], [[1]], m=2)
    assert not v.premises_met


def test_sandwich_isometry_witness_matches_per_order_defects():
    t, p = gen_drazin_pair(14, 3, 2, m=3)
    cases = [(t, p), (gen_haar_unitary(15, 4), np.eye(4)), (gen_coupled_kernel(16, 3, 2), None)]
    for t, p in cases:
        p = gram_weight(t) if p is None else p
        for m in (2, 3, 4):
            witness = verify_sandwich_isometry(t, p, m=m).witness
            orders = {"upper_verdict": m, "middle_verdict": m - 1, "lower_verdict": m - 2}
            for key, order in orders.items():
                expected = defect(DefectSpec(t=t, p=p, m=order)).verdict.to_json() if order else None
                assert json.dumps(witness[key]) == json.dumps(expected)
            middle = defect(DefectSpec(t=t, p=p, m=m - 1))
            assert witness["middle_norm"] == operator_norm(middle.delta)


def test_sandwich_isometry_requires_m_at_least_two():
    with pytest.raises(PreconditionError):
        verify_sandwich_isometry([[1]], [[1]], m=1)


def test_spectral_constraints_examples():
    v = spectral_constraints(gen_haar_unitary(14, 4), np.eye(4), m=2)
    assert v.premises_met and v.holds
    v = spectral_constraints([[2]], [[1]], m=1)
    assert v.premises_met and v.holds
    v = spectral_constraints([[2, 0], [1, 2]], I2, m=1)
    assert v.premises_met and v.holds
    assert v.witness["eigenvalue_moduli"] == pytest.approx([2.0, 2.0])
    assert v.witness["operator_norm"] == pytest.approx(math.sqrt((9 + math.sqrt(17)) / 2))


def test_spectral_constraints_rejects_singular_weight():
    with pytest.raises(PreconditionError):
        spectral_constraints([[2]], [[0]], m=1)
    with pytest.raises(PreconditionError):
        spectral_constraints(I2, np.diag([1.0, 0.0]), m=1)


def test_transform_bundle_oblique_example():
    v = verify_transform_bundle(IDEMPOTENT, n=1, m=2)
    bundle = build_transform_bundle(IDEMPOTENT, n=1)
    assert v.premises_met and v.holds
    np.testing.assert_allclose(bundle.a, IDEMPOTENT, atol=1e-12)
    np.testing.assert_allclose(bundle.b, IDEMPOTENT, atol=1e-12)
    np.testing.assert_allclose(bundle.c, [[1, 1], [1, 1]], atol=1e-12)
    np.testing.assert_allclose(bundle.d, [[1, 1], [1, 1]], atol=1e-12)
    np.testing.assert_allclose(bundle.q, I2, atol=1e-12)
    assert not v.witness["side_condition_satisfied"]
    # and indeed the plain defect of B is indefinite, as the side condition warns
    plain_b = defect(DefectSpec(t=bundle.b, p=I2, m=2))
    assert plain_b.verdict.verdict == "INDEFINITE"


def test_transform_bundle_invertible_example():
    t = np.array([[2, 0], [1, 2]], dtype=complex)
    v = verify_transform_bundle(t, n=1, m=1)
    bundle = build_transform_bundle(t, n=1)
    assert v.premises_met and v.holds
    assert bundle.d2 == 0
    assert v.witness["side_condition_satisfied"]
    assert v.witness["b_identity_verdict"]["verdict"] in ("NSD", "ZERO")
    assert v.witness["a_equivalent_norm_verdict"]["verdict"] in ("NSD", "ZERO")


def test_transform_bundle_unitary_collapses():
    u = gen_haar_unitary(15, 3)
    v = verify_transform_bundle(u, n=2, m=3)
    bundle = build_transform_bundle(u, n=2)
    assert v.premises_met and v.holds
    assert v.witness["side_condition_satisfied"]
    assert operator_norm(bundle.q - np.eye(3)) <= 1e-10


def test_transform_bundle_coupled_kernel_fixture():
    t = gen_coupled_kernel(16, 3, 2)
    v = verify_transform_bundle(t, n=1, m=2)
    bundle = build_transform_bundle(t, n=1)
    assert v.premises_met and v.holds
    assert not v.witness["side_condition_satisfied"]
    assert max(bundle.identity_residuals().values()) <= v.witness["identity_threshold"]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    d1=st.integers(1, 5),
    d2=st.integers(1, 4),
    x_scale=st.floats(0.0, 2.0),
    n=st.integers(1, 2),
    m=st.integers(1, 4),
)
def test_transform_bundle_side_condition_fails_on_a_kernel(seed, d1, d2, x_scale, n, m):
    # [[I, X], [X*, X*X]] >= I forces X = 0 and d2 = 0, so with a kernel side
    # (d2 > 0) it never holds, whatever X is (x_scale = 0 included)
    t = gen_coupled_kernel(seed, d1, d2, x_scale=x_scale)
    v = verify_transform_bundle(t, n=n, m=m)
    assert v.witness["d2"] == d2
    assert not v.witness["side_condition_satisfied"]
    assert "b_identity_verdict" not in v.witness


def test_transform_bundle_nilpotent_vacuous_degenerate():
    n = gen_nilpotent(17, 3, index=2)
    v = verify_transform_bundle(n, n=2, m=1)
    bundle = build_transform_bundle(n, n=2)
    assert bundle.d1 == 0
    assert v.premises_met  # the zero weight makes the defect vanish
    assert v.holds


def test_transform_bundle_expansive_invertible():
    t = gen_expansive_invertible(18, 3, 1)
    v = verify_transform_bundle(t, n=1, m=1)
    assert v.premises_met and v.holds
    assert v.witness["side_condition_satisfied"]
