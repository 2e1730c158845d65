"""Tests for the seeded fixture families: determinism, premise certification,
and the structural properties each family promises."""

import numpy as np
import pytest

from oplab import (
    DefectSpec,
    GenSpec,
    PreconditionError,
    defect,
    drazin_index,
    drazin_inverse,
    gen_coupled_kernel,
    gen_drazin_pair,
    gen_expansive_invertible,
    gen_haar_unitary,
    gen_nilpotent,
    gen_psd,
    generate,
    gram_weight,
    operator_norm,
)
from oplab.generators import GENERATOR_VERSION, GenerationError, _orthonormalize

from conftest import ginibre, philox


def mgs2(a):
    """Two-pass modified Gram-Schmidt, the kernel of generator version 1."""
    q = a.astype(np.complex128, copy=True)
    for j in range(q.shape[1]):
        v = q[:, j].copy()
        for _ in range(2):
            for i in range(j):
                v -= q[:, i] * np.sum(np.conjugate(q[:, i]) * v)
        q[:, j] = v / np.sqrt(np.sum(np.abs(v) ** 2).real)
    return q


def test_haar_unitary_scalar_is_unimodular():
    u = gen_haar_unitary(1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-14


def test_haar_unitary_is_unitary():
    for seed in range(5):
        d = 2 + seed
        u = gen_haar_unitary(seed, d)
        assert operator_norm(u.conj().T @ u - np.eye(d)) <= 1e-12


def test_haar_unitary_deterministic():
    a = gen_haar_unitary(42, 4)
    b = gen_haar_unitary(42, 4)
    assert np.array_equal(a, b)
    c = gen_haar_unitary(42, 4, stream=1)
    assert not np.array_equal(a, c)


def test_genspec_reproduces_bit_identical():
    spec = GenSpec(9, "coupled_kernel", (3, 2), stream=5, params={"x_scale": 1.5})
    first = generate(spec)["t"]
    second = generate(GenSpec.from_json(spec.to_json()))["t"]
    assert np.array_equal(first, second)


def test_nilpotent_index_one_is_zero_matrix():
    np.testing.assert_allclose(gen_nilpotent(3, 3, index=1), np.zeros((3, 3)))


def test_nilpotent_exact_index():
    for seed, d, index in [(1, 2, 2), (2, 5, 3), (3, 6, 6), (4, 4, 2)]:
        n = gen_nilpotent(seed, d, index)
        assert operator_norm(np.linalg.matrix_power(n, index)) <= 1e-10
        if index > 1:
            assert operator_norm(np.linalg.matrix_power(n, index - 1)) > 1e-3
        np.testing.assert_allclose(drazin_inverse(n), np.zeros((d, d)), atol=1e-10)


def test_nilpotent_rejects_bad_index():
    with pytest.raises(PreconditionError):
        gen_nilpotent(1, 3, index=4)


def test_psd_verdict_and_condition():
    from oplab import definiteness

    for seed, cap in [(1, 1.0), (2, 10.0), (3, 1e4)]:
        p = gen_psd(seed, 5, condition_cap=cap)
        assert definiteness(p).is_psd
        eigs = np.linalg.eigvalsh(p)
        assert eigs[-1] / eigs[0] <= cap * (1 + 1e-9)
    np.testing.assert_allclose(gen_psd(4, 3, condition_cap=1.0), np.eye(3), atol=1e-12)


def test_drazin_pair_structure():
    for seed in range(4):
        t, p = gen_drazin_pair(seed, 3, 2, m=2)
        result = defect(DefectSpec(t=t, p=p, m=2))
        assert "expansive" in result.classification
        assert operator_norm(result.delta) <= 1e-10
        # block structure: weight supported on the invertible summand
        np.testing.assert_allclose(p[3:, :], np.zeros((2, 5)), atol=1e-15)
        assert drazin_index(t) >= 1


def test_drazin_pair_index_matches_nilpotent_block():
    t, _ = gen_drazin_pair(11, 2, 3, m=1, nil_index=3)
    assert drazin_index(t) == 3
    t, _ = gen_drazin_pair(12, 2, 3, m=1, nil_index=1)
    assert drazin_index(t) == 1


def test_drazin_pair_scalar_blocks():
    t, p = gen_drazin_pair(13, 1, 1, m=1)
    assert abs(abs(t[0, 0]) - 1.0) <= 1e-12
    assert t[1, 1] == 0
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)


def test_drazin_pair_commuting_weight():
    t, p = gen_drazin_pair(14, 3, 2, m=3, weight="commuting")
    u = t[:3, :3]
    p11 = p[:3, :3]
    assert operator_norm(u.conj().T @ p11 @ u - p11) <= 1e-10
    result = defect(DefectSpec(t=t, p=p, m=3))
    assert operator_norm(result.delta) <= 1e-10


def test_coupled_kernel_gram_stability():
    # the family's defining property: all powers share one Gram matrix
    for seed in range(4):
        t = gen_coupled_kernel(seed, 3, 2)
        p = gram_weight(t, 1)
        for j in (2, 3, 4):
            tj = np.linalg.matrix_power(t, j)
            assert operator_norm(tj.conj().T @ tj - p) <= 1e-10 * (1 + operator_norm(p))
        for m in (1, 2, 3, 4):
            assert defect(DefectSpec(t=t, p=p, m=m)).verdict.verdict == "ZERO"


def test_coupled_kernel_zero_coupling_decouples():
    t = gen_coupled_kernel(5, 3, 2, x_scale=0.0)
    np.testing.assert_allclose(t[:3, 3:], np.zeros((3, 2)), atol=1e-15)
    np.testing.assert_allclose(t[3:, :], np.zeros((2, 5)), atol=1e-15)


def test_expansive_invertible_certified():
    for seed in range(4):
        for m in (1, 3):
            t = gen_expansive_invertible(seed, 4, m)
            assert float(np.linalg.svd(t, compute_uv=False)[-1]) >= 1.0
            result = defect(DefectSpec(t=t, p=np.eye(4), m=m))
            assert "expansive" in result.classification


def test_expansive_invertible_unitary_cases():
    t = gen_expansive_invertible(7, 3, 2, scale=1.0, perturbation=0.0)
    assert operator_norm(t.conj().T @ t - np.eye(3)) <= 1e-12
    with pytest.raises(PreconditionError):
        gen_expansive_invertible(7, 3, 2)
    with pytest.raises(PreconditionError):
        gen_expansive_invertible(7, 3, 1, scale=0.5)


def test_genspec_validation():
    with pytest.raises(PreconditionError):
        GenSpec(-1, "haar_unitary", (2,))
    with pytest.raises(PreconditionError):
        GenSpec(1, "unknown_family", (2,))


@pytest.mark.parametrize(
    "args",
    [
        (1.5, "haar_unitary", (2,)),
        (True, "haar_unitary", (2,)),
        (1, "haar_unitary", (2,), 0.5),
        (1, "haar_unitary", (2,), False),
        (1, "haar_unitary", (2,), 0, None),
        (1, "haar_unitary", (2,), 0, "index"),
        (1, "haar_unitary", ("x",)),
        (1, "haar_unitary", (2.0,)),
        (1, "haar_unitary", (True,)),
        (1, "haar_unitary", 3),
        (1, "haar_unitary", None),
        (1, "nilpotent", (3,), 0, {"index": "x"}),
        (1, "nilpotent", (3,), 0, {"index": 2.0}),
        (1, "nilpotent", (3,), 0, {"index": True}),
        (1, "drazin_pair", (2, 2), 0, {"m": "1"}),
        (1, "drazin_pair", (2, 2), 0, {"nil_index": 1.5}),
        (1, "drazin_pair", (2, 2), 0, {"weight": 1}),
        (1, "expansive_invertible", (3,), 0, {"m": 1.0}),
        (1, "psd", (3,), 0, {"condition_cap": "4"}),
        (1, "coupled_kernel", (2, 2), 0, {"x_scale": None}),
    ],
)
def test_genspec_rejects_mistyped_fields(args):
    with pytest.raises(PreconditionError):
        GenSpec(*args)


def test_genspec_accepts_numpy_integers():
    spec = GenSpec(np.uint64(3), "nilpotent", (np.int64(3),), np.int32(1), {"index": 2})
    assert spec == GenSpec(3, "nilpotent", (3,), 1, {"index": 2})
    assert spec.to_json()["seed"] == 3 and type(spec.to_json()["seed"]) is int


@pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 128])
def test_orthonormalize_is_the_positive_diagonal_qr_factor(d):
    a = ginibre(philox(d), d)
    q = _orthonormalize(a)
    assert operator_norm(q.conj().T @ q - np.eye(d)) <= 1e-12
    # Q*A = R is upper triangular with a positive real diagonal
    r = q.conj().T @ a
    scale = operator_norm(a)
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12 * scale
    assert (r.diagonal().real > 0).all()
    assert np.abs(r.diagonal().imag).max() <= 1e-12 * scale
    assert np.abs(q - mgs2(a)).max() <= 1e-13
    assert np.array_equal(gen_haar_unitary(d, d), gen_haar_unitary(d, d))


@pytest.mark.parametrize("column", [0, 2])
def test_orthonormalize_rejects_a_zero_column(column):
    a = ginibre(philox(3), 4)
    a[:, column] = 0.0
    with pytest.raises(GenerationError, match="degenerate"):
        _orthonormalize(a)


def test_genspec_records_the_generator_version():
    spec = GenSpec(9, "nilpotent", (3,), stream=2, params={"index": 2})
    payload = spec.to_json()
    assert payload["generator_version"] == GENERATOR_VERSION == 2
    assert GenSpec.from_json(payload) == spec
    for version in (1, 3):
        with pytest.raises(PreconditionError, match="generator version"):
            GenSpec.from_json(dict(payload, generator_version=version))
    # a spec written before the version was recorded is version 1
    legacy = {key: value for key, value in payload.items() if key != "generator_version"}
    with pytest.raises(PreconditionError, match="generator version 1"):
        GenSpec.from_json(legacy)


@pytest.mark.parametrize(
    "family,dims,params",
    [
        ("haar_unitary", (2, 3), {}),
        ("psd", (), {}),
        ("expansive_invertible", (4, 4), {}),
        ("drazin_pair", (3,), {}),
        ("coupled_kernel", (3, 2, 1), {}),
        ("nilpotent", (3, 3), {"index": 2}),
        ("nilpotent", (3,), {}),
    ],
)
def test_genspec_rejects_a_malformed_family_signature(family, dims, params):
    with pytest.raises(PreconditionError, match=family):
        GenSpec(1, family, dims, params=params)
