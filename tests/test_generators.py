"""Tests for the seeded fixture families: determinism, premise certification,
and the structural properties each family promises."""

import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oplab.generators as generators
from oplab import (
    DefectSpec,
    GenSpec,
    OplabError,
    PreconditionError,
    core_nilpotent,
    defect,
    drazin_inverse,
    gen_coupled_kernel,
    gen_drazin_pair,
    gen_expansive_invertible,
    gen_haar_unitary,
    gen_nilpotent,
    gen_psd,
    generate,
    gram_weight,
)
from oplab.generators import _PARAM_KINDS, FAMILIES, GENERATOR_VERSION, GenerationError, _orthonormalize

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
        assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) <= 1e-12


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
        assert np.linalg.norm(np.linalg.matrix_power(n, index), 2) <= 1e-10
        if index > 1:
            assert np.linalg.norm(np.linalg.matrix_power(n, index - 1), 2) > 1e-3
        np.testing.assert_allclose(drazin_inverse(n), np.zeros((d, d)), atol=1e-10)


def test_nilpotent_rejects_bad_index():
    with pytest.raises(PreconditionError):
        gen_nilpotent(1, 3, index=4)


def test_psd_verdict_and_condition():
    for seed, cap in [(1, 1.0), (2, 10.0), (3, 1e4)]:
        p = gen_psd(seed, 5, condition_cap=cap)
        np.testing.assert_array_equal(p, p.conj().T)
        eigs = np.linalg.eigvalsh(p)
        assert eigs[0] > 0
        assert eigs[-1] / eigs[0] <= cap * (1 + 1e-9)
    np.testing.assert_allclose(gen_psd(4, 3, condition_cap=1.0), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("cap", [0.5, float("nan"), float("inf")])
def test_psd_rejects_a_cap_below_one_or_not_finite(cap):
    with pytest.raises(PreconditionError, match="condition cap"):
        gen_psd(1, 3, condition_cap=cap)


def test_drazin_pair_structure():
    for seed in range(4):
        t, p = gen_drazin_pair(seed, 3, 2, m=2)
        result = defect(DefectSpec(t=t, p=p, m=2))
        assert "expansive" in result.classification
        assert np.linalg.norm(result.delta, 2) <= 1e-10
        # block structure: weight supported on the invertible summand
        np.testing.assert_allclose(p[3:, :], np.zeros((2, 5)), atol=1e-15)
        assert core_nilpotent(t).index >= 1


def test_drazin_pair_index_matches_nilpotent_block():
    t, _ = gen_drazin_pair(11, 2, 3, m=1, nil_index=3)
    assert core_nilpotent(t).index == 3
    t, _ = gen_drazin_pair(12, 2, 3, m=1, nil_index=1)
    assert core_nilpotent(t).index == 1


def test_drazin_pair_scalar_blocks():
    t, p = gen_drazin_pair(13, 1, 1, m=1)
    assert abs(abs(t[0, 0]) - 1.0) <= 1e-12
    assert t[1, 1] == 0
    np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-15)


def test_drazin_pair_commuting_weight():
    t, p = gen_drazin_pair(14, 3, 2, m=3, weight="commuting")
    u = t[:3, :3]
    p11 = p[:3, :3]
    assert np.linalg.norm(u.conj().T @ p11 @ u - p11, 2) <= 1e-10
    result = defect(DefectSpec(t=t, p=p, m=3))
    assert np.linalg.norm(result.delta, 2) <= 1e-10


def test_coupled_kernel_gram_stability():
    # the family's defining property: all powers share one Gram matrix
    for seed in range(4):
        t = gen_coupled_kernel(seed, 3, 2)
        p = gram_weight(t, 1)
        for j in (2, 3, 4):
            tj = np.linalg.matrix_power(t, j)
            assert np.linalg.norm(tj.conj().T @ tj - p, 2) <= 1e-10 * (1 + np.linalg.norm(p, 2))
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
    assert np.linalg.norm(t.conj().T @ t - np.eye(3), 2) <= 1e-12
    with pytest.raises(PreconditionError):
        gen_expansive_invertible(7, 3, 2)
    with pytest.raises(PreconditionError):
        gen_expansive_invertible(7, 3, 1, scale=0.5)
    # an order below 1 certifies nothing, even with the unitary's scalings
    for m in (0, -1, -2):
        with pytest.raises(PreconditionError, match="order must be >= 1"):
            gen_expansive_invertible(7, 3, m, scale=1.0, perturbation=0.0)


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
        # a string that names no weight scheme
        (1, "drazin_pair", (2, 2), 0, {"weight": "other"}),
        (1, "drazin_pair", (2, 2), 0, {"weight": ""}),
        (1, "expansive_invertible", (3,), 0, {"m": 1.0}),
        (1, "psd", (3,), 0, {"condition_cap": "4"}),
        (1, "coupled_kernel", (2, 2), 0, {"x_scale": None}),
        # real params must be finite
        (1, "expansive_invertible", (3,), 0, {"scale": float("inf")}),
        (1, "expansive_invertible", (3,), 0, {"perturbation": float("nan")}),
        (1, "psd", (3,), 0, {"condition_cap": float("nan")}),
        (1, "psd", (3,), 0, {"condition_cap": float("inf")}),
        (1, "coupled_kernel", (2, 2), 0, {"x_scale": -np.inf}),
        (1, "coupled_kernel", (2, 2), 0, {"x_scale": 10**400}),
        # a param the family does not take
        (1, "coupled_kernel", (2, 2), 0, {"x_scael": 0.0}),
        (1, "haar_unitary", (2,), 0, {"index": 2}),
        (1, "psd", (2,), 0, {"m": 1}),
        (1, "drazin_pair", (2, 2), 0, {"stream": 1}),
        (1, "expansive_invertible", (2,), 0, {"tol": None}),
    ],
)
def test_genspec_rejects_mistyped_fields(args):
    with pytest.raises(PreconditionError):
        GenSpec(*args)


def test_genspec_accepts_numpy_integers():
    spec = GenSpec(np.uint64(3), "nilpotent", (np.int64(3),), np.int32(1), {"index": 2})
    assert spec == GenSpec(3, "nilpotent", (3,), 1, {"index": 2})
    assert spec.to_json()["seed"] == 3 and type(spec.to_json()["seed"]) is int


def test_equal_genspecs_hash_equal():
    spec = GenSpec(1, "haar_unitary", (2,))
    same = GenSpec(np.uint64(1), "haar_unitary", [np.int64(2)])
    assert hash(spec) == hash(same)
    nilpotent = GenSpec(9, "nilpotent", (3,), 2, {"index": 2})
    assert {spec, same, nilpotent} == {spec, nilpotent}
    assert {nilpotent: "x"}[GenSpec.from_json(nilpotent.to_json())] == "x"
    # params take part in equality, though not in the hash
    assert GenSpec(9, "nilpotent", (3,), 2, {"index": 3}) not in {nilpotent}


def test_genspec_stores_each_param_as_its_kind():
    spec = GenSpec(1, "expansive_invertible", (3,), 0, {"m": np.int64(3), "scale": 2, "perturbation": np.float32(0.5)})
    assert spec.params == {"m": 3, "scale": 2.0, "perturbation": 0.5}
    assert [type(value) for value in spec.params.values()] == [int, float, float]
    spec = GenSpec(1, "drazin_pair", (2, 2), 0, {"nil_index": np.int8(2), "weight": "commuting"})
    assert [type(value) for value in spec.params.values()] == [int, str]
    assert GenSpec(1, "drazin_pair", (2, 2), 0, {"nil_index": None}).params == {"nil_index": None}
    # an int-valued real draws the fixture of its float
    as_int = generate(GenSpec(1, "psd", (3,), 0, {"condition_cap": 4}))["p"]
    assert np.array_equal(as_int, gen_psd(1, 3, 4.0))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_table_matches_the_gen_signatures(name):
    family = FAMILIES[name]
    parameters = list(inspect.signature(getattr(generators, family.gen)).parameters.values())
    assert parameters[0].name == "seed"
    taken = [p for p in parameters[1 + family.arity:] if p.name != "stream"]
    assert tuple(p.name for p in taken) == family.params
    assert tuple(p.name for p in taken if p.default is inspect.Parameter.empty) == family.required
    assert set(family.params) <= set(_PARAM_KINDS)


_UNKNOWN_PARAM = "x_scael"
_PARAM_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.integers(-2, 6).map(np.int64),
    st.integers(),
    st.just(10**400),
    st.floats(-3.0, 3.0),
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.sampled_from(["identity", "commuting", "other"]),
)


def _spec_fields(name):
    family = FAMILIES[name]
    names = st.sampled_from(sorted(_PARAM_KINDS) + [_UNKNOWN_PARAM])
    if family.params:
        names = st.one_of(st.sampled_from(family.params), names)
    return st.tuples(
        st.just(name),
        st.lists(st.integers(1, 4), min_size=family.arity, max_size=family.arity),
        st.dictionaries(names, _PARAM_VALUES, max_size=3),
    )


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fields=st.sampled_from(sorted(FAMILIES)).flatmap(_spec_fields), seed=st.integers(0, 2**64 - 1))
# finite params whose fixture overflows
@example(fields=("expansive_invertible", [3], {"m": 3, "scale": 1e300, "perturbation": 1e300}), seed=1)
@example(fields=("expansive_invertible", [3], {"scale": 1.0, "perturbation": 1.7e308}), seed=1)
@example(fields=("coupled_kernel", [2, 2], {"x_scale": 1.7e308}), seed=1)
def test_a_spec_is_rejected_or_draws_its_named_finite_outputs(fields, seed):
    name, dims, params = fields
    try:
        spec = GenSpec(seed, name, dims, 0, params)
    except PreconditionError:
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            drawn = generate(spec)
        except OplabError:
            drawn = None
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if drawn is not None:
        assert tuple(drawn) == FAMILIES[name].outputs
        for matrix in drawn.values():
            assert matrix.dtype == np.complex128 and matrix.shape == (sum(dims),) * 2
            assert np.isfinite(matrix).all()


@pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 128])
def test_orthonormalize_is_the_positive_diagonal_qr_factor(d):
    a = ginibre(philox(d), d)
    q = _orthonormalize(a)
    assert np.linalg.norm(q.conj().T @ q - np.eye(d), 2) <= 1e-12
    # Q*A = R is upper triangular with a positive real diagonal
    r = q.conj().T @ a
    scale = np.linalg.norm(a, 2)
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-12 * scale
    assert (r.diagonal().real > 0).all()
    assert np.abs(r.diagonal().imag).max() <= 1e-12 * scale
    assert np.abs(q - mgs2(a)).max() <= 1e-13
    assert np.array_equal(gen_haar_unitary(d, d), gen_haar_unitary(d, d))


def test_haar_bits_do_not_depend_on_the_blas_thread_count():
    # LAPACK's QR runs on the BLAS pool, whose thread count moves the last
    # bits above some size (d = 128 on OpenBLAS 0.3.31); the benchmark's
    # suites reach d = 96, and up to there one and two threads agree
    draw = ("import hashlib; from oplab.generators import gen_haar_unitary; "
            "print([hashlib.sha256(gen_haar_unitary(3, d).tobytes()).hexdigest() for d in (4, 16, 64, 96)])")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(generators.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", draw], env=env, capture_output=True, text=True, check=True)
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@pytest.mark.parametrize("column", [0, 2])
def test_orthonormalize_rejects_a_zero_column(column):
    a = ginibre(philox(3), 4)
    a[:, column] = 0.0
    with pytest.raises(GenerationError, match="degenerate"):
        _orthonormalize(a)


def test_genspec_records_the_generator_version():
    spec = GenSpec(9, "nilpotent", (3,), stream=2, params={"index": 2})
    payload = spec.to_json()
    assert payload["generator_version"] == GENERATOR_VERSION == 3
    assert GenSpec.from_json(payload) == spec
    for version in (1, 2, 4):
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
