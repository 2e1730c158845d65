"""Tests for Drazin machinery, splittings, polar-type transforms and the
coupled-transform bundle."""

import warnings

import numpy as np
import pytest

from oplab import (
    DomainError,
    IllConditionedWarning,
    NumericalFailureError,
    Tolerance,
    aluthge,
    block_compose,
    build_transform_bundle,
    core_nilpotent,
    drazin_index,
    drazin_inverse,
    drazin_residuals,
    duggal,
    moore_penrose,
    numerical_rank,
    operator_norm,
    polar,
    range_kernel_split,
)
from oplab.generators import gen_coupled_kernel, gen_drazin_pair, gen_haar_unitary, gen_nilpotent, gen_psd

from conftest import ginibre, philox

IDEMPOTENT = np.array([[1, 1], [0, 0]], dtype=complex)


def oblique_core(seed: int, d1: int, d2: int, nil_index: int):
    """Closed-form oracle fixture: T = S (D (+) N) S^{-1} with invertible
    diagonal D and Jordan nilpotent N, so T_d = S (D^{-1} (+) 0) S^{-1}."""
    rng = philox(seed)
    moduli = rng.uniform(0.6, 2.0, size=d1)
    phases = np.exp(2j * np.pi * rng.uniform(size=d1))
    core = np.diag(moduli * phases)
    n = np.zeros((d2, d2), dtype=complex)
    for i in range(d2 - 1):
        if (i + 1) % nil_index != 0:
            n[i, i + 1] = rng.uniform(0.5, 1.5)
    d = d1 + d2
    s = np.eye(d, dtype=complex) + 0.3 * ginibre(rng, d)
    while np.linalg.cond(s) > 20:
        s = np.eye(d, dtype=complex) + 0.3 * ginibre(rng, d)
    s_inv = np.linalg.inv(s)
    blocks = [
        [core, np.zeros((d1, d2))],
        [np.zeros((d2, d1)), n],
    ]
    t = s @ block_compose(blocks) @ s_inv
    td_blocks = [
        [np.linalg.inv(core), np.zeros((d1, d2))],
        [np.zeros((d2, d1)), np.zeros((d2, d2))],
    ]
    return t, s @ block_compose(td_blocks) @ s_inv, nil_index


def test_drazin_index_warns_near_rank_cliff():
    from oplab import IllConditionedWarning

    with pytest.warns(IllConditionedWarning):
        drazin_index(np.diag([1.0, 3e-10, 0.0]))


def test_drazin_index_examples():
    rng = philox(1)
    invertible = ginibre(rng, 4) + 3 * np.eye(4)
    assert drazin_index(invertible) == 0
    assert drazin_index([[0, 1], [0, 0]]) == 2
    assert drazin_index(IDEMPOTENT) == 1


def test_drazin_inverse_invertible_is_inverse():
    rng = philox(2)
    a = ginibre(rng, 5) + 3 * np.eye(5)
    np.testing.assert_allclose(drazin_inverse(a), np.linalg.inv(a), atol=1e-10)


def test_drazin_inverse_nilpotent_is_zero():
    n = gen_nilpotent(3, 4, index=3)
    np.testing.assert_allclose(drazin_inverse(n), np.zeros((4, 4)), atol=1e-10)


def test_drazin_inverse_idempotent_satisfies_identities():
    # oracle: for idempotent T the three identities pin T_d = T
    td = drazin_inverse(IDEMPOTENT)
    np.testing.assert_allclose(td @ IDEMPOTENT, IDEMPOTENT @ td, atol=1e-12)
    np.testing.assert_allclose(td @ td @ IDEMPOTENT, td, atol=1e-12)
    np.testing.assert_allclose(IDEMPOTENT @ IDEMPOTENT @ td, IDEMPOTENT, atol=1e-12)
    np.testing.assert_allclose(td, IDEMPOTENT, atol=1e-10)


def test_drazin_closed_form_oracle():
    for seed, d1, d2, q in [(10, 2, 2, 2), (11, 3, 2, 1), (12, 1, 3, 3), (13, 4, 1, 1)]:
        t, expected, _ = oblique_core(seed, d1, d2, q)
        got = drazin_inverse(t)
        assert operator_norm(got - expected) <= 1e-8 * (1 + operator_norm(expected))


def test_drazin_residual_bounds_random_fixtures():
    rng = philox(4)
    for trial in range(20):
        d1 = int(rng.integers(1, 6))
        d2 = int(rng.integers(1, 5))
        u = gen_haar_unitary(100 + trial, d1)
        n = gen_nilpotent(200 + trial, d2, index=int(rng.integers(1, d2 + 1)))
        t = block_compose([[u, np.zeros((d1, d2))], [np.zeros((d2, d1)), n]])
        p = drazin_index(t)
        td = drazin_inverse(t)
        bound = 1e-8 * (1 + operator_norm(t) ** (2 * p + 1))
        assert max(drazin_residuals(t, td, p).values()) <= bound


def test_drazin_inverse_forms_each_power_once(monkeypatch):
    # the residuals reuse the inverse's T^k: T^2, T^5 and T^3 at index 2
    import oplab.decompositions as decompositions_mod

    powers = []
    real = decompositions_mod._matrix_power

    def counting(a, n):
        powers.append(n)
        return real(a, n)

    monkeypatch.setattr(decompositions_mod, "_matrix_power", counting)
    drazin_inverse(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert powers == [2, 5, 3]


def _index_30_pair():
    return gen_drazin_pair(1, 4, 30, m=1, nil_index=30)[0]


def test_drazin_identities_are_judged_at_their_factors_scale():
    import oplab.decompositions as decompositions_mod

    t = _index_30_pair()
    tol = Tolerance()
    step = decompositions_mod._power_rank(t, tol)
    assert step[0] == 30
    td, residuals = decompositions_mod._drazin_inverse(t, step, tol)
    assert max(residuals.values()) < 1e-12
    # an inverse 1e-3 off has residuals of about 1e-2, which the former gate
    # 1e3 * gate(1 + ||T||^61), about 4.7e3, passed
    tk = np.linalg.matrix_power(t, 30)
    wrong, _ = decompositions_mod._drazin_residuals(t, td + 1e-3, 30, tk)
    assert 1e-3 < max(wrong.values()) < 1e3 * tol.gate(1.0 + step[4] ** 61)


def test_a_wrong_drazin_inverse_exits_three(monkeypatch, capsys, tmp_path):
    import json

    import oplab.decompositions as decompositions_mod
    from oplab import matrix_to_json
    from oplab.cli import main

    real = decompositions_mod._pinv
    monkeypatch.setattr(decompositions_mod, "_pinv", lambda a, tol, rank=None: real(a, tol, rank) + 1e-3)
    t = _index_30_pair()
    with pytest.raises(NumericalFailureError, match="Drazin identities failed"):
        drazin_inverse(t)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(t)))
    assert main(["drazin", "--matrix", str(path)]) == 3
    assert "numerical failure: Drazin identities failed" in capsys.readouterr().err


def test_core_nilpotent_diagonal_example():
    core = core_nilpotent(np.diag([2.0, 0.0]))
    assert core.index == 1
    np.testing.assert_allclose(core.t1, [[2.0]])
    np.testing.assert_allclose(core.t2, [[0.0]])
    assert core.orthogonal


def test_core_nilpotent_block_diagonal_fixture():
    u = gen_haar_unitary(17, 3)
    n = gen_nilpotent(18, 2, index=2)
    t = block_compose([[u, np.zeros((3, 2))], [np.zeros((2, 3)), n]])
    core = core_nilpotent(t)
    assert core.index == 2
    assert core.orthogonal
    assert sorted(np.abs(np.linalg.eigvals(core.t1))) == pytest.approx(
        sorted(np.abs(np.linalg.eigvals(u))), abs=1e-10
    )
    assert operator_norm(np.linalg.matrix_power(core.t2, core.index)) <= 1e-10


def test_core_nilpotent_oblique_example():
    core = core_nilpotent(IDEMPOTENT)
    assert core.index == 1
    np.testing.assert_allclose(core.t1, [[1.0]], atol=1e-12)
    assert not core.orthogonal
    np.testing.assert_allclose(core.basis[:, 0], [1, 0], atol=1e-12)
    direction = core.basis[:, 1]
    np.testing.assert_allclose(direction / direction[0], [1, -1], atol=1e-12)


def test_core_nilpotent_reassembles():
    for seed, d1, d2, q in [(30, 2, 2, 2), (31, 3, 3, 2)]:
        t, _, _ = oblique_core(seed, d1, d2, q)
        core = core_nilpotent(t)
        d1, d2 = core.t1.shape[0], core.t2.shape[0]
        blocks = block_compose([[core.t1, np.zeros((d1, d2))], [np.zeros((d2, d1)), core.t2]])
        rebuilt = core.basis @ blocks @ np.linalg.inv(core.basis)
        assert operator_norm(rebuilt - t) <= 1e-8 * (1 + operator_norm(t))
        if core.t2.size:
            assert operator_norm(np.linalg.matrix_power(core.t2, core.index)) <= 1e-10


def test_range_kernel_split_example():
    split = range_kernel_split(IDEMPOTENT, 1)
    assert split.d1 == 1
    np.testing.assert_allclose(split.t1n, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(split.x, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(split.basis, np.eye(2), atol=1e-12)


def test_range_kernel_split_invertible_full():
    rng = philox(8)
    a = ginibre(rng, 4) + 3 * np.eye(4)
    split = range_kernel_split(a, 2)
    assert split.d1 == 4
    assert split.x.shape == (4, 0)
    assert split.t2.shape == (0, 0)


def test_range_kernel_split_nilpotent_collapses():
    n = gen_nilpotent(21, 3, index=2)
    split = range_kernel_split(n, 2)
    assert split.d1 == 0
    assert split.t1n.shape == (0, 0)
    assert operator_norm(np.linalg.matrix_power(split.t2, 2)) <= 1e-10


def test_range_kernel_split_basis_unitary_and_reconstructs():
    rng = philox(9)
    for trial in range(10):
        d = int(rng.integers(2, 8))
        n = int(rng.integers(1, 4))
        a = ginibre(rng, d)
        if trial % 2:
            a[:, : d // 2 + 1] = 0  # force singularity
        split = range_kernel_split(a, n)
        assert operator_norm(split.basis.conj().T @ split.basis - np.eye(d)) <= 1e-12
        an = np.linalg.matrix_power(a, n)
        d1, d2 = split.d1, d - split.d1
        power_grid = [[split.t1n, split.x], [np.zeros((d2, d1)), np.zeros((d2, d2))]]
        rebuilt = split.basis @ block_compose(power_grid) @ split.basis.conj().T
        assert operator_norm(rebuilt - an) <= 1e-9 * (1 + operator_norm(an))
        triangular_grid = [[split.t1, split.coupling], [np.zeros((d2, d1)), split.t2]]
        tri = split.basis @ block_compose(triangular_grid) @ split.basis.conj().T
        assert operator_norm(tri - a) <= 1e-9 * (1 + operator_norm(a))


def test_polar_examples():
    parts = polar([[2]])
    np.testing.assert_allclose(parts.u, [[1.0]])
    np.testing.assert_allclose(parts.p, [[2.0]])
    u = gen_haar_unitary(12, 4)
    parts = polar(u)
    np.testing.assert_allclose(parts.u, u, atol=1e-12)
    np.testing.assert_allclose(parts.p, np.eye(4), atol=1e-12)
    parts = polar([[0, 2], [0, 0]])
    np.testing.assert_allclose(parts.p, [[0, 0], [0, 2]], atol=1e-12)
    np.testing.assert_allclose(parts.u, [[0, 1], [0, 0]], atol=1e-12)
    np.testing.assert_allclose(parts.u.conj().T @ parts.u, np.diag([0.0, 1.0]), atol=1e-12)


def test_polar_reconstruction_and_partial_isometry():
    rng = philox(14)
    for trial in range(12):
        d = int(rng.integers(1, 8))
        a = ginibre(rng, d)
        if trial % 3 == 0 and d > 1:
            a[:, 0] = 0
        parts = polar(a)
        assert operator_norm(parts.u @ parts.p - a) <= 1e-10 * (1 + operator_norm(a))
        gram = parts.u.conj().T @ parts.u
        assert operator_norm(gram @ gram - gram) <= 1e-10
        assert operator_norm(gram - gram.conj().T) <= 1e-10


@pytest.mark.parametrize("entry", [1.7e308, 1.7e308j], ids=["real", "imaginary"])
def test_polar_factor_overflow_is_typed(entry):
    # |M| = [[1.7e308]] is finite, but its Hermitian part (A + A*) / 2 sums
    # past the float maximum
    with pytest.raises(NumericalFailureError, match="polar factor"):
        polar([[entry]])


def test_polar_near_the_float_maximum_is_still_computed():
    parts = polar([[8e307j]])
    np.testing.assert_allclose(parts.p, [[8e307]])
    np.testing.assert_allclose(parts.u, [[1j]])


def test_transforms_fix_normal_matrices():
    p = gen_psd(15, 4, condition_cap=10.0)
    np.testing.assert_allclose(aluthge(p), p, atol=1e-10)
    np.testing.assert_allclose(duggal(p), p, atol=1e-10)
    u = 2.0 * gen_haar_unitary(16, 3)
    np.testing.assert_allclose(aluthge(u), u, atol=1e-10)
    np.testing.assert_allclose(duggal(u), u, atol=1e-10)


def test_duggal_example_vanishes():
    np.testing.assert_allclose(duggal([[0, 2], [0, 0]]), np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(aluthge([[0, 2], [0, 0]]), np.zeros((2, 2)), atol=1e-12)


def test_transforms_preserve_spectrum_of_invertible():
    rng = philox(19)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        a = ginibre(rng, d) + 2.5 * np.eye(d)
        reference = np.sort_complex(np.linalg.eigvals(a))
        for transform in (aluthge, duggal):
            eigs = np.sort_complex(np.linalg.eigvals(transform(a)))
            assert float(np.max(np.abs(eigs - reference))) <= 1e-8 * (1 + operator_norm(a))


def test_split_rejects_bad_power():
    from oplab import PreconditionError

    with pytest.raises(PreconditionError):
        range_kernel_split(np.eye(2), 0)


@pytest.mark.parametrize("n", [1.5, 2.0, "2", True], ids=["fraction", "integral-float", "string", "bool"])
@pytest.mark.parametrize("build", [range_kernel_split, build_transform_bundle])
def test_split_rejects_a_non_integral_power_before_any_product(build, n):
    # the powers of a unitary never overflow, so a walk waiting for k == 1.5
    # would never end
    with pytest.raises(DomainError, match="power must be an integer"):
        build(gen_haar_unitary(1, 4), n)


def full_svd_drazin_index(t, tol=Tolerance()):
    """Reference: the rank loop on full SVDs (singular vectors discarded)."""
    a = np.asarray(t, dtype=complex)
    d = a.shape[0]
    rank_prev, power = d, np.eye(d, dtype=complex)
    for k in range(d + 1):
        power = power @ a
        s = np.linalg.svd(power)[1]
        rank = int(np.count_nonzero(s > max(tol.rel_eps * float(s[0]), tol.abs_eps)))
        if rank >= rank_prev:
            return k
        rank_prev = rank
    return d


def drazin_index_fixtures():
    for seed in range(6):
        for index in (1, 2, 4):
            yield f"nilpotent-{seed}-{index}", gen_nilpotent(seed, 5, index)
        yield f"drazin_pair-{seed}", gen_drazin_pair(seed, 4, 3, m=2)[0]
        yield f"coupled_kernel-{seed}", gen_coupled_kernel(seed, 4, 3)
    yield "idempotent", IDEMPOTENT
    yield "invertible", ginibre(philox(5), 4) + 3 * np.eye(4)


@pytest.mark.parametrize("name,t", list(drazin_index_fixtures()), ids=lambda x: x if isinstance(x, str) else "")
def test_drazin_index_matches_full_svd_rank_loop(name, t):
    assert drazin_index(t) == full_svd_drazin_index(t)


def test_drazin_index_warning_names_the_cutoff():
    from oplab import IllConditionedWarning

    with pytest.warns(IllConditionedWarning, match=r"within 10x of the rank cutoff 1\.000e-10") as caught:
        drazin_index(np.diag([1.0, 3e-10, 0.0]))
    # attributed to the caller of drazin_index, as before
    assert caught[0].filename == __file__


def test_range_kernel_split_gates_the_power_at_its_own_scale():
    # ||T^2|| ~ 3e12: the conjugated power's lower block is rounding noise of
    # about 5e-4, inside the gate rel_eps * (1 + ||T^2||) but far above abs_eps
    w = gen_haar_unitary(5, 8)
    t = 1e6 * (w @ gen_coupled_kernel(3, 4, 4) @ w.conj().T)
    split = range_kernel_split(t, 2)
    assert split.d1 == 4
    assert 1e-6 < split.residuals["power_lower"] <= Tolerance().gate(1.0 + operator_norm(t @ t))


def test_large_drazin_index_is_decided_without_warning():
    # U (+) N with N of nilpotency index 30: every rank of T^k, k <= 31, is
    # decided clear of the cutoff.  A rank rule at Tolerance.power_gate would
    # say index 24 here: with ||T|| ~ 1.5 the gate 1e-10 * (1 + ||T||)^k is
    # 0.34 at k = 24, above N^24's singular values (<= 0.12), and 2.1 at
    # k = 26, above the unitary block's 1
    t, _ = gen_drazin_pair(1, 4, 30, m=1, nil_index=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IllConditionedWarning)
        assert drazin_index(t) == 30
        parts = core_nilpotent(t)
        assert (parts.index, parts.t1.shape) == (30, (4, 4))
        assert range_kernel_split(t, 30).d1 == 4


def shifted(s):
    """V (s S) V* with S the 4x4 shift: Drazin index 4 at every scale s."""
    v = gen_haar_unitary(8, 4)
    return v @ (s * np.diag(np.ones(3), 1)) @ v.conj().T


@pytest.mark.parametrize("s", [1.0, 10.0, 100.0, 1000.0, 1e4])
def test_drazin_index_of_a_scaled_shift(s):
    # T^4 is rounding of about 1e-16 * s^4: below g_4, which grows like s^4
    # too, but far above rel_eps * sigma_max(T^4), so it must count as zero
    t = shifted(s)
    assert drazin_index(t) == 4
    assert core_nilpotent(t).index == 4
    # T^n = 0 from n = 4 on: nothing is left on the range side, and the
    # conjugated power's lower block (all of T^n) passes at T^n's gate
    assert [range_kernel_split(t, n).d1 for n in range(1, 6)] == [3, 2, 1, 0, 0]


@pytest.mark.parametrize("c", [1.0, 1e3, 1e5, 1e7])
def test_splittings_are_scale_invariant(c):
    # the kernel-side block holds rounding of T's size; it is judged at the
    # gate of T, whose radius is ||T||, and not at the block's own norm
    w = gen_haar_unitary(5, 8)
    t = c * (w @ gen_coupled_kernel(3, 4, 4) @ w.conj().T)
    core = core_nilpotent(t)
    assert (core.index, core.t1.shape) == (1, (4, 4))
    split = range_kernel_split(t, 1)
    assert split.d1 == 4
    assert split.residuals["t2_nilpotency"] <= 1e-10 * operator_norm(t)


def test_range_kernel_split_rejects_an_overflowing_power():
    with pytest.raises(NumericalFailureError, match="power overflows"):
        range_kernel_split([[1e200, 1e200], [0, 0]], 2)


@pytest.mark.parametrize("scale,rank", [(1.0, 2), (1e-14, 0)])
def test_rank_decisions_share_one_cutoff(scale, rank):
    # sigma = [1, 1e-8, 1e-12]: the relative branch (1e-10 * sigma_max) keeps
    # two; scaled by 1e-14, every sigma is below the absolute floor 1e-12
    rng = philox(31)
    u, _ = np.linalg.qr(ginibre(rng, 3))
    v, _ = np.linalg.qr(ginibre(rng, 3))
    a = scale * (u * np.array([1.0, 1e-8, 1e-12])) @ v.conj().T
    assert numerical_rank(a) == rank
    # A^+ A projects onto the kept right singular vectors
    assert round(np.trace(moore_penrose(a) @ a).real) == rank
    # the polar factor is a partial isometry on the kept directions
    assert round(np.linalg.norm(polar(a).u) ** 2) == rank
    assert range_kernel_split(a, 1).d1 == rank


def test_empty_operator_results_are_pinned():
    from oplab import (
        DefectSpec,
        PreconditionError,
        classify,
        defect,
        defect_series,
        is_hermitian,
        spectral_constraints,
        spectral_radius,
    )

    empty = np.zeros((0, 0), dtype=complex)
    result = defect(DefectSpec(t=empty, p=empty, m=2))
    assert result.delta.shape == (0, 0)
    assert (result.verdict.min_eig, result.verdict.max_eig, result.verdict.verdict) == (0.0, 0.0, "ZERO")
    assert result.classification == {"expansive", "contractive", "isometric"}
    series = defect_series(DefectSpec(t=empty, p=empty, m=3))
    assert [r.verdict.verdict for r in series] == ["ZERO"] * 3
    report = classify(empty, empty, 3).to_json()
    assert [row["verdict"] for row in report["rows"]] == ["ZERO"] * 3
    assert report["p_isometric"] is True
    assert report["spectral"] == {"operator_norm": 0.0, "spectral_radius": 0.0, "eigenvalue_moduli": []}
    assert operator_norm(empty) == 0.0
    assert spectral_radius(empty) == 0.0
    # an empty weight is not invertible, so the spectral checks never see an empty spectrum
    with pytest.raises(PreconditionError, match="invertible"):
        spectral_constraints(empty, empty, 1)
    assert is_hermitian(empty)
    assert numerical_rank(np.zeros((3, 0))) == 0
    assert drazin_inverse(empty).shape == (0, 0)
    core = core_nilpotent(empty)
    assert (core.index, core.basis.shape, core.t1.shape, core.t2.shape, core.orthogonal) == (0, (0, 0), (0, 0), (0, 0), True)
    assert all(part.shape == (0, 0) for part in (polar(empty).u, polar(empty).p, polar(empty).p_half))
    zero_residuals = {"power_lower": 0.0, "triangular_lower": 0.0, "t2_nilpotency": 0.0}
    split = range_kernel_split(empty, 2)
    assert (split.d1, split.basis.shape, split.residuals) == (0, (0, 0), zero_residuals)
    # T^2 = 0: no range side (d1 = 0), and T is its own kernel-side block
    split = range_kernel_split([[0, 1], [0, 0]], 2)
    assert (split.d1, split.t2.shape, split.t1.shape) == (0, (2, 2), (0, 0))
    assert split.residuals == zero_residuals
    # invertible: no kernel side (d1 = d)
    split = range_kernel_split([[2, 1], [0, 3]], 1)
    assert (split.d1, split.t2.shape, split.t1.shape) == (2, (0, 0), (2, 2))
    assert split.residuals == zero_residuals
