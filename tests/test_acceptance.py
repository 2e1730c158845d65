"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is property-based at desk scale (d <= 16, m <= 6).
"""

import json
import math

import numpy as np

from oplab import (
    DefectSpec,
    Tolerance,
    build_transform_bundle,
    classify,
    defect,
    drazin_inverse,
    gen_coupled_kernel,
    gen_drazin_pair,
    gen_expansive_invertible,
    gen_haar_unitary,
    gen_nilpotent,
    gen_psd,
    gram_weight,
    polar,
    run_suite,
    spectral_constraints,
    verify_power_stability,
    verify_sandwich_isometry,
    verify_transform_bundle,
    verify_two_expansive_isometry,
    verify_weight_decomposition,
)
from oplab.cli import main as cli_main
from oplab.decompositions import _drazin_residuals, _power_rank
from oplab.matrix_core import _hermitian_part

from conftest import ginibre, philox, random_hermitian, rank_deficient


def _criterion(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_defect_oracle_agreement():
    # binomial sum and iterated map, both computed here independently of the
    # library, must agree within rel 1e-10 of the summed-term magnitude
    rng = philox(1001)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(1, 13))
        m = int(rng.integers(1, 7))
        t = ginibre(rng, d)
        p = random_hermitian(rng, d)
        ta = t.conj().T
        binom = np.zeros((d, d), dtype=complex)
        for j in range(m + 1):
            tj = np.linalg.matrix_power(t, j)
            binom += (-1) ** j * math.comb(m, j) * (tj.conj().T @ p @ tj)
        iterated = p.astype(complex)
        for _ in range(m):
            iterated = iterated - ta @ iterated @ t
        scale = (1 + np.linalg.norm(p, 2)) * (1 + np.linalg.norm(t, 2) ** 2) ** m
        worst = max(worst, np.linalg.norm(binom - iterated, 2) / scale)
        library = defect(DefectSpec(t=t, p=p, m=m)).delta
        assert np.linalg.norm(library - _hermitian_part(binom), 2) <= 1e-10 * scale
    _criterion(1, f"defect constructions agree (500 draws, worst rel {worst:.2e} <= 1e-10)", worst <= 1e-10)


def test_criterion_2_unitary_collapse():
    worst = 0.0
    ok = True
    for trial in range(100):
        rng = philox(2000 + trial)
        d = int(rng.integers(1, 9))
        m = 1 + trial % 5
        u = gen_haar_unitary(2000 + trial, d)
        result = defect(DefectSpec(t=u, p=np.eye(d), m=m))
        worst = max(worst, np.linalg.norm(result.delta, 2))
        ok = ok and "isometric" in result.classification
    _criterion(2, f"unitary defects collapse (100 draws, worst norm {worst:.2e} <= 1e-10)", ok and worst <= 1e-10)


def _oblique_fixture(seed, d1, d2, nil_index):
    rng = philox(seed)
    core = np.diag(rng.uniform(0.6, 2.0, size=d1) * np.exp(2j * np.pi * rng.uniform(size=d1)))
    n = np.zeros((d2, d2), dtype=complex)
    for i in range(d2 - 1):
        if (i + 1) % nil_index != 0:
            n[i, i + 1] = rng.uniform(0.5, 1.5)
    d = d1 + d2
    s = np.eye(d, dtype=complex) + 0.3 * ginibre(rng, d)
    while np.linalg.cond(s) > 20:
        s = np.eye(d, dtype=complex) + 0.3 * ginibre(rng, d)
    blocks = [[core, np.zeros((d1, d2))], [np.zeros((d2, d1)), n]]
    return s @ np.block(blocks) @ np.linalg.inv(s)


def test_criterion_3_drazin_identities():
    rng = philox(3001)
    ok = True
    checked = 0
    for trial in range(200):
        kind = trial % 4
        if kind == 0:  # unitary (+) nilpotent
            d1, d2 = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            u = gen_haar_unitary(3100 + trial, d1)
            n = gen_nilpotent(3200 + trial, d2, index=int(rng.integers(1, d2 + 1)))
            t = np.block([[u, np.zeros((d1, d2))], [np.zeros((d2, d1)), n]])
        elif kind == 1:  # oblique idempotent-like
            t = _oblique_fixture(3300 + trial, int(rng.integers(1, 5)), int(rng.integers(1, 4)), nil_index=1 + trial % 2)
        elif kind == 2:  # invertible draw
            t = (
                gen_haar_unitary(3400 + trial, int(rng.integers(1, 9)))
                if trial % 2
                else gen_expansive_invertible(3400 + trial, int(rng.integers(1, 7)), 1)
            )
        else:  # nilpotent draw
            d = int(rng.integers(2, 8))
            t = gen_nilpotent(3500 + trial, d, index=int(rng.integers(2, d + 1)))
        p = _power_rank(t, Tolerance())[0]
        td = drazin_inverse(t)
        bound = 1e-8 * (1 + np.linalg.norm(t, 2) ** (2 * p + 1))
        residuals, _ = _drazin_residuals(t, td, *(np.linalg.matrix_power(t, k) for k in (p, p + 1)))
        ok = ok and max(residuals.values()) <= bound
        if kind == 2:
            inv = np.linalg.inv(t)
            ok = ok and np.linalg.norm(td - inv, 2) <= 1e-8 * (1 + np.linalg.norm(inv, 2))
        if kind == 3:
            ok = ok and np.linalg.norm(td, 2) <= 1e-10
        checked += 1
    _criterion(3, f"Drazin identities on {checked} fixtures (residual <= 1e-8 scaled)", ok)


def test_criterion_4_no_singular_expansive():
    rng = philox(4001)
    ok = True
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        t = rank_deficient(rng, d, rank=int(rng.integers(1, d)))
        identity = np.eye(d)
        for m in (1, 2, 3, 4):
            verdict = defect(DefectSpec(t=t, p=identity, m=m)).verdict.verdict
            ok = ok and verdict not in ("NSD", "ZERO")
    _criterion(4, "1000 singular draws x m in 1..4: never expansive", ok)


def test_criterion_5_power_stability():
    ok = True
    rng = philox(5001)
    for trial in range(20):  # unitaries
        d = int(rng.integers(1, 7))
        v = verify_power_stability(gen_haar_unitary(5100 + trial, d), np.eye(d), m=1 + trial % 3, n_max=5)
        ok = ok and v.premises_met and v.holds
    for trial in range(20):  # scalars c >= 1 at odd orders
        c = float(rng.uniform(1.0, 3.0))
        v = verify_power_stability([[c]], [[1.0]], m=(1, 3, 5)[trial % 3], n_max=5)
        ok = ok and v.premises_met and v.holds
    for trial in range(30):  # coupled-kernel family against its gram weight
        t = gen_coupled_kernel(5200 + trial, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
        v = verify_power_stability(t, gram_weight(t), m=1 + trial % 4, n_max=5)
        ok = ok and v.premises_met and v.holds
    _criterion(5, "expansive families stay expansive under powers n <= 5", ok)


def test_criterion_6_weight_decomposition():
    rng = philox(6001)
    ok = True
    for trial in range(200):
        d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        m = 1 + trial % 3
        weight = "identity" if trial % 2 else "commuting"
        t, p = gen_drazin_pair(6100 + trial, d1, d2, m=m, weight=weight)
        v = verify_weight_decomposition(t[:d1, :d1], t[d1:, d1:], p, m=m)
        ok = ok and v.premises_met and v.holds
        ok = ok and v.witness["forward_applicable"] and v.witness["reverse_applicable"]
        perturbed = p.copy()
        perturbed[d1:, d1:] += 1e-3 * np.eye(d2)
        flipped = defect(DefectSpec(t=t, p=perturbed, m=m))
        ok = ok and "expansive" not in flipped.classification
    _criterion(6, "weight decomposition holds both ways; eps = 1e-3 support leak flips it", ok)


def test_criterion_7_two_expansive_isometry():
    rng = philox(7001)
    ok = True
    worst = 0.0
    for trial in range(200):
        if trial % 2:
            d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            weight = "identity" if trial % 4 == 1 else "commuting"
            t, p = gen_drazin_pair(7100 + trial, d1, d2, m=2, weight=weight)
        else:
            d = int(rng.integers(1, 8))
            t = gen_haar_unitary(7200 + trial, d)
            p = np.eye(d)
        v = verify_two_expansive_isometry(t, p)
        residual = np.linalg.norm(t.conj().T @ p @ t - p, 2) / (1 + np.linalg.norm(p, 2))
        worst = max(worst, residual)
        ok = ok and v.premises_met and v.holds and residual <= 1e-8
    _criterion(7, f"(2,P)-expansive fixtures are P-isometric (worst rel {worst:.2e} <= 1e-8)", ok)


def test_criterion_8_sandwich():
    rng = philox(8001)
    ok = True
    worst = 0.0
    for trial in range(100):
        m = 2 + trial % 2
        if trial % 2:
            d1, d2 = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            t, p = gen_drazin_pair(8100 + trial, d1, d2, m=m)
        else:
            d = int(rng.integers(1, 8))
            t = gen_haar_unitary(8200 + trial, d)
            p = np.eye(d)
        v = verify_sandwich_isometry(t, p, m=m)
        middle = np.linalg.norm(defect(DefectSpec(t=t, p=p, m=m - 1)).delta, 2) / (1 + np.linalg.norm(p, 2))
        worst = max(worst, middle)
        ok = ok and v.premises_met and v.holds and middle <= 1e-8
    _criterion(8, f"sandwich premises force the middle defect to vanish (worst {worst:.2e})", ok)


def test_criterion_9_spectral_constraints():
    rng = philox(9001)
    ok = True
    worst_even = 0.0
    for trial in range(100):  # invertible (2, P)-expansive fixtures
        d = int(rng.integers(1, 8))
        u = gen_haar_unitary(9100 + trial, d)
        if trial % 2:
            t, p = u, np.eye(d)
        else:
            s = gen_psd(9200 + trial, d, condition_cap=4.0)
            s_inv = np.linalg.inv(s)
            t = s @ u @ s_inv
            p = _hermitian_part(s_inv.conj().T @ s_inv)
        v = spectral_constraints(t, p, m=2)
        deviation = float(np.max(np.abs(np.abs(np.linalg.eigvals(t)) - 1.0)))
        worst_even = max(worst_even, deviation)
        ok = ok and v.premises_met and v.holds and deviation <= 1e-8
    for trial in range(100):  # odd orders: moduli and norm at least 1
        m = 1 if trial % 2 else 3
        t = gen_expansive_invertible(9300 + trial, int(rng.integers(1, 7)), m)
        v = spectral_constraints(t, np.eye(t.shape[0]), m=m)
        moduli = np.abs(np.linalg.eigvals(t))
        ok = ok and v.premises_met and v.holds
        ok = ok and float(np.min(moduli)) >= 1 - 1e-8 and np.linalg.norm(t, 2) >= 1 - 1e-8
    _criterion(9, f"spectral constraints (even-m worst ||lambda|-1| {worst_even:.2e} <= 1e-8)", ok)


def test_criterion_10_transform_bundle():
    rng = philox(10001)
    ok = True
    for trial in range(200):
        d1, d2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m, n = 1 + trial % 4, 1 + trial % 2
        t = gen_coupled_kernel(10100 + trial, d1, d2)
        v = verify_transform_bundle(t, n=n, m=m)
        bundle = build_transform_bundle(t, n=n)
        ok = ok and v.premises_met and v.holds
        ok = ok and v.witness["a_weighted_verdict"]["verdict"] in ("NSD", "ZERO")
        ok = ok and v.witness["b_weighted_verdict"]["verdict"] in ("NSD", "ZERO")
        op_scale = max(
            np.linalg.norm(bundle.a, 2), np.linalg.norm(bundle.b, 2), np.linalg.norm(bundle.c, 2),
            np.linalg.norm(bundle.d, 2), np.linalg.norm(bundle.q, 2), 1.0,
        )
        ok = ok and max(bundle.identity_residuals().values()) <= 1e-8 * (1 + op_scale) ** 3
        if np.linalg.norm(bundle.x, 2) > 0:  # documented degeneracy of the side condition
            ok = ok and not v.witness["side_condition_satisfied"]
    for trial in range(100):
        t = gen_expansive_invertible(10200 + trial, int(rng.integers(1, 7)), 1)
        parts = polar(t)
        ok = ok and "expansive" in defect(DefectSpec(t=parts.duggal(), p=np.eye(t.shape[0]), m=1)).classification
        ok = ok and "expansive" in defect(DefectSpec(t=parts.aluthge(), p=parts.p, m=1)).classification
    _criterion(10, "transform bundle assertions, identities, and transform expansivity", ok)


def test_criterion_11_determinism(tmp_path):
    first = run_suite("verify", seed=7, count=6, dims=(4, 3), quarantine_dir=tmp_path / "qa")
    second = run_suite("verify", seed=7, count=6, dims=(4, 3), quarantine_dir=tmp_path / "qb")
    for report in (first, second):
        report.pop("generated_at")
    api_equal = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--seed", "7", "--count", "4", "--dims", "4,3",
            "--quarantine", str(tmp_path / "qc")]
    cli_ok = cli_main(argv + ["--output", str(out_a)]) == 0
    cli_ok = cli_ok and cli_main(argv + ["--output", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    cli_equal = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    _criterion(11, "repeated seeded runs are byte-identical (timestamp excluded)", api_equal and cli_ok and cli_equal)


def test_classify_cli_example(tmp_path, capsys):
    # CLI-facing sanity tied to the acceptance set: scalar sign alternation
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [[[2.0, 0.0]]]}))
    assert cli_main(["classify", "--matrix", str(path), "--weight", "identity", "--m-max", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["classes"] for row in payload["rows"]] == [["expansive"], ["contractive"], ["expansive"]]
    report = classify([[2]], [[1]], m_max=3)
    assert [row.verdict.verdict for row in report.rows] == ["NSD", "PSD", "NSD"]
