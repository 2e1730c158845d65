"""Tests for the suite runner: all-hold verification, fuzzing, report
determinism, and the quarantine/replay loop."""

import hashlib
import json

import numpy as np
import pytest

import oplab.theorem_lab as theorem_lab
from oplab import THEOREM_IDS, TheoremVerdict, replay_quarantine, run_suite
from oplab.matrix_core import matrix_from_json


def strip_timestamp(report: dict) -> str:
    return json.dumps({k: v for k, v in report.items() if k != "generated_at"}, sort_keys=True)


def test_verify_suite_all_hold(tmp_path):
    report = run_suite("verify", seed=11, count=6, dims=(4, 3), quarantine_dir=tmp_path / "q")
    assert report["failures"] == 0
    assert set(report["theorems"]) == set(THEOREM_IDS)
    for summary in report["theorems"].values():
        assert summary["instances"] == 6
        assert summary["premises_met"] == 6
        assert summary["holds"] == 6
    assert not (tmp_path / "q").exists()


def test_fuzz_suite_no_counterexamples(tmp_path):
    report = run_suite("fuzz", seed=5, count=12, dims=(4, 3), quarantine_dir=tmp_path / "q")
    assert report["failures"] == 0
    # fuzzing is allowed (expected) to produce vacuous instances
    vacuous = sum(1 for row in report["rows"] if not row["premises_met"])
    assert vacuous > 0


def test_rows_sorted_and_carry_genspec():
    report = run_suite("verify", seed=3, count=4, dims=(3, 2), quarantine_dir="unused-q")
    keys = [(row["theorem_id"], row["stream"]) for row in report["rows"]]
    assert keys == sorted(keys)
    for row in report["rows"]:
        assert row["gen"], "every row embeds the generating spec"
        for gen in row["gen"]:
            assert {"seed", "stream", "family", "dims", "params"} <= set(gen)


def test_reports_are_deterministic(tmp_path):
    a = run_suite("verify", seed=7, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qa")
    b = run_suite("verify", seed=7, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qb")
    assert strip_timestamp(a) == strip_timestamp(b)
    c = run_suite("verify", seed=8, count=5, dims=(4, 3), quarantine_dir=tmp_path / "qc")
    assert strip_timestamp(a) != strip_timestamp(c)


def test_repeated_fuzz_run_is_identical(tmp_path):
    first = run_suite("fuzz", seed=9, count=8, dims=(4, 3), quarantine_dir=tmp_path / "qa")
    second = run_suite("fuzz", seed=9, count=8, dims=(4, 3), quarantine_dir=tmp_path / "qb")
    assert strip_timestamp(first) == strip_timestamp(second)


def test_single_suite_selection(tmp_path):
    report = run_suite("verify", seed=2, count=3, dims=(3, 2),
                       suites=["power_stability"], quarantine_dir=tmp_path / "q")
    assert set(report["theorems"]) == {"power_stability"}
    assert len(report["rows"]) == 3


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("verify", seed=1, count=1, suites=["not_a_theorem"])
    with pytest.raises(ValueError):
        run_suite("replay", seed=1, count=1)


def test_quarantine_write_and_replay(tmp_path, monkeypatch):
    # force one premises-met failure through a patched verifier, then replay
    # the quarantined instance against the real one
    real = theorem_lab.verify_power_stability

    def failing(**kwargs):
        verdict = real(**kwargs)
        return TheoremVerdict(
            theorem_id=verdict.theorem_id,
            premises_met=verdict.premises_met,
            holds=False,
            witness=dict(verdict.witness),
        )

    monkeypatch.setattr(theorem_lab, "verify_power_stability", failing)
    report = run_suite("verify", seed=4, count=2, dims=(3, 2),
                       suites=["power_stability"], quarantine_dir=tmp_path / "q")
    assert report["failures"] == 2
    assert len(report["quarantine"]) == 2

    path = report["quarantine"][0]
    payload = json.loads(open(path).read())
    assert payload["theorem_id"] == "power_stability"
    assert payload["tolerance"] == {"rel_eps": 1e-10, "abs_eps": 1e-12}
    assert set(payload["inputs"]) == {"t", "p"}

    monkeypatch.undo()
    replayed = replay_quarantine(path)
    assert replayed["premises_met"] is True
    assert replayed["holds"] is True  # the genuine verifier confirms the instance


def test_quarantine_inputs_round_trip_exactly(tmp_path, monkeypatch):
    captured = {}
    real = theorem_lab.verify_two_expansive_isometry

    def failing(t, p, tol):
        captured["t"] = np.array(t, copy=True)
        verdict = real(t, p, tol=tol)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_two_expansive_isometry", failing)
    report = run_suite("verify", seed=6, count=1, dims=(3, 2),
                       suites=["two_expansive_isometry"], quarantine_dir=tmp_path / "q")
    payload = json.loads(open(report["quarantine"][0]).read())
    stored = matrix_from_json(payload["inputs"]["t"])
    assert np.array_equal(stored, captured["t"])


def test_quarantine_file_is_stdlib_json_and_replays(tmp_path, monkeypatch):
    real = theorem_lab.verify_transform_bundle
    verdicts = []

    def failing(**kwargs):
        bundle, verdict = real(**kwargs)
        verdicts.append(verdict)
        return bundle, TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_transform_bundle", failing)
    report = run_suite("verify", seed=5, count=2, dims=(3, 2),
                       suites=["transform_bundle"], quarantine_dir=tmp_path / "q")
    assert report["failures"] == 2
    monkeypatch.undo()
    for path, verdict in zip(report["quarantine"], verdicts):
        text = open(path).read()
        payload = json.loads(text)
        with open(tmp_path / "stdlib.json", "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
        assert text == (tmp_path / "stdlib.json").read_text()
        replayed = replay_quarantine(path)
        assert replayed == {
            "theorem_id": "transform_bundle",
            "premises_met": verdict.premises_met,
            "holds": verdict.holds,
            "witness": verdict.witness,
        }


@pytest.mark.parametrize("mode", ["verify", "fuzz"])
def test_reports_unchanged_by_the_spectral_norm_kernel(tmp_path, monkeypatch, mode):
    import oplab.expansivity as expansivity_mod
    import oplab.matrix_core as matrix_core_mod

    def report_text(quarantine):
        report = run_suite(mode, seed=1, count=25, dims=(4, 3), quarantine_dir=tmp_path / quarantine)
        return matrix_core_mod.dumps_json({k: v for k, v in report.items() if k != "generated_at"})

    fast = report_text("fast")

    def reference_norm2(a):
        return float(np.linalg.norm(a, 2))

    for module in (matrix_core_mod, expansivity_mod):
        monkeypatch.setattr(module, "_norm2", reference_norm2)
    assert report_text("reference") == fast


def test_fixture_streams_are_pinned(tmp_path):
    # A digest of the columns that name each instance and its outcome, taken
    # before the theorem table replaced three per-theorem tables.  The floats
    # in these columns are Philox draws and constants, none computed by BLAS,
    # so any change in which fixtures a seed names, or in the order of their
    # draws, changes the digest on every platform.
    columns = ("theorem_id", "stream", "gen", "params", "dims", "premises_met", "holds")
    rows = []
    for mode in ("verify", "fuzz"):
        report = run_suite(mode, seed=1, count=25, dims=(4, 3), quarantine_dir=tmp_path / mode)
        rows += [{name: row[name] for name in columns} for row in report["rows"]]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "5f5c3d4146c05ffd367c3283a58caaf12c8cd18171d3c441eaf50f6f71759fdd"
