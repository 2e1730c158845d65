"""Tests for tests/report_diff.py, the verdict-level audit of two source
trees: it finds no difference between a tree and itself, lists a float that
moved with the gate of the decision it feeds, calls a flipped decision a
verdict difference, and fails on a tree under which tests/test_cli.py cannot
be collected."""

import shutil
from pathlib import Path

import pytest

import report_diff

REPO = Path(__file__).resolve().parent.parent


def _planted(tmp_path, name, module, old, new):
    """A copy of this tree's sources with ``old`` replaced by ``new`` once in ``module``."""
    tree = tmp_path / name
    shutil.copytree(REPO / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tree / "src" / "oplab" / module
    source = path.read_text()
    assert source.count(old) == 1
    path.write_text(source.replace(old, new))
    return tree


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trees")
    # every smallest eigenvalue of a sign verdict moves by 1e-13, a thousandth of its gate
    moved = _planted(tmp_path, "moved", "matrix_core.py", "lo, hi = float(w[0]), float(w[-1])",
                     "lo, hi = float(w[0]) + 1e-13, float(w[-1])")
    flipped = _planted(tmp_path, "flipped", "theorem_lab.py",
                       "return TheoremVerdict(theorem_id, bool(premises_met), holds, witness)",
                       "return TheoremVerdict(theorem_id, bool(premises_met), not holds, witness)")
    head, again, moved, flipped = report_diff.collect_trees((REPO, REPO, moved, flipped), "smoke")
    return {"head": head, "again": again, "moved": moved, "flipped": flipped}


def test_a_tree_against_itself_shows_no_difference(records):
    assert records["head"].keys() == {"verify:weight_decomposition@3,2", "verify:weight_decomposition@16,8",
                                      "query:drazin"}
    assert report_diff.diff(records["head"], records["again"]) == []


def test_a_planted_float_move_is_reported_with_its_gate(records):
    found = report_diff.diff(records["head"], records["moved"])
    summary = report_diff.summarize(found)
    assert summary["counts"]["structural"] == summary["counts"]["verdict"] == 0
    # the Drazin verdict is sign-flipped, so its largest eigenvalue moves too
    assert {item["path"].rsplit("/", 1)[1] for item in found} == {"min_eig", "max_eig"}
    field = summary["float_fields"]["verify:weight_decomposition:drazin_tilde_verdict.max_eig"]
    assert field["max_move"] == pytest.approx(1e-13, rel=0.01)
    # each with its sign gate rel_eps * max(|min_eig|, |max_eig|, 1) + abs_eps
    assert all(1.01e-10 <= item["gate"] < 1e-9 for item in found)


def test_a_planted_verdict_flip_is_a_verdict_difference(records):
    found = report_diff.diff(records["head"], records["flipped"])
    verdicts = {item["path"] for item in found if item["kind"] == "verdict"}
    assert "verify:weight_decomposition@3,2/output/rows/0/holds" in verdicts
    assert "verify:weight_decomposition@3,2/exit" in verdicts
    assert not any(item["kind"] == "float" for item in found)


def test_a_tree_that_test_cli_cannot_be_collected_under_fails_the_audit(tmp_path):
    # test_cli.py imports oplab.generators, which raises here: pytest collects
    # no call, and the audit must fail instead of reporting each call of the
    # other tree as a structural difference
    broken = _planted(tmp_path, "broken", "generators.py", "GENERATOR_VERSION = 2\n",
                      "GENERATOR_VERSION = 2\nraise ImportError('planted')\n")
    with pytest.raises(RuntimeError, match="pytest did not run .*test_cli.py: INTERRUPTED"):
        report_diff.collect_trees((broken,), "full")
    assert report_diff.main([str(broken), str(broken)]) == 2
