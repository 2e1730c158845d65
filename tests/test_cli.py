"""End-to-end CLI tests: commands, exit codes, and output stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oplab
import oplab.theorem_lab as theorem_lab
from oplab import TheoremVerdict, matrix_from_json, matrix_to_json
from oplab.cli import main


def write_matrix(path, values):
    path.write_text(json.dumps(matrix_to_json(np.array(values, dtype=complex))))
    return str(path)


@pytest.fixture
def scalar_two(tmp_path):
    return write_matrix(tmp_path / "two.json", [[2]])


@pytest.fixture
def nilpotent(tmp_path):
    return write_matrix(tmp_path / "nil.json", [[0, 1], [0, 0]])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_scalar_alternation(capsys, scalar_two):
    code, payload = run_json(
        capsys, ["classify", "--matrix", scalar_two, "--weight", "identity", "--m-max", "3"]
    )
    assert code == 0
    classes = [row["classes"] for row in payload["rows"]]
    assert classes == [["expansive"], ["contractive"], ["expansive"]]


def test_defect_gram_weight(capsys, tmp_path):
    path = write_matrix(tmp_path / "t.json", [[1, 1], [0, 0]])
    code, payload = run_json(
        capsys, ["defect", "--matrix", path, "--weight", "gram", "--n", "1", "--m", "2"]
    )
    assert code == 0
    assert payload["verdict"]["verdict"] == "ZERO"
    assert payload["classification"] == ["contractive", "expansive", "isometric"]
    # output matrices round-trip through the wire-format parser
    matrix_from_json(payload["delta"])


def test_defect_weight_from_file(capsys, tmp_path, scalar_two):
    weight = write_matrix(tmp_path / "w.json", [[1]])
    code, payload = run_json(
        capsys, ["defect", "--matrix", scalar_two, "--weight", weight, "--m", "1"]
    )
    assert code == 0
    assert payload["delta"]["data"][0][0] == [-3.0, 0.0]


def test_drazin_nilpotent(capsys, nilpotent):
    code, payload = run_json(capsys, ["drazin", "--matrix", nilpotent])
    assert code == 0
    assert payload["index"] == 2
    td = matrix_from_json(payload["drazin_inverse"])
    np.testing.assert_allclose(td, np.zeros((2, 2)), atol=1e-12)
    assert max(payload["residuals"].values()) <= 1e-10


def test_transform_command(capsys, tmp_path):
    path = write_matrix(tmp_path / "m.json", [[0, 2], [0, 0]])
    code, payload = run_json(capsys, ["transform", "--matrix", path])
    assert code == 0
    np.testing.assert_allclose(matrix_from_json(payload["polar"]["p"]), [[0, 0], [0, 2]], atol=1e-12)
    np.testing.assert_allclose(matrix_from_json(payload["duggal"]), np.zeros((2, 2)), atol=1e-12)


def test_split_command(capsys, tmp_path):
    path = write_matrix(tmp_path / "m.json", [[1, 1], [0, 0]])
    code, payload = run_json(capsys, ["split", "--matrix", path, "--n", "1"])
    assert code == 0
    assert payload["d1"] == 1
    np.testing.assert_allclose(matrix_from_json(payload["power_blocks"]["x"]), [[1.0]], atol=1e-12)


def test_verify_exits_zero_and_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--seed", "7", "--count", "4", "--dims", "4,3",
            "--quarantine", str(tmp_path / "q")]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    a = json.loads(out_a.read_text())
    b = json.loads(out_b.read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fuzz_exits_zero(tmp_path, capsys):
    code, payload = run_json(
        capsys,
        ["fuzz", "--seed", "3", "--count", "5", "--dims", "3,2",
         "--quarantine", str(tmp_path / "q")],
    )
    assert code == 0
    assert payload["failures"] == 0


def test_verify_single_suite(tmp_path, capsys):
    code, payload = run_json(
        capsys,
        ["verify", "--suite", "spectral_constraints", "--seed", "1", "--count", "3",
         "--dims", "3,2", "--quarantine", str(tmp_path / "q")],
    )
    assert code == 0
    assert set(payload["theorems"]) == {"spectral_constraints"}


def test_usage_errors_exit_one(capsys, scalar_two):
    assert main(["no-such-command"]) == 1
    assert main(["classify"]) == 1  # --matrix is required
    assert main(["verify", "--suite", "bogus"]) == 1
    assert main(["classify", "--matrix", scalar_two, "--m-max", "0"]) == 1
    assert main(["defect", "--matrix", scalar_two, "--m", "63"]) == 1
    assert main(["classify", "--matrix", scalar_two, "--m-max", "63"]) == 1
    assert main(["classify", "--matrix", scalar_two, "--rel-eps", "nan"]) == 1
    assert main(["defect", "--matrix", scalar_two, "--rel-eps", "inf"]) == 1
    assert main(["classify", "--matrix", scalar_two, "--abs-eps", "-1e-12"]) == 1


def test_parse_errors_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["drazin", "--matrix", str(bad)]) == 2
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"rows": 2, "cols": 2, "data": [[[1, 0], [0, 0]], [[0, 0]]]}))
    assert main(["drazin", "--matrix", str(ragged)]) == 2
    bool_shape = tmp_path / "bool_shape.json"
    bool_shape.write_text('{"rows": true, "cols": true, "data": [[[1, 0]]]}')
    assert main(["drazin", "--matrix", str(bool_shape)]) == 2
    huge = tmp_path / "huge.json"
    huge.write_text('{"rows": 1, "cols": 1, "data": [[[' + "9" * 400 + ', 0]]]}')
    assert main(["drazin", "--matrix", str(huge)]) == 2
    assert "outside the float range" in capsys.readouterr().err
    assert main(["drazin", "--matrix", str(tmp_path / "missing.json")]) == 2
    assert main(["verify", "--dims", "4"]) == 2


def test_numerical_failure_exits_three(tmp_path, capsys):
    # an invertible matrix whose Drazin inverse has norm ~1e18: the identity
    # residuals cannot be met in double precision
    path = write_matrix(tmp_path / "hard.json", [[1e-6, 1], [0, 1e-18]])
    assert main(["drazin", "--matrix", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_counterexample_exits_four(tmp_path, capsys, monkeypatch):
    real = theorem_lab.verify_power_stability

    def failing(**kwargs):
        verdict = real(**kwargs)
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_power_stability", failing)
    code = main(
        ["verify", "--suite", "power_stability", "--seed", "1", "--count", "2",
         "--dims", "3,2", "--quarantine", str(tmp_path / "q"),
         "--output", str(tmp_path / "r.json")]
    )
    assert code == 4
    assert len(list((tmp_path / "q").glob("*.json"))) == 2


def test_thread_cap_env_does_not_change_output(tmp_path, monkeypatch):
    # suites run serially; the former thread-cap variable is ignored
    argv = ["verify", "--seed", "5", "--count", "4", "--dims", "3,2",
            "--quarantine", str(tmp_path / "q")]
    assert main(argv + ["--output", str(tmp_path / "serial.json")]) == 0
    monkeypatch.setenv("OPLAB_THREADS", "4")
    assert main(argv + ["--output", str(tmp_path / "threaded.json")]) == 0
    a = json.loads((tmp_path / "serial.json").read_text())
    b = json.loads((tmp_path / "threaded.json").read_text())
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_drazin_computes_the_index_once(capsys, tmp_path, monkeypatch):
    import oplab.decompositions as decompositions_mod

    calls = []
    original = decompositions_mod.drazin_index

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decompositions_mod, "drazin_index", counting)
    k = np.zeros((4, 4), dtype=complex)
    k[:2, :2] = [[0, 1], [1, 0]]
    k[:2, 2:] = [[1, 2], [3, 4]]
    code, payload = run_json(capsys, ["drazin", "--matrix", write_matrix(tmp_path / "k.json", k)])
    assert code == 0
    assert len(calls) == 1
    assert payload["index"] == 1
    assert payload["core"] == {"orthogonal": False, "invertible_dim": 2, "nilpotent_dim": 2}


def test_defect_overflow_exits_three(tmp_path, capsys):
    path = write_matrix(tmp_path / "huge.json", np.diag([1e77, 1.0, 0.5]))
    assert main(["defect", "--matrix", path, "--m", "2"]) == 3
    assert "numerical failure: defect cross-check is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["defect", "--m", "2"], ["classify"]])
def test_overflowing_term_scale_exits_three(tmp_path, capsys, command):
    # ||T||^2 = 1e400 overflows a float: the term scale is inf, not an OverflowError
    path = write_matrix(tmp_path / "big.json", 1e200 * np.eye(2))
    assert main(command + ["--matrix", path]) == 3
    assert "oplab: numerical failure: defect cross-check is not finite" in capsys.readouterr().err


def test_drazin_overflowing_power_exits_three(tmp_path, capsys):
    # T^2 = 1e200 T overflows: LAPACK rejects the power's SVD
    path = write_matrix(tmp_path / "big.json", [[1e200, 1e200], [0, 0]])
    assert main(["drazin", "--matrix", path]) == 3
    assert "oplab: numerical failure: Drazin index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,values",
    [
        (["defect", "--m", "2"], 1e200 * np.eye(2)),
        (["drazin"], [[1e200, 1e200], [0, 0]]),
        (["split", "--n", "2"], [[1e200, 1e200], [0, 0]]),
    ],
)
def test_overflow_error_is_the_only_stderr_line(tmp_path, command, values):
    # a fresh interpreter that shows every warning: numpy's overflow and
    # invalid-value warnings must not precede the typed error
    path = write_matrix(tmp_path / "big.json", values)
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "oplab.cli", *command, "--matrix", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("oplab: numerical failure: ")
    assert proc.stderr.count("\n") == 1
