"""End-to-end CLI tests: commands, exit codes, and output stability."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oplab
import oplab.theorem_lab as theorem_lab
from oplab import TheoremVerdict, matrix_from_json, matrix_to_json
from oplab.cli import main
from oplab.generators import gen_haar_unitary


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
    assert main(["verify", "--count", "0"]) == 1  # run_suite's ValueError


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
    assert main(["verify", "--dims", "0,3"]) == 2


@pytest.mark.parametrize("flag", ["--matrix", "--weight"])
def test_undecodable_input_file_exits_two(tmp_path, capsys, scalar_two, flag):
    # bytes that are not UTF-8 are a parse error of the file, not a usage error
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe{\x00}\x00")
    argv = {"--matrix": ["defect", "--matrix", str(undecodable)],
            "--weight": ["defect", "--matrix", scalar_two, "--weight", str(undecodable)]}[flag]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("oplab: parse error:")


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
    # one walk of T, T^2, ... decides the index, rank T^p and the gate g_p
    import oplab.decompositions as decompositions_mod

    calls = []
    original = decompositions_mod._power_rank

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(decompositions_mod, "_power_rank", counting)
    k = np.zeros((4, 4), dtype=complex)
    k[:2, :2] = [[0, 1], [1, 0]]
    k[:2, 2:] = [[1, 2], [3, 4]]
    code, payload = run_json(capsys, ["drazin", "--matrix", write_matrix(tmp_path / "k.json", k)])
    assert code == 0
    assert len(calls) == 1
    assert payload["index"] == 1
    assert payload["core"] == {"orthogonal": False, "invertible_dim": 2, "nilpotent_dim": 2}


@pytest.mark.parametrize("s", [10.0, 1000.0])
def test_drazin_of_a_scaled_shift_exits_zero(capsys, tmp_path, s):
    # V (s S) V* with S the 4x4 shift has index 4 at every scale s; T^4 is
    # rounding, which the gate of T^4 counts as zero, so nothing is invertible
    v = gen_haar_unitary(8, 4)
    t = v @ (s * np.diag(np.ones(3), 1)) @ v.conj().T
    code, payload = run_json(capsys, ["drazin", "--matrix", write_matrix(tmp_path / "shift.json", t)])
    assert code == 0
    assert payload["index"] == 4
    assert payload["core"] == {"orthogonal": True, "invertible_dim": 0, "nilpotent_dim": 4}


@pytest.mark.parametrize("command", ["defect", "verify"])
def test_stdout_and_output_file_get_the_same_bytes(tmp_path, capsys, command):
    if command == "defect":
        t = write_matrix(tmp_path / "t.json", [[1, 2j, 0], [0.5, 1, 0], [0, 3, -1e-3]])
        argv = ["defect", "--matrix", t, "--m", "2", "--weight", "gram"]
    else:
        argv = ["verify", "--seed", "3", "--count", "2", "--dims", "3,2", "--quarantine", str(tmp_path / "q")]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert main(argv + ["--output", str(tmp_path / "out.json")]) == 0
    written = (tmp_path / "out.json").read_bytes()
    # the one field that may differ between two runs
    stamp = re.compile(rb'"generated_at": "[^"]*"')
    assert stamp.sub(b"", stdout) == stamp.sub(b"", written)


@pytest.mark.parametrize("duggal,code,message", [
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), 1, "oplab: error: matrix entries must be finite\n"),
    (object(), None, "Object of type object is not JSON serializable"),
])
@pytest.mark.parametrize("existing", [None, "earlier result\n"])
def test_a_rejected_payload_leaves_output_as_it_was(tmp_path, capsys, monkeypatch, duggal, code, message, existing):
    # the payload is checked before --output is opened: no partial file, no truncation
    import oplab.decompositions as decompositions_mod

    monkeypatch.setattr(decompositions_mod.PolarParts, "duggal", lambda parts: duggal)
    out = tmp_path / "out.json"
    if existing is not None:
        out.write_text(existing)
    argv = ["transform", "--matrix", write_matrix(tmp_path / "t.json", [[2, 1], [0, 1]]), "--output", str(out)]
    if code is None:
        with pytest.raises(TypeError, match=message):
            main(argv)
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == message
    assert (out.read_text() if out.exists() else None) == existing


@pytest.mark.parametrize("command", ["classify", "defect", "drazin", "transform", "split"])
def test_a_non_square_matrix_is_a_usage_error(tmp_path, capsys, command):
    path = write_matrix(tmp_path / "wide.json", np.ones((2, 3)))
    assert main([command, "--matrix", path]) == 1
    assert capsys.readouterr().err == "oplab: error: expected a square matrix, got shape (2, 3)\n"


def test_defect_overflow_exits_three(tmp_path, capsys):
    path = write_matrix(tmp_path / "huge.json", np.diag([1e77, 1.0, 0.5]))
    assert main(["defect", "--matrix", path, "--m", "2"]) == 3
    assert "numerical failure: defect overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["defect", "--m", "2"], ["classify"]])
def test_overflowing_term_scale_exits_three(tmp_path, capsys, command):
    # T*T = 1e400 I overflows a float: the order-1 defect is -inf, not an OverflowError
    path = write_matrix(tmp_path / "big.json", 1e200 * np.eye(2))
    assert main(command + ["--matrix", path]) == 3
    assert "oplab: numerical failure: defect overflows" in capsys.readouterr().err


def test_drazin_overflowing_power_exits_three(tmp_path, capsys):
    # T^2 = 1e200 T overflows: the chain of powers stops at the typed error
    path = write_matrix(tmp_path / "big.json", [[1e200, 1e200], [0, 0]])
    assert main(["drazin", "--matrix", path]) == 3
    assert "oplab: numerical failure: operator power overflows: {'power': 2}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,values",
    [
        (["defect", "--m", "2"], 1e200 * np.eye(2)),
        (["drazin"], [[1e200, 1e200], [0, 0]]),
        (["split", "--n", "2"], [[1e200, 1e200], [0, 0]]),
        # T^3 overflows in the Drazin inverse's T^(2k+1), k = 1
        (["drazin"], np.diag([1e120, 0.0])),
        # the gram weight's power T^2 overflows
        (["defect", "--weight", "gram", "--n", "2"], [[1e200, 1e200], [0, 0]]),
        # T is finite, but the gram weight T*T overflows
        (["defect", "--weight", "gram"], np.diag([1e160, 1.0])),
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


@pytest.mark.parametrize("entry", [1.7e308, 1.7e308j], ids=["real", "imaginary"])
def test_transform_overflow_is_the_only_stderr_line(tmp_path, entry):
    # the polar factor's Hermitian part overflows: one typed line, exit 3,
    # not two RuntimeWarnings and "matrix entries must be finite" (exit 1)
    path = write_matrix(tmp_path / "big.json", [[entry]])
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "oplab.cli", "transform", "--matrix", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("oplab: numerical failure: polar factor |M| overflows")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("values", [np.diag([2.0, 4.0]), np.diag([1.0, 0.0])], ids=["invertible", "singular"])
@pytest.mark.parametrize("command", ["defect", "classify"])
def test_negative_gram_power_is_the_only_stderr_line(tmp_path, command, values):
    # numpy would weight by T^-* T^-1, or fail with an untyped "Singular matrix"
    path = write_matrix(tmp_path / "diag.json", values)
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "oplab.cli", command, "--weight", "gram", "--n", "-1",
         "--matrix", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "oplab: error: operator power must be >= 0, got -1\n"


def test_gram_power_zero_is_the_identity_weight(tmp_path):
    path = write_matrix(tmp_path / "diag.json", np.diag([1.0, 0.0]))
    gram, identity = tmp_path / "gram.json", tmp_path / "identity.json"
    assert main(["defect", "--weight", "gram", "--n", "0", "--matrix", path, "--output", str(gram)]) == 0
    assert main(["defect", "--weight", "identity", "--matrix", path, "--output", str(identity)]) == 0
    assert gram.read_text() == identity.read_text()


@pytest.mark.parametrize("command", [["drazin"], ["split", "--n", "2"]])
def test_overflowing_gate_scale_prints_no_warning(tmp_path, command):
    # N = [[0, 1e200], [0, 0]] has N^2 = 0, but the gate scales
    # (1 + ||N||)^2 and 1 + ||N||^3 overflow to inf without a warning
    path = write_matrix(tmp_path / "nil.json", [[0, 1e200], [0, 0]])
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "oplab.cli", *command, "--matrix", path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# entry moduli from 0 and 1e-300 up to 1.7e308, next to the float maximum,
# with mixed signs and phases
_ENTRY_SCALES = (0.0, 1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300, 1.7e308)
_ENTRIES = st.builds(
    lambda scale, re, im: scale * complex(re, im),
    st.sampled_from(_ENTRY_SCALES), st.sampled_from((-1.0, 1.0, 0.5)), st.sampled_from((0.0, 1.0, -0.25)),
)
_MATRIX_COMMANDS = (
    ["classify"],
    ["defect", "--weight", "identity"],
    ["defect", "--weight", "gram"],
    ["drazin"],
    ["transform"],
    ["split", "--n", "2"],
)


@st.composite
def _square_matrices(draw):
    d = draw(st.integers(1, 4))
    return np.array(draw(st.lists(_ENTRIES, min_size=d * d, max_size=d * d))).reshape(d, d)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(_square_matrices(), st.sampled_from(_MATRIX_COMMANDS))
def test_matrix_commands_exit_typed_on_any_valid_square_matrix(t, command):
    # a valid square matrix is never a usage error (exit 1): the command
    # succeeds, or reports a typed parse or numerical failure (exit 2 or 3),
    # without raising and without a numpy RuntimeWarning
    with tempfile.TemporaryDirectory() as tmp:
        path = write_matrix(Path(tmp) / "t.json", t)
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            code = main(command + ["--matrix", path])
    assert code in (0, 2, 3), (code, err.getvalue())
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# The package's public names, by the module the package took each from
# before its submodules loaded on first access: the API lazy loading keeps.
_PUBLIC_API = {
    "matrix_core": (
        "DEFAULT_TOL", "DefinitenessVerdict", "DimensionError", "DomainError", "HermitianError",
        "MatrixFormatError", "NumericalFailureError", "OplabError", "PreconditionError", "Tolerance", "adjoint",
        "matrix_from_json", "matrix_to_json",
    ),
    "expansivity": (
        "ClassificationReport", "DefectResult", "DefectSpec", "classify", "defect", "defect_series", "gram_weight",
    ),
    "decompositions": (
        "CoreNilpotent", "DecompositionError", "IllConditionedWarning", "PolarParts", "RangeKernelSplit",
        "TransformBundle", "build_transform_bundle", "core_nilpotent", "drazin_inverse", "polar",
        "range_kernel_split",
    ),
    "generators": (
        "GenerationError", "GenSpec", "gen_coupled_kernel", "gen_drazin_pair", "gen_expansive_invertible",
        "gen_haar_unitary", "gen_nilpotent", "gen_psd", "generate",
    ),
    "theorem_lab": (
        "TheoremVerdict", "spectral_constraints", "verify_no_singular_expansive", "verify_power_stability",
        "verify_sandwich_isometry", "verify_transform_bundle", "verify_two_expansive_isometry",
        "verify_unitary_nilpotent_structure", "verify_weight_decomposition",
    ),
    "suite": ("THEOREM_IDS", "replay_quarantine", "run_suite"),
}

# run in a fresh interpreter: what one-shot queries load, each after the
# commands before it, then every public name and submodule reached cold
# through the package, then star-import
_FRESH_PACKAGE = """
import importlib, json, sys
from oplab import cli
codes, loaded = [], []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv))
    loaded.append(sorted(name for name in sys.modules if name.startswith("oplab")))
import oplab
api = json.loads(sys.argv[2])
differ = [module for module in api if getattr(oplab, module) is not importlib.import_module("oplab." + module)]
differ += [name for module, names in api.items() for name in names
           if getattr(oplab, name) is not getattr(importlib.import_module("oplab." + module), name)]
star = {}
exec("from oplab import *", star)
print(json.dumps({"codes": codes, "loaded": loaded, "differ": differ,
                  "star": sorted(name for name in star if name != "__builtins__")}))
"""


def _fresh_package(commands: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_PACKAGE, json.dumps(commands), json.dumps(_PUBLIC_API)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(commands)
    return result


def test_one_shot_queries_load_only_what_they_run_and_the_package_api_holds(tmp_path):
    path = write_matrix(tmp_path / "t.json", [[2, 0], [1, 2]])
    out = ["--output", str(tmp_path / "out.json")]
    result = _fresh_package([["classify", "--matrix", path, *out], ["defect", "--matrix", path, *out]])
    # no decompositions, generators, theorem_lab or suite; the float printer
    # only once a matrix is written
    assert result["loaded"] == [["oplab", "oplab.cli", "oplab.expansivity", "oplab.matrix_core"],
                                ["oplab", "oplab._float_text", "oplab.cli", "oplab.expansivity", "oplab.matrix_core"]]
    assert result["differ"] == []
    public = sorted({name for module, names in _PUBLIC_API.items() for name in (module, *names)})
    assert result["star"] == public
    assert sorted(oplab.__all__) == public
    assert set(public) <= set(dir(oplab))
    # reports without matrices: classify, verify and fuzz never load the printer
    suite = ["--count", "2", "--dims", "2,2", "--quarantine", str(tmp_path / "q"), *out]
    result = _fresh_package([["classify", "--matrix", path, *out], ["verify", *suite], ["fuzz", *suite]])
    assert not any("oplab._float_text" in loaded for loaded in result["loaded"])


def test_the_suite_choices_are_the_theorem_ids(capsys):
    import oplab.cli as cli
    import oplab.suite as suite

    for mode in ("verify", "fuzz"):
        assert main([mode, "--suite", "no_such_theorem"]) == 1
        err = capsys.readouterr().err
        assert f"invalid choice: 'no_such_theorem' (choose from 'all', {', '.join(map(repr, suite.THEOREM_IDS))})" in err
    assert cli._THEOREM_IDS == tuple(cli._THEOREM_COST) == suite.THEOREM_IDS


def test_main_builds_one_parser_for_every_call(tmp_path, capsys, monkeypatch):
    import oplab.cli as cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(None)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    path = write_matrix(tmp_path / "t.json", [[2, 0], [1, 2]])
    outcomes = []
    for argv in (["classify", "--matrix", path], ["defect", "--m", "0", "--matrix", path],
                 ["classify", "--m-max"], ["nonsense"], ["--version"]):
        for _ in range(2):
            code = main(argv)
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[-1] == outcomes[-2], argv
    assert [code for code, _, _ in outcomes[::2]] == [0, 1, 1, 1, 0]
    assert len(built) == 1
    cli._parser.cache_clear()
