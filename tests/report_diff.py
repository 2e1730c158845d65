"""Compare what two oplab source trees report over one fixed run matrix.

    python3 tests/report_diff.py OLD_TREE NEW_TREE [--matrix full|smoke] [--json OUT]

Each tree is a directory with the oplab package under ``src/`` (a checkout,
or an unpacked ``git archive``).  Each tree's outputs are collected in a
fresh interpreter with ``PYTHONPATH=<tree>/src`` and one BLAS thread; the two
run side by side.  The full matrix is:

* ``verify`` and ``fuzz --suite all`` at dims 4,3 and 3,2, seeds 1 and 7,
  count 25;
* every theorem alone (``--suite <id>``, seed 7) in both modes at dims 16,8
  with count 15 and at 64,32 with count 6, the calls that abort included,
  and ``fuzz --suite unitary_nilpotent_structure`` at 16,8 with count 40;
* the six ``queries-large`` calls of ``perfbench/workloads.py`` (seed 1,
  d = 256, m_max = 20), their inputs written by that module, and
  ``classify`` (of 1.2 U) and ``defect --m 4`` (of K) with ``--weight`` a
  d = 256 PSD matrix file written in oplab's indent-2 layout;
* every in-process ``oplab.cli.main`` call of ``tests/test_cli.py`` (the file
  next to this script), Hypothesis derandomized, keyed by test and call,
  collected first; a tree under which pytest cannot collect or run that file
  is a tree that could not be run.

A call's record is its exit code, its stderr, its stdout (parsed as JSON
when it is JSON), its ``--output`` file and its quarantine files, with the
report's ``generated_at`` and temporary paths removed.  Every difference
between the two trees is sorted into one of four kinds:

* ``structural``: a key, a type, a length or a non-float value differs;
* ``verdict``: a decision differs: ``premises_met``, ``holds``, a verdict
  string, classes, an index, dims, d1 or d2, any boolean, a failure count,
  an exit code or stderr;
* ``version``: a spec's ``generator_version`` differs, which an intended
  version bump changes in every spec, so it is counted apart from the
  structural moves it would otherwise hide;
* ``float``: a float moved; it is listed with its absolute move and the
  gate of the decision it feeds (``None`` where the report does not carry
  one, for example a matrix entry).

The summary lists each structural and verdict difference, counts the
version ones, and lists each moved float field once, with its largest move
and the smallest gate it met.  The exit status is 0 when there are no structural
or verdict differences, 1 when there are, and 2 when a tree could not be run.
The ``smoke`` matrix (weight decomposition at 3,2 and 16,8 and one
``drazin`` query at d = 16) is for quick checks of the script itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
THEOREMS = (
    "no_singular_expansive",
    "power_stability",
    "sandwich_isometry",
    "spectral_constraints",
    "transform_bundle",
    "two_expansive_isometry",
    "unitary_nilpotent_structure",
    "weight_decomposition",
)
# oplab's default Tolerance, and the verifiers' slack over it (`Tolerance.conclusion`),
# copied from matrix_core's gate table: this script judges two trees without importing either
REL_EPS, ABS_EPS, RESIDUAL_FACTOR = 1e-10, 1e-12, 100.0
VERDICT_KEYS = {
    "premises_met", "holds", "verdict", "classes", "classification", "dims", "d1", "d2",
    "index", "failures", "exit", "stderr", "invertible_dim", "nilpotent_dim",
}


def _suite_cells(matrix: str) -> list:
    """(name, argv) of every suite call in ``matrix``."""
    if matrix == "smoke":
        return [(f"verify:weight_decomposition@{dims}", ("verify", "--suite", "weight_decomposition", "--seed", "7",
                                                         "--count", "4", "--dims", dims))
                for dims in ("3,2", "16,8")]
    cells = []
    for mode in ("verify", "fuzz"):
        for dims in ("4,3", "3,2"):
            for seed in ("1", "7"):
                argv = (mode, "--suite", "all", "--seed", seed, "--count", "25", "--dims", dims)
                cells.append((f"{mode}:all@{dims}:seed{seed}", argv))
    for dims, count in (("16,8", "15"), ("64,32", "6")):
        for mode in ("verify", "fuzz"):
            for theorem in THEOREMS:
                argv = (mode, "--suite", theorem, "--seed", "7", "--count", count, "--dims", dims)
                cells.append((f"{mode}:{theorem}@{dims}", argv))
    # the call in which core_nilpotent taking T^p from the walk, tried on a
    # copy of the tree, moved a float: unitarity_residual at stream 24
    argv = ("fuzz", "--suite", "unitary_nilpotent_structure", "--seed", "7", "--count", "40", "--dims", "16,8")
    return cells + [("fuzz:unitary_nilpotent_structure@16,8:count40", argv)]


def _query_cells(matrix: str, directory: Path) -> list:
    """(name, argv) of the ``queries-large`` calls, inputs written to ``directory``."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    import workloads

    d, m_max = (16, 4) if matrix == "smoke" else (256, 20)
    ops = workloads.query_ops(1, d, m_max, directory)
    if matrix == "smoke":
        return [(f"query:{op.cell}", op.argv) for op in ops if op.cell == "drazin"]
    # a PSD weight in oplab's own indent-2 layout: the reader's second layout,
    # and classify's summary with a weight that is not I
    import numpy as np

    rng = np.random.default_rng(1)
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    weight = g.conj().T @ g / d
    weight_path = directory / "weight.json"
    weight_path.write_text(json.dumps(workloads.encode((weight + weight.conj().T) / 2.0), sort_keys=True, indent=2))
    weighted = [
        ("classify:weight-file", ("classify", "--matrix", str(directory / "u1.2.json"), "--weight", str(weight_path),
                                  "--m-max", str(m_max))),
        ("defect:weight-file", ("defect", "--matrix", str(directory / "k.json"), "--weight", str(weight_path),
                                "--m", "4")),
    ]
    return [(f"query:{op.cell}", op.argv) for op in ops] + [(f"query:{cell}", argv) for cell, argv in weighted]


_TEMP_DIR = re.compile(re.escape(os.path.join(tempfile.gettempdir(), "tmp")) + r"\w+")


def _normalize(value, tmp: str):
    """``value`` with ``tmp``, and any directory that `tempfile.mkdtemp` or
    `TemporaryDirectory` names, spelled ``<tmp>``, and ``generated_at`` dropped."""
    if isinstance(value, str):
        return _TEMP_DIR.sub("<tmp>", value.replace(tmp, "<tmp>"))
    if isinstance(value, dict):
        return {key: _normalize(item, tmp) for key, item in value.items() if key != "generated_at"}
    if isinstance(value, list):
        return [_normalize(item, tmp) for item in value]
    return value


def _parsed(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


def _call(main, argv, tmp: str, cwd: Path) -> tuple:
    """Run ``main(argv)``: its record, and the stdout and stderr it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    record = {"exit": code, "stdout": _parsed(out.getvalue()), "stderr": err.getvalue()}
    if "--output" in argv:
        path = cwd / argv[argv.index("--output") + 1]
        record["output"] = _parsed(path.read_text()) if path.is_file() else None
    if "--quarantine" in argv:
        quarantine = cwd / argv[argv.index("--quarantine") + 1]
        record["quarantine"] = {path.name: _parsed(path.read_text()) for path in sorted(quarantine.glob("*.json"))}
    return _normalize(record, tmp), (out.getvalue(), err.getvalue())


def _cli_test_calls(tmp: Path) -> dict:
    """Every in-process ``cli.main`` call made by ``tests/test_cli.py``.

    Raises RuntimeError when pytest did not run the file's tests: a
    collection or internal error, a usage error or no test collected.
    Failing tests are allowed, since the two trees may differ."""
    import pytest
    from hypothesis import settings

    import oplab.cli as cli

    settings.register_profile("report_diff", derandomize=True, database=None)
    settings.load_profile("report_diff")
    real = cli.main
    calls, current = {}, ["<collection>"]

    def recording(argv=None):
        record, (out, err) = _call(real, argv, str(tmp), Path.cwd())
        sys.stdout.write(out)
        sys.stderr.write(err)
        calls.setdefault(current[0], []).append(
            {"argv": _normalize([str(arg) for arg in argv or ()], str(tmp)), **record})
        return record["exit"]

    class Recorder:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            current[0] = item.nodeid.split("::", 1)[1]
            yield

    # test_cli binds main at import, so the wrapper goes in before collection
    cli.main = recording
    try:
        code = pytest.main([str(HERE / "test_cli.py"), "-q", "-p", "no:cacheprovider", f"--basetemp={tmp / 'pytest'}"],
                           plugins=[Recorder()])
    finally:
        cli.main = real
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        raise RuntimeError(f"pytest did not run {HERE / 'test_cli.py'}: {pytest.ExitCode(code).name}")
    return calls


def collect(matrix: str) -> dict:
    """The record of every call in ``matrix`` under the oplab on sys.path."""
    import warnings

    from oplab.cli import main

    records = {}
    with tempfile.TemporaryDirectory() as scratch:
        tmp = Path(scratch).resolve()
        # first, so that a tree the file cannot be collected under fails at once
        if matrix == "full":
            for test, calls in _cli_test_calls(tmp).items():
                for number, record in enumerate(calls):
                    records[f"test_cli:{test}#{number}"] = record
        # the IllConditionedWarning of a rank decision is not a report field
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for index, (name, argv) in enumerate(_suite_cells(matrix) + _query_cells(matrix, tmp)):
                extra = ["--output", str(tmp / f"out{index}.json")]
                if argv[0] in ("verify", "fuzz"):
                    extra += ["--quarantine", str(tmp / f"q{index}")]
                records[name] = _call(main, [*argv, *extra], str(tmp), tmp)[0]
    return records


# -- differences -------------------------------------------------------------

def _sign_gate(verdict: dict) -> float:
    """`_sign_verdict`'s threshold for the eigenvalues in ``verdict``."""
    return REL_EPS * max(abs(verdict["min_eig"]), abs(verdict["max_eig"]), 1.0) + ABS_EPS


def _gate(key, parents) -> float | None:
    """The gate of the decision the float at ``key`` feeds, read from the
    containers around it (innermost last), or None when the report does not
    carry one."""
    parent = parents[-1]
    if key in ("min_eig", "max_eig") and isinstance(parent, dict) and "verdict" in parent:
        return _sign_gate(parent)
    if key in ("isometry_residual", "operator_norm") and isinstance(parent, dict) and "threshold" in parent:
        return parent["threshold"]
    if key == "unitarity_residual":
        return RESIDUAL_FACTOR * REL_EPS + ABS_EPS
    if len(parents) >= 2 and isinstance(parents[-2], dict):
        if "identity_threshold" in parents[-2] and parent is parents[-2].get("identity_residuals"):
            return parents[-2]["identity_threshold"]
        if "threshold" in parents[-2] and parent is parents[-2].get("eigenvalue_moduli"):
            return parents[-2]["threshold"]
    return None


def _is_verdict(path: tuple, value) -> bool:
    """Whether ``value``, at ``path``, is a decision: a boolean, or the value
    of a verdict key (the innermost key on the path)."""
    key = next((part for part in reversed(path) if isinstance(part, str)), "")
    return isinstance(value, bool) or key in VERDICT_KEYS or key.endswith("_index")


def _field(path: tuple, parents: list) -> str:
    """A name for the field at ``path`` shared by its rows and calls: the cell
    and list positions dropped, a suite row named by its theorem."""
    name = ".".join(part if isinstance(part, str) else "[]" for part in path[1:]).replace(".[]", "[]")
    for container in parents:
        if isinstance(container, dict) and "theorem_id" in container and "witness" in container:
            name = container["theorem_id"] + ":" + name.split("witness.", 1)[-1]
            break
    return f"{path[0].split(':')[0]}:{name}"


def _kind(path: tuple, *values) -> str:
    """The kind of a difference, not a float's, at ``path`` between ``values``."""
    if path and path[-1] == "generator_version":
        return "version"
    return "verdict" if any(_is_verdict(path, value) for value in values) else "structural"


def diff(old, new, path=(), parents=None, found=None) -> list:
    """Every difference between two records, as dicts with ``kind``, ``path``
    and, for floats, ``old``, ``new``, ``move`` and ``gate``."""
    parents = [] if parents is None else parents
    found = [] if found is None else found
    where = "/".join(map(str, path))
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys(), key=str):
            if key not in old or key not in new:
                found.append({"kind": _kind(path + (key,), None), "path": f"{where}/{key}",
                              "detail": f"only in {'new' if key not in old else 'old'}"})
            else:
                diff(old[key], new[key], path + (key,), parents + [old], found)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            found.append({"kind": _kind(path, None), "path": where, "detail": f"length {len(old)} -> {len(new)}"})
        for index, (a, b) in enumerate(zip(old, new)):
            diff(a, b, path + (index,), parents + [old], found)
    elif type(old) is float and type(new) is float:
        if old != new and not (math.isnan(old) and math.isnan(new)):
            key = path[-1] if path and isinstance(path[-1], str) else None
            found.append({"kind": "float", "path": where, "field": _field(path, parents),
                          "old": old, "new": new, "move": abs(new - old), "gate": _gate(key, parents)})
    elif type(old) is not type(new) or old != new:
        found.append({"kind": _kind(path, old, new), "path": where, "detail": f"{old!r} -> {new!r}"})
    return found


def summarize(found: list) -> dict:
    """Counts by kind, and each moved float field with its largest move and
    the smallest gate it met."""
    fields = {}
    for item in found:
        if item["kind"] != "float":
            continue
        entry = fields.setdefault(item["field"], {"moves": 0, "max_move": 0.0, "min_gate": None})
        entry["moves"] += 1
        entry["max_move"] = max(entry["max_move"], item["move"])
        if item["gate"] is not None:
            entry["min_gate"] = item["gate"] if entry["min_gate"] is None else min(entry["min_gate"], item["gate"])
    kinds = {kind: sum(item["kind"] == kind for item in found)
             for kind in ("structural", "verdict", "version", "float")}
    return {"counts": kinds, "float_fields": fields}


def _collect_in(tree: Path, matrix: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--collect", matrix],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=tree)


def collect_trees(trees, matrix: str) -> list:
    """The records of ``matrix`` under each tree, collected side by side."""
    runs = [_collect_in(Path(tree).resolve(), matrix) for tree in trees]
    # every collector is reaped before any failure is raised
    outputs = [run.communicate() for run in runs]
    records = []
    for tree, run, (out, err) in zip(trees, runs, outputs):
        if run.returncode != 0:
            raise RuntimeError(f"collecting under {tree} failed (exit {run.returncode}):\n{err[-2000:]}")
        records.append(json.loads(out.splitlines()[-1]))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="OLD_TREE NEW_TREE")
    parser.add_argument("--matrix", choices=("full", "smoke"), default="full")
    parser.add_argument("--json", help="write every difference and the summary here")
    parser.add_argument("--collect", choices=("full", "smoke"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        records = collect(args.collect)
        # pytest may have printed to stdout: the records are the last line
        sys.stdout.write("\n" + json.dumps(records, sort_keys=True) + "\n")
        return 0
    if len(args.trees) != 2:
        parser.error("give OLD_TREE and NEW_TREE")
    try:
        found = diff(*collect_trees(args.trees, args.matrix))
    except RuntimeError as exc:
        print(f"report_diff: {exc}", file=sys.stderr)
        return 2
    summary = summarize(found)
    print(json.dumps(summary["counts"]))
    for item in found:
        if item["kind"] in ("structural", "verdict"):
            print(f"{item['kind']}: {item['path']}: {item['detail']}")
    for field, entry in sorted(summary["float_fields"].items()):
        gate = "none in the report" if entry["min_gate"] is None else f"{entry['min_gate']:.3e}"
        print(f"float: {field}: {entry['moves']} moves, largest {entry['max_move']:.3e}, gate {gate}")
    if args.json:
        Path(args.json).write_text(json.dumps({"summary": summary, "differences": found}, indent=1) + "\n")
    return 1 if summary["counts"]["structural"] or summary["counts"]["verdict"] else 0


if __name__ == "__main__":
    sys.exit(main())
