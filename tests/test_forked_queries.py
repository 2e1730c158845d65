"""The CLI's query splits, streams of `_forking._split_streams`, each with
one child of `_forking._start_child`: `classify`'s spectral summary (stream
0) and its sign verdicts, one order a stream (`_forking._split_classify`;
its cases at the split size are in test_forked_reader.py), `drazin`'s core
split (stream 0) beside the inverse (stream 1), one fork per stage of each
query, and the BLAS pool they run under; and `_split_streams`'s own result
channel and reap.

Each must give what the one-process path gives, bit for bit, or the same
error and exit code; most cases run on small operators, with the split
size lowered, and one per command at the benchmark's d = 256.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oplab
import oplab._forking as _forking
import oplab.cli as cli
import oplab.decompositions as decompositions
from oplab.expansivity import classify
from oplab.matrix_core import DecompositionError, NumericalFailureError, Tolerance, matrix_to_json

from conftest import assert_same_text, ginibre, held_command, philox, wait_for

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the splits need os.fork")


def report_bits(report) -> tuple:
    return (report.to_json(), np.float64(report.operator_norm).tobytes(),
            np.array(report.eigenvalue_moduli).tobytes())


@pytest.fixture
def small(monkeypatch):
    """A 6 x 6 operator, scaled so its defects change sign with the order,
    and a PSD weight, with `classify` and `drazin` split from 16 entries."""
    monkeypatch.setattr(cli, "_CLASSIFY_SPLIT", 16)
    rng = philox(501)
    g = ginibre(rng, 6)
    return ginibre(rng, 6) / 2.0, g.conj().T @ g / 6 + np.eye(6)


# -- classify ----------------------------------------------------------------

# `_split_classify` takes a verdict through `_forking._sign_verdict`: the
# parent's i-th call is for order i + 1, the child's for order m_max - i

def test_the_claims_meet_at_every_order(children, small, monkeypatch, tmp_path):
    # the child claims nothing until the parent holds its last order, which
    # it finishes only once the child has done the order above it
    t, p = small
    parent, verdict, summary = os.getpid(), _forking._sign_verdict, _forking._spectral_summary
    for m_max in range(1, 21):
        expected = report_bits(classify(t, p, m_max, Tolerance()))
        for meet in range(1, m_max + 1):
            marks = tmp_path / f"{m_max}-{meet}"
            marks.mkdir()
            seen, done = [], []

            def held_summary(*args):
                wait_for(marks / "parent")
                return summary(*args)

            def meeting(h, tol):
                if os.getpid() == parent:
                    seen.append(len(seen) + 1)
                    if len(seen) == meet:
                        (marks / "parent").touch()
                        if meet < m_max:
                            wait_for(marks / "child")
                else:
                    done.append(m_max - len(done))
                    (marks / f"order-{done[-1]}").touch()
                    if done[-1] == meet + 1:
                        (marks / "child").touch()
                return verdict(h, tol)

            monkeypatch.setattr(_forking, "_spectral_summary", held_summary)
            monkeypatch.setattr(_forking, "_sign_verdict", meeting)
            assert report_bits(cli._classify(t, p, m_max, Tolerance())) == expected
            assert seen == list(range(1, meet + 1))
            assert sorted(path.name for path in marks.glob("order-*")) == sorted(
                f"order-{order}" for order in range(meet + 1, m_max + 1))
    assert len(children.pids) == 210


def test_a_child_killed_after_the_summary_or_some_orders_leaves_the_rest_to_the_parent(children, small,
                                                                                      monkeypatch, tmp_path):
    # the child dies as it starts its (k+1)-th order, k = 0 right after the
    # summary, 1 after one order or m_max - 2 after all it can claim; the
    # parent, after claiming order 1, waits for that
    t, p = small
    parent, verdict = os.getpid(), _forking._sign_verdict
    runs = 0
    for m_max in range(1, 21):
        expected = report_bits(classify(t, p, m_max, Tolerance()))
        for k in sorted({0, 1, m_max - 2} & set(range(m_max - 1))):
            dying = tmp_path / f"{m_max}-{k}"
            started = []

            def killed(h, tol):
                if os.getpid() == parent:
                    if not started:
                        wait_for(dying)
                elif len(started) == k:
                    dying.touch()
                    os.kill(os.getpid(), signal.SIGKILL)
                started.append(1)
                return verdict(h, tol)

            monkeypatch.setattr(_forking, "_sign_verdict", killed)
            assert report_bits(cli._classify(t, p, m_max, Tolerance())) == expected
            runs += 1
    assert len(children.pids) == runs == 54


def test_the_child_takes_no_order_before_every_defect_is_written(children, small, monkeypatch, tmp_path):
    # the iteration starts only after the child's summary and a pause in
    # which a child not waiting for the pipe's byte would take its orders
    # from a map of zeros
    t, p = small
    summary, iteration = _forking._spectral_summary, _forking._defect_pass
    summarized = tmp_path / "summarized"

    def marked_summary(*args):
        result = summary(*args)
        summarized.touch()
        return result

    def late_iteration(*args):
        wait_for(summarized)
        time.sleep(0.2)
        return iteration(*args)

    monkeypatch.setattr(_forking, "_spectral_summary", marked_summary)
    monkeypatch.setattr(_forking, "_defect_pass", late_iteration)
    for m_max in (2, 6, 20):
        summarized.unlink(missing_ok=True)
        assert report_bits(cli._classify(t, p, m_max, Tolerance())) == report_bits(classify(t, p, m_max, Tolerance()))
    assert len(children.pids) == 3


def test_a_child_failing_in_the_summary_leaves_the_parent_to_do_all(children, small, monkeypatch):
    t, p = small
    parent, real = os.getpid(), _forking._spectral_summary

    def summary(*args):
        if os.getpid() != parent:
            raise np.linalg.LinAlgError("planted")
        return real(*args)

    monkeypatch.setattr(_forking, "_spectral_summary", summary)
    for m_max in range(1, 21):
        assert report_bits(cli._classify(t, p, m_max, Tolerance())) == report_bits(classify(t, p, m_max, Tolerance()))
    assert len(children.pids) == 20


# -- drazin ------------------------------------------------------------------

def drazin(path, capsys) -> tuple:
    code = cli.main(["drazin", "--matrix", str(path)])
    out, err = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, out, err


@pytest.fixture
def kernel_file(small, tmp_path):
    """A 6 x 6 operator of Drazin index 3: a nilpotent chain beside a Gaussian block."""
    t = small[0].copy()
    t[:, 3:] = 0.0
    t[3:, :] = 0.0
    t[4, 3] = t[5, 4] = 1.0
    path = tmp_path / "t.json"
    path.write_text(json.dumps(matrix_to_json(t)))
    return path


def one_process_drazin(monkeypatch, path, capsys) -> tuple:
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return drazin(path, capsys)


def test_drazin_splits_as_one_process(children, monkeypatch, capsys, kernel_file):
    expected = one_process_drazin(monkeypatch, kernel_file, capsys)
    assert expected[0] == 0 and json.loads(expected[1])["index"] == 3
    assert drazin(kernel_file, capsys) == expected
    assert len(children.pids) == 1


def test_a_failed_core_child_leaves_the_parent_to_split(children, monkeypatch, capsys, kernel_file):
    expected = one_process_drazin(monkeypatch, kernel_file, capsys)
    parent, real = os.getpid(), decompositions._core_nilpotent

    def core(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(decompositions, "_core_nilpotent", core)
    assert drazin(kernel_file, capsys) == expected
    assert len(children.pids) == 1


def test_both_kernels_failing_report_the_core_splits_error(children, monkeypatch, capsys, kernel_file):
    def core(*args):
        raise DecompositionError("the core split failed")

    def inverse(*args):
        raise NumericalFailureError("Drazin identities failed", {"commutator": 1.0})

    monkeypatch.setattr(decompositions, "_core_nilpotent", core)
    monkeypatch.setattr(decompositions, "_drazin_inverse", inverse)
    expected = one_process_drazin(monkeypatch, kernel_file, capsys)
    assert expected == (3, "", "oplab: numerical failure: the core split failed\n")
    assert drazin(kernel_file, capsys) == expected
    assert len(children.pids) == 1


# -- every query at the benchmark's size ----------------------------------------

D = 256


@pytest.fixture(scope="module")
def queries(tmp_path_factory):
    """The benchmark's d = 256 inputs: a 1.2-scaled Haar unitary, and
    K = [[U', X], [0, 0]] with a Haar U' and a Gaussian X."""
    rng = philox(502)
    u, _ = np.linalg.qr(ginibre(rng, D))
    k = np.zeros((D, D), dtype=complex)
    k[: D // 2, : D // 2] = np.linalg.qr(ginibre(rng, D // 2))[0]
    k[: D // 2, D // 2 :] = ginibre(rng, D // 2)
    directory = tmp_path_factory.mktemp("queries")
    for name, a in (("u", 1.2 * u), ("k", k)):
        (directory / f"{name}.json").write_text(json.dumps(matrix_to_json(a)))
    return directory


COMMANDS = {  # argv after the matrix; forks: read, then the query's own, then write
    "classify": (["--m-max", "20"], 2),
    "defect": (["--weight", "gram", "--m", "4"], 2),
    "drazin": ([], 3),
    "transform": ([], 2),
    "split": (["--n", "2"], 2),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_query_forks_once_a_stage_and_writes_the_one_process_bytes(children, monkeypatch, capsys, tmp_path,
                                                                        queries, command):
    # held until the writer's child has started its last lower half, the
    # parent formats the upper halves only
    extra, forks = COMMANDS[command]
    argv = [command, "--matrix", str(queries / ("u.json" if command == "classify" else "k.json")), *extra]
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
    assert children.pids == []
    held_command(monkeypatch, tmp_path / "lower-halves")
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert_same_text(out, expected.out)
    assert err == expected.err
    assert len(children.pids) == forks
    assert children.fallbacks == []


# -- the BLAS pool -------------------------------------------------------------

_BLAS_RUN = """
import ctypes, json, os, sys, time
import numpy as np
from oplab import _forking, cli, decompositions, suite

os.sched_getaffinity = lambda pid: {0, 1}
library = ctypes.CDLL(np._core._multiarray_umath.__file__)
names = [name for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads") if hasattr(library, name)]
get = getattr(library, names[0]) if names else lambda: None
log = os.open(sys.argv[2], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
started, start = [], _forking._start_child
_forking._start_child = lambda *args: started.append(1) or start(*args)

phase, parent = [], os.getpid()

def logged(module, name):
    # where a child starts, the parent waits until it has made a call in
    # this command: so the parent takes no stream before the child's first
    real = getattr(module, name)
    def call(*args):
        os.write(log, (json.dumps([phase[-1], os.getpid(), get()]) + "\\n").encode())
        marker = f"{sys.argv[2]}.{phase[-1]}"
        if os.getpid() != parent:
            open(marker, "w").close()
        deadline = time.monotonic() + 60
        while _forking._blas_pool() is not None and not os.path.exists(marker) and time.monotonic() < deadline:
            time.sleep(0.0005)
        return real(*args)
    setattr(module, name, call)

for module, name in ((_forking, "_spectral_summary"), (_forking, "_sign_verdict"), (decompositions, "_core_nilpotent"),
                     (decompositions, "_drazin_inverse"), (suite, "_stream_records")):
    logged(module, name)
cli._CLASSIFY_SPLIT = 16
before = get()
matrix, out = sys.argv[1], sys.argv[3]
codes = []
for argv in (["classify", "--matrix", matrix, "--m-max", "6"], ["drazin", "--matrix", matrix],
             ["verify", "--suite", "all", "--count", "8", "--dims", "4,3", "--quarantine", os.path.dirname(out)]):
    phase.append(argv[0])
    codes.append(cli.main(argv + ["--output", out]))
print(json.dumps({"codes": codes, "before": before, "setter": _forking._blas_pool() is not None,
                  "forks": len(started), "parent": parent}))
"""


def fresh_process(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` run with ``args`` in a new interpreter that imports this
    tree's oplab, the BLAS variables removed, as in a shell that sets none:
    the pool starts with a thread per CPU."""
    env = {name: value for name, value in os.environ.items()
           if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(oplab.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env,
                          timeout=300)


def test_the_splits_run_blas_on_one_thread_in_both_processes(tmp_path, kernel_file):
    log = tmp_path / "log"
    proc = fresh_process(_BLAS_RUN, kernel_file, log, tmp_path / "out.json")
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["codes"] == [0, 0, 0]
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    if not run["setter"]:
        assert run["forks"] == 0
        return
    assert run["forks"] == 3
    for what in ("classify", "drazin", "verify"):
        pids = {pid for kind, pid, _ in calls if kind == what}
        assert run["parent"] in pids and len(pids) == 2, what
    assert {threads for _, _, threads in calls} == {1}


_THREAD_RUN = """
import hashlib, json, sys, threading
from oplab import _forking, cli

matrix, out = sys.argv[1], sys.argv[2]
started, start = [], _forking._start_child
_forking._start_child = lambda *args: started.append(1) or start(*args)

def run():
    code = cli.main(["classify", "--matrix", matrix, "--m-max", "20", "--output", out])
    with open(out, "rb") as handle:
        return code, hashlib.sha256(handle.read()).hexdigest(), len(started)

release = threading.Event()
other = threading.Thread(target=release.wait, args=(300,))
other.start()
alone = run()
release.set()
other.join(60)
print(json.dumps({"alone": alone, "split": run(), "setter": _forking._blas_pool() is not None}))
"""


def test_a_split_with_another_thread_alive_writes_the_split_bytes(tmp_path, queries):
    # a process's first split starts no child while another thread runs; it
    # must still run the pool the split runs, or the last bits move
    proc = fresh_process(_THREAD_RUN, queries / "u.json", tmp_path / "out.json")
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    (code, alone, forks), (split_code, split, split_forks) = run["alone"], run["split"]
    assert code == split_code == 0 and forks == 0
    assert alone == split
    if run["setter"] and len(os.sched_getaffinity(0)) >= 2:
        assert split_forks == 2


# -- the result channel and the reap ---------------------------------------

def test_records_that_straddle_pages_are_read_as_sent(children, tmp_path):
    # records of 1.5 to 22.6 kB, so lengths and records cross page
    # boundaries; the command holds in the last stream until the child has
    # started the one before it, and the child never sends the last, so it
    # sends streams 0 to 8 whoever claims stream 9.  The pages read are
    # freed as the records are unpickled; a lost length would leave the
    # rest to the command, which must compute none of them
    parent, computed, sent = os.getpid(), [], tmp_path / "sent"

    def stream(k: int) -> bytes:
        if os.getpid() != parent:
            if k == 9:
                raise LookupError("left to the command")
            if k == 8:
                sent.touch()
        else:
            computed.append(k)
            wait_for(sent)
        return bytes([k]) * (1500 + 2345 * k)

    assert _forking._split_streams(stream, 10, blas=False) == [bytes([k]) * (1500 + 2345 * k) for k in range(10)]
    assert computed == [9]
    assert len(children.pids) == 1


def test_a_child_reaped_elsewhere_leaves_every_stream_to_the_command(children):
    # with SIGCHLD ignored the kernel reaps the child, so its exit status,
    # and with it its records, are lost: the command computes all 8 streams
    parent, computed = os.getpid(), []

    def square(k: int) -> int:
        if os.getpid() == parent:
            computed.append(k)
        return k * k

    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert _forking._split_streams(square, 8, blas=False) == [k * k for k in range(8)]
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert sorted(computed) == list(range(8))
    assert len(children.pids) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
