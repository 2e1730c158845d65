"""The CLI's suite split through the fork helper `_forking._forked`:
`cli._cmd_suite` shares a run's streams with a child
(`_forking._split_streams`), the child taking streams upward from 0 and the
command downward from the last.

Each call must give what the one-process run gives: the same exit code,
report (``generated_at`` aside), stderr, warnings and quarantine files.  The
one-process side runs with one CPU in the affinity, where `_forked` starts no
child.  No child may outlive its command: after every call,
``os.waitpid(-1, os.WNOHANG)`` finds none (and the `children` fixture checks
it once more at the end).
"""

import json
import os
import signal
import threading
import time
import types
import warnings

import pytest

import oplab.cli as cli
import oplab.suite as suite
import oplab.theorem_lab as theorem_lab
from oplab import NumericalFailureError, TheoremVerdict, replay_quarantine
from oplab.suite import run_suite

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split needs os.fork")


@pytest.fixture
def streams(monkeypatch, tmp_path):
    """The streams this process evaluated through `suite._stream_records`,
    with the command made to wait, before its first stream, until the child
    has claimed stream 0, so that every split has the child take a stream.
    ``child[stream]`` is called in the child before it evaluates ``stream``."""
    real, parent = suite._stream_records, os.getpid()
    started = tmp_path / "child-started"
    seen = types.SimpleNamespace(parent=[], child={})

    def waiting(*args):
        stream = args[-1]
        if os.getpid() != parent:
            started.touch()
            seen.child.get(stream, lambda: None)()
        else:
            deadline = time.monotonic() + 30
            while not seen.parent and not started.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            seen.parent.append(stream)
        return real(*args)

    monkeypatch.setattr(suite, "_stream_records", waiting)
    return seen


def call(argv, tmp_path, capsys) -> tuple:
    """(exit code, report, stderr, warnings, quarantine files) of ``cli.main(argv)``."""
    out, quarantine = tmp_path / "out.json", tmp_path / "q"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main([*argv, "--output", str(out), "--quarantine", str(quarantine)])
    report = json.loads(out.read_text()) if out.exists() else None
    if report is not None:
        report.pop("generated_at")
        out.unlink()
    files = {path.name: path.read_bytes() for path in sorted(quarantine.glob("*.json"))}
    for path in quarantine.glob("*.json"):
        path.unlink()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, report, capsys.readouterr().err, [(w.category, str(w.message)) for w in caught], files


def one_process(monkeypatch, argv, tmp_path, capsys) -> tuple:
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return call(argv, tmp_path, capsys)


def suite_argv(mode, suite_id, count, dims) -> list:
    return [mode, "--suite", suite_id, "--seed", "7", "--count", str(count), "--dims", dims]


SPLIT_CALLS = [
    suite_argv("verify", "all", 8, "4,3"),
    suite_argv("fuzz", "all", 8, "4,3"),
    suite_argv("verify", "all", 10, "3,2"),
    suite_argv("fuzz", "all", 10, "3,2"),
    suite_argv("verify", "transform_bundle", 20, "16,8"),
    suite_argv("fuzz", "weight_decomposition", 20, "16,8"),
]


@pytest.mark.parametrize("argv", SPLIT_CALLS, ids=lambda argv: f"{argv[0]}-{argv[2]}-{argv[-1]}")
def test_a_split_run_reports_as_one_process(children, streams, monkeypatch, capsys, tmp_path, argv):
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert children.pids == [] and streams.parent == []
    assert expected[0] == 0
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1
    count = int(argv[argv.index("--count") + 1])
    # the command took streams from the top, and left the child stream 0
    assert streams.parent[0] == count - 1 and 0 not in streams.parent


def _exit_3():
    os._exit(3)


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("fail", [_exit_3, _killed])
def test_a_failed_child_leaves_the_command_to_do_its_streams(children, streams, monkeypatch, capsys, tmp_path,
                                                             fail, stream):
    argv = suite_argv("verify", "all", 8, "4,3")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    streams.child[stream] = fail
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1
    assert sorted(streams.parent) == list(range(8))


def test_records_that_do_not_fit_are_left_to_the_command(children, streams, monkeypatch, capsys, tmp_path):
    import oplab._forking as _forking

    argv = suite_argv("verify", "all", 8, "4,3")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    monkeypatch.setattr(_forking, "_SHARED", 64)
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1
    assert sorted(streams.parent) == list(range(8))


def _planted(monkeypatch, streams, make):
    """`suite._record` calling ``make(stream)`` before it evaluates each of
    ``streams`` of the first theorem, in either process and on either path."""
    real = suite._record

    def record(seed, tol, theorem_id, *args):
        if args[0] in streams and theorem_id == suite.THEOREM_IDS[0]:
            make(args[0])
        return real(seed, tol, theorem_id, *args)

    monkeypatch.setattr(suite, "_record", record)


def _warn(stream):
    warnings.warn(f"planted at stream {stream}")


@pytest.mark.parametrize("planted", [(0,), (3,), (7,), (1, 6)])
def test_warnings_are_shown_once_each_in_order_as_in_one_process(children, streams, monkeypatch, capsys,
                                                                   tmp_path, planted):
    # a child that would warn stops there, and the command, meeting a
    # warning on any stream, runs in one process: so two warnings come in
    # the order of their streams, not in the order the command met them
    _planted(monkeypatch, planted, _warn)
    argv = suite_argv("fuzz", "all", 8, "4,3")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert expected[3] == [(UserWarning, f"planted at stream {stream}") for stream in planted]
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1


def _raise(stream):
    raise NumericalFailureError("planted", {"stream": stream})


@pytest.mark.parametrize("stream", [0, 7])
def test_a_stream_that_raises_exits_as_in_one_process(children, streams, monkeypatch, capsys, tmp_path, stream):
    _planted(monkeypatch, (stream,), _raise)
    argv = suite_argv("verify", "all", 8, "4,3")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert expected == (3, None, f"oplab: numerical failure: planted: {{'stream': {stream}}}\n", [], {})
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1


def test_a_fixture_that_cannot_be_drawn_exits_as_in_one_process(children, streams, monkeypatch, capsys, tmp_path):
    # power_stability at (16,8) and seed 7 exhausts its resampling budget
    argv = suite_argv("verify", "power_stability", 25, "16,8")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert expected[0] == 3
    assert expected[2].startswith("oplab: numerical failure: resampling budget (50) exhausted")
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1


def test_quarantine_files_are_the_same_split_or_not(children, streams, monkeypatch, capsys, tmp_path):
    # the conclusion fails on the first and the last stream: one in each
    # process; the child inherits the patch
    count = 8
    argv = suite_argv("verify", "all", count, "4,3")
    ends = {instance[3]["t"].tobytes()
            for instance in suite._instances("verify", 7, (4, 3), ("power_stability",), (0, count - 1))}
    real = theorem_lab.verify_power_stability

    def failing(**kwargs):
        verdict = real(**kwargs)
        if kwargs["t"].tobytes() not in ends:
            return verdict
        return TheoremVerdict(verdict.theorem_id, verdict.premises_met, False, verdict.witness)

    monkeypatch.setattr(theorem_lab, "verify_power_stability", failing)
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    code, report, err, caught, files = call(argv, tmp_path, capsys)
    assert (code, report, err, caught, files) == expected
    assert code == 4 and report["failures"] == 2
    assert list(files) == [f"verify-power_stability-7-{stream:06d}.json" for stream in (0, count - 1)]
    assert [path.rsplit("/", 1)[1] for path in report["quarantine"]] == list(files)
    assert 0 not in streams.parent
    rows = {row["stream"]: row for row in report["rows"] if "quarantine" in row}
    for name, text in files.items():
        path = tmp_path / name
        path.write_bytes(text)
        row = rows[json.loads(text)["stream"]]
        replayed = replay_quarantine(path)
        assert json.loads(json.dumps(replayed)) == {key: row[key] for key in replayed}
        assert replayed["premises_met"] and not replayed["holds"]


def test_one_cpu_no_fork_or_another_thread_runs_in_one_process(children, streams, monkeypatch, capsys, tmp_path):
    argv = suite_argv("verify", "all", 8, "4,3")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert call(argv, tmp_path, capsys) == expected
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert call(argv, tmp_path, capsys) == expected
    finally:
        release.set()
        other.join(60)
    assert children.pids == [] and streams.parent == []
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1


def test_a_run_under_the_split_minimum_runs_in_one_process(children, streams, monkeypatch, capsys, tmp_path):
    # 6 streams of 8 theorems at (4,3) are under the minimum, 7 reach it
    argv = suite_argv("verify", "all", 6, "4,3")
    assert cli._suite_ms(6, cli._THEOREM_IDS, (4, 3)) < cli._SUITE_SPLIT <= cli._suite_ms(7, cli._THEOREM_IDS, (4, 3))
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert call(argv, tmp_path, capsys) == expected
    assert children.pids == [] and streams.parent == []
    # one stream is never split, whatever its work
    monkeypatch.setattr(cli, "_SUITE_SPLIT", 0)
    one = suite_argv("verify", "all", 1, "4,3")
    assert call(one, tmp_path, capsys) == one_process(monkeypatch, one, tmp_path, capsys)
    assert children.pids == []
    assert call(suite_argv("verify", "all", 2, "4,3"), tmp_path, capsys)[0] == 0
    assert len(children.pids) == 1


def test_the_library_run_suite_never_forks(monkeypatch, tmp_path):
    def no_fork():
        raise AssertionError("the library forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    report = run_suite("verify", seed=7, count=25, dims=(4, 3), quarantine_dir=tmp_path / "q")
    assert report["failures"] == 0 and len(report["rows"]) == 200


def test_few_streams_at_large_dims_split(children, streams, monkeypatch, capsys, tmp_path):
    # an instance's cost grows faster than d1 + d2: 3 streams at (64,32)
    # took about 128 ms in one process and 83 ms split
    argv = suite_argv("verify", "sandwich_isometry", 3, "64,32")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert expected[0] == 0
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1
    assert streams.parent[0] == 2 and 0 not in streams.parent


@pytest.mark.parametrize("count,theorems,dims", [(25, 8, (4, 3)), (25, 1, (16, 8)), (400, 1, (16, 8)),
                                                 (15, 1, (64, 32))])
def test_every_benchmark_suite_call_splits(count, theorems, dims):
    # perfbench's suite calls: --suite all at (4,3), and each theorem at
    # (16,8) and (64,32)
    runs = [cli._THEOREM_IDS] if theorems == 8 else [(theorem,) for theorem in cli._THEOREM_IDS]
    for run in runs:
        assert cli._suite_ms(count, run, dims) >= cli._SUITE_SPLIT


def test_theorems_are_priced_each_at_its_cost(children, streams, monkeypatch, capsys, tmp_path):
    # transform_bundle costs about 1.6 times the theorems' mean at (16,8):
    # 12 streams of it split (43.6 -> 32.2 ms), and the factors keep the
    # mean, so --suite all is priced as before
    assert sum(cli._THEOREM_COST.values()) == pytest.approx(len(cli._THEOREM_IDS))
    argv = suite_argv("verify", "transform_bundle", 12, "16,8")
    expected = one_process(monkeypatch, argv, tmp_path, capsys)
    assert call(argv, tmp_path, capsys) == expected
    assert len(children.pids) == 1
