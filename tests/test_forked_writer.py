"""The CLI's two-process writer: `cli._forked_json_pieces`.

The halves of a payload's large matrices are the streams of
`_forking._split_streams`: one child (`_forking._start_child`) starts on
the lower halves and the parent on the upper ones, and either takes what
the other has not claimed.  The text must be the one-process text byte
for byte, no child may outlive the write, and a child that fails or dies
must leave the parent to format the halves it did not send.
"""

import json
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

import oplab._forking as _forking
import oplab.cli as cli
from oplab.matrix_core import dumps_json, json_pieces, matrix_to_json

from conftest import assert_same_text, ginibre, held_command, philox, wait_for

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split writer needs os.fork")

SIDE = 128  # _SPLIT_ENTRIES = SIDE * SIDE


def forked_text(payload) -> str:
    return "".join(cli._forked_json_pieces(payload))


@pytest.mark.parametrize(
    "shape,splits",
    [
        ((1, 1), 0),
        ((1, 3), 0),
        ((1, SIDE * SIDE), 0),  # one row cannot be split
        ((2, SIDE * SIDE // 2), 1),  # a row each
        ((SIDE - 1, SIDE + 1), 0),  # one entry below the split size
        ((SIDE, SIDE), 1),
        ((SIDE + 1, SIDE), 1),  # odd rows: the child takes the larger half
        ((3, 6000), 1),
        ((256, 256), 1),
    ],
)
def test_split_text_is_the_one_process_text(children, monkeypatch, tmp_path, shape, splits):
    rng = philox(301)
    a = ginibre(rng, *shape)
    a[0, 0] = -2.2250738585072014e-308  # the longest float repr
    a[-1, -1] = 1e-320 - 1e300j
    payload = {"m": a}
    held_command(monkeypatch, tmp_path / "lower-halves")
    assert_same_text(forked_text(payload), dumps_json(payload))
    assert len(children.pids) == splits
    assert children.fallbacks == []


def test_the_childs_bound_holds_the_longest_floats(children, monkeypatch, tmp_path):
    # every float spelled in 24 characters, the longest half the child sends
    payload = {"m": np.full((SIDE, SIDE), -2.2250738585072014e-308 * (1 + 1j))}
    held_command(monkeypatch, tmp_path / "lower-halves")
    assert_same_text(forked_text(payload), dumps_json(payload))
    assert len(children.pids) == 1
    assert children.fallbacks == []


def test_nested_matrices_each_split_in_turn(children, monkeypatch, tmp_path):
    # one child formats the lower halves of a, c and h, in that order, and
    # the parent upper halves from a's on, until it meets the child's claims
    rng = philox(302)
    payload = {
        "a": ginibre(rng, SIDE),
        "b": {"c": ginibre(rng, SIDE + 3, SIDE), "d": [1.5, "x"], "e": ginibre(rng, 4)},
        "f": {"g": {"h": ginibre(rng, 200)}},
        "i": np.zeros((0, 3), dtype=complex),
    }
    formatted = held_command(monkeypatch, tmp_path / "lower-halves")
    assert_same_text(forked_text(payload), dumps_json(payload))
    assert formatted and formatted == [(SIDE // 2, SIDE), ((SIDE + 3) // 2, SIDE), (100, 200)][: len(formatted)]
    assert len(children.pids) == 1
    assert children.fallbacks == []


def test_one_cpu_or_no_fork_writes_in_one_process(monkeypatch):
    a = ginibre(philox(303), SIDE)
    started = []
    monkeypatch.setattr(_forking, "_start_child", lambda *args: started.append(args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert_same_text(forked_text({"a": a}), dumps_json({"a": a}))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert_same_text(forked_text({"a": a}), dumps_json({"a": a}))
    assert started == []


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else True,
                    reason="needs 2 CPUs")
def test_the_split_keeps_this_threads_cpus():
    # a real affinity of 2 CPUs: the split forks, and neither it nor its
    # reaping moves this thread
    cpus = os.sched_getaffinity(0)
    pair = set(sorted(cpus)[:2])
    a = ginibre(philox(308), SIDE)
    os.sched_setaffinity(0, pair)
    try:
        started, start = [], _forking._start_child
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_forking, "_start_child", lambda *args: started.append(1) or start(*args))
            pieces = cli._forked_json_pieces({"a": a})
            text = [next(pieces)]
            assert started == [1]
            assert os.sched_getaffinity(0) == pair
            text += pieces
        assert_same_text("".join(text), dumps_json({"a": a}))
        assert os.sched_getaffinity(0) == pair
    finally:
        os.sched_setaffinity(0, cpus)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_process_with_another_thread_writes_in_one_process(children):
    a = ginibre(philox(309), SIDE)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert_same_text(forked_text({"a": a}), dumps_json({"a": a}))
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert children.pids == []
    assert_same_text(forked_text({"a": a}), dumps_json({"a": a}))
    assert len(children.pids) == 1


def test_library_writers_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("the library writer forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    payload = {"a": ginibre(philox(304), 256)}
    assert_same_text("".join(json_pieces(payload)), dumps_json(payload))


@pytest.fixture(scope="module")
def transform_run(tmp_path_factory):
    """A SIDE x SIDE input file and the output of ``oplab transform`` on it
    in one process, made once for the module, on the 1-thread BLAS pool
    that every command after a process's first split runs on."""
    path = tmp_path_factory.mktemp("transform") / "t.json"
    path.write_text(json.dumps(matrix_to_json(ginibre(philox(305), SIDE))))
    pool = _forking._blas_pool()
    if pool is not None:
        pool(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_SPLIT_TEXT", float("inf"))
        patch.setattr(cli, "_SPLIT_ENTRIES", float("inf"))
        patch.delattr(os, "fork")
        assert cli.main(["transform", "--matrix", str(path), "--output", str(path.parent / "out.json")]) == 0
    return str(path), (path.parent / "out.json").read_text()


@pytest.fixture
def transform_input(transform_run, monkeypatch):
    # read in one process: these tests count the writer's children only
    monkeypatch.setattr(cli, "_SPLIT_TEXT", float("inf"))
    return transform_run[0]


@pytest.mark.parametrize("to_file", [True, False])
def test_cli_output_is_byte_identical(children, monkeypatch, capsys, tmp_path, transform_run, transform_input,
                                      to_file):
    argv = ["transform", "--matrix", transform_input]
    expected = transform_run[1]
    assert children.pids == []
    held_command(monkeypatch, tmp_path / "lower-halves")
    if to_file:
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert_same_text(out.read_text(), expected)
    else:
        assert cli.main(argv) == 0
        assert_same_text(capsys.readouterr().out, expected)
    assert len(children.pids) == 1  # for u, p, aluthge and duggal
    assert children.fallbacks == []


class _FailingSink:
    """A stdout that takes ``pieces`` pieces, then fails as a full disk does."""

    def __init__(self, pieces):
        self.left = pieces

    def write(self, text):
        self.left -= 1
        if self.left < 0:
            raise OSError(28, "No space left on device")

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


def test_a_sink_failing_mid_write_leaves_no_child(children, monkeypatch, capsys, transform_input):
    # 10 pieces: into the first matrix's text, its child reaped
    monkeypatch.setattr("sys.stdout", _FailingSink(10))
    assert cli.main(["transform", "--matrix", transform_input]) != 0
    assert "No space left on device" in capsys.readouterr().err
    assert len(children.pids) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_output_file_leaves_no_child(children, capsys, transform_input):
    assert cli.main(["transform", "--matrix", transform_input, "--output", "/dev/full"]) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert len(children.pids) >= 1


def test_pieces_closed_early_leave_no_child(children):
    # the child is reaped before the pieces come back, so pieces dropped
    # after the first leave none, and pieces read in two goes give the
    # one-process text
    a = ginibre(philox(306), SIDE)
    pieces = cli._forked_json_pieces({"a": a})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert next(pieces).startswith("{")
    del pieces
    payload = {"a": a, "b": a}
    pieces = cli._forked_json_pieces(payload)
    read = "".join(piece for _, piece in zip(range(5), pieces))
    assert_same_text(read + "".join(pieces), dumps_json(payload))
    assert len(children.pids) == 2


def _exit_3(*args):
    os._exit(3)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)
    os._exit(0)  # not reached


def _garbage(shared):
    # a stream's length, then bytes that do not unpickle
    shared.write((7).to_bytes(8, "little") + b"garbage")


def _past_the_map(shared):
    # a stream's length one byte past the map
    shared.write((len(shared) - 7).to_bytes(8, "little"))


@pytest.mark.parametrize("child", [_exit_3, _killed, _garbage, _past_the_map])
def test_a_failed_child_leaves_the_parent_to_format_its_rows(children, monkeypatch, capsys, tmp_path,
                                                              transform_run, transform_input, child):
    # the child claims no stream and sends nothing that unpickles, so the
    # parent formats every half once and no row twice
    argv = ["transform", "--matrix", transform_input]
    expected = transform_run[1]
    start, row_text, formatted = _forking._start_child, cli._row_text, []
    monkeypatch.setattr(_forking, "_start_child", lambda work, size: start(child, size))

    def rows(a, newline, opening="["):
        formatted.append((a.shape, opening))
        return row_text(a, newline, opening)

    monkeypatch.setattr(cli, "_row_text", rows)
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert_same_text(out.read_text(), expected)
    assert capsys.readouterr() == ("", "")
    assert len(children.pids) == 1
    assert children.fallbacks == [(SIDE - SIDE // 2, SIDE)] * 4
    assert sorted(formatted) == [((SIDE // 2, SIDE), ",")] * 4 + [((SIDE // 2, SIDE), "[")] * 4


@pytest.mark.parametrize("large", [0, 1, 4, 6])
def test_a_child_dying_after_any_matrix_leaves_the_rest_to_the_parent(children, monkeypatch, tmp_path, large):
    # the parent holds until the child dies as it starts its stream k, the
    # lower half of matrix k for k < large, else an upper half: a dead child
    # sends nothing, so the parent formats every half
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 16)
    rng = philox(310)
    payload = {f"m{i}": ginibre(rng, 8 + i, 4) for i in range(large)}
    payload.update(small=ginibre(rng, 3), scalar=2.5)
    expected = dumps_json(payload)
    for k in range(2 * large - 1):
        with monkeypatch.context() as patch:
            held_command(patch, tmp_path / f"dies-{k}", streams=k + 1, dies=True)
            children.fallbacks.clear()
            assert_same_text(forked_text(payload), expected)
        assert sorted(children.fallbacks) == [(8 + i - (8 + i) // 2, 4) for i in range(large)]
    assert len(children.pids) == max(2 * large - 1, 0)


def test_a_child_held_until_the_parent_claimed_every_stream_sends_nothing(children, monkeypatch, tmp_path,
                                                                         transform_run, transform_input):
    # the child starts only once the parent formats its last stream, the
    # lower half of u, so it finds every stream claimed and exits at once
    claimed, parent, row_text, start = tmp_path / "claimed", os.getpid(), cli._row_text, _forking._start_child
    formatted_in_child, lower = tmp_path / "formatted-in-child", []

    def held(work):
        def run(shared):
            wait_for(claimed)
            work(shared)
        return run

    def rows(a, newline, opening="["):
        if os.getpid() != parent:
            formatted_in_child.touch()
        elif opening == ",":
            lower.append(a.shape)
            if len(lower) == 4:
                claimed.touch()
        return row_text(a, newline, opening)

    monkeypatch.setattr(_forking, "_start_child", lambda work, size: start(held(work), size))
    monkeypatch.setattr(cli, "_row_text", rows)
    out = tmp_path / "out.json"
    assert cli.main(["transform", "--matrix", transform_input, "--output", str(out)]) == 0
    assert_same_text(out.read_text(), transform_run[1])
    assert len(children.pids) == 1
    assert children.fallbacks == [(SIDE - SIDE // 2, SIDE)] * 4
    assert not formatted_in_child.exists()


@pytest.mark.parametrize("uppers", [1, 3])
def test_a_parent_held_until_the_child_took_upper_halves_writes_the_same_bytes(children, monkeypatch, tmp_path,
                                                                              transform_run, transform_input,
                                                                              uppers):
    # u, p, aluthge and duggal: the child takes the 4 lower halves and at
    # least ``uppers`` of the 3 upper halves the parent has not claimed
    formatted = held_command(monkeypatch, tmp_path / "uppers", streams=4 + uppers)
    out = tmp_path / "out.json"
    assert cli.main(["transform", "--matrix", transform_input, "--output", str(out)]) == 0
    assert_same_text(out.read_text(), transform_run[1])
    assert len(children.pids) == 1
    assert children.fallbacks == []
    assert 1 <= len(formatted) <= 4 - uppers


def test_a_fork_that_fails_leaves_the_parent_to_format_its_rows(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    payload = {"a": ginibre(philox(307), SIDE)}
    assert_same_text(forked_text(payload), dumps_json(payload))


def test_the_one_process_writer_holds_one_row_not_the_result(monkeypatch):
    # as test_json_pieces_hold_one_row_of_text_not_the_result: with one CPU
    # in the affinity nothing splits, and each block of rows is printed as
    # it is read, so the peak is below one matrix's text and does not grow
    # with the rows
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    started = []
    monkeypatch.setattr(_forking, "_start_child", lambda *args: started.append(args))
    forked_text({"a": ginibre(philox(92), SIDE)})  # a process's first split loads ctypes to find the BLAS pool
    peaks = []
    for rows in (SIDE, 4 * SIDE):
        rng = philox(92)
        payload = {"a": ginibre(rng, rows, SIDE), "b": {"c": ginibre(rng, rows, SIDE), "d": 1.5},
                   "e": ginibre(rng, rows, SIDE), "f": ginibre(rng, rows, SIDE)}
        with open(os.devnull, "w") as handle:
            tracemalloc.start()
            try:
                handle.writelines(cli._forked_json_pieces(payload))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert started == []
    one_matrix = len(dumps_json(ginibre(philox(92), SIDE)))
    assert peaks[0] < one_matrix
    assert peaks[1] <= peaks[0] * 1.05
