"""The CLI's two-process writer: `cli._forked_json_pieces`.

The lower halves of a payload's large matrices are formatted by one child
of the fork helper (`_forking._forked`) into a shared mmap while the parent
formats their upper halves; the text must be the one-process text byte for
byte, no child may outlive the write, and a child that fails or dies must
leave the parent to format the rows it did not finish.
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

from conftest import ginibre, philox

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
def test_split_text_is_the_one_process_text(children, shape, splits):
    rng = philox(301)
    a = ginibre(rng, *shape)
    a[0, 0] = -2.2250738585072014e-308  # the longest float repr fits the child's bound
    a[-1, -1] = 1e-320 - 1e300j
    payload = {"m": a}
    assert forked_text(payload) == dumps_json(payload)
    assert len(children.pids) == splits
    assert children.fallbacks == []


def test_the_childs_bound_holds_the_longest_floats(children):
    # every float spelled in 24 characters: the mmap is exactly full
    payload = {"m": np.full((SIDE, SIDE), -2.2250738585072014e-308 * (1 + 1j))}
    assert forked_text(payload) == dumps_json(payload)
    assert len(children.pids) == 1
    assert children.fallbacks == []


def test_nested_matrices_each_split_in_turn(children):
    # one child formats the lower halves of a, c and h, in that order
    rng = philox(302)
    payload = {
        "a": ginibre(rng, SIDE),
        "b": {"c": ginibre(rng, SIDE + 3, SIDE), "d": [1.5, "x"], "e": ginibre(rng, 4)},
        "f": {"g": {"h": ginibre(rng, 200)}},
        "i": np.zeros((0, 3), dtype=complex),
    }
    assert forked_text(payload) == dumps_json(payload)
    assert len(children.pids) == 1
    assert children.fallbacks == []


def test_one_cpu_or_no_fork_writes_in_one_process(monkeypatch):
    a = ginibre(philox(303), SIDE)
    started = []
    monkeypatch.setattr(_forking, "_start_child", lambda *args: started.append(args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert forked_text({"a": a}) == dumps_json({"a": a})
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.delattr(os, "fork")
    assert forked_text({"a": a}) == dumps_json({"a": a})
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
        assert "".join(text) == dumps_json({"a": a})
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
        assert forked_text({"a": a}) == dumps_json({"a": a})
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert children.pids == []
    assert forked_text({"a": a}) == dumps_json({"a": a})
    assert len(children.pids) == 1


def test_library_writers_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("the library writer forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    payload = {"a": ginibre(philox(304), 256)}
    assert "".join(json_pieces(payload)) == dumps_json(payload)


@pytest.fixture(scope="module")
def transform_run(tmp_path_factory):
    """A SIDE x SIDE input file and the output of ``oplab transform`` on it
    in one process, made once for the module."""
    path = tmp_path_factory.mktemp("transform") / "t.json"
    path.write_text(json.dumps(matrix_to_json(ginibre(philox(305), SIDE))))
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
def test_cli_output_is_byte_identical(children, capsys, tmp_path, transform_run, transform_input, to_file):
    argv = ["transform", "--matrix", transform_input]
    expected = transform_run[1]
    assert children.pids == []
    if to_file:
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert out.read_text() == expected
    else:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == expected
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
    # 10 pieces: into the first matrix's upper half, its child running
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
    a = ginibre(philox(306), SIDE)
    pieces = cli._forked_json_pieces({"a": a})
    assert next(pieces).startswith("{")
    assert len(children.pids) == 1
    pieces.close()
    pieces = cli._forked_json_pieces({"a": a, "b": a})
    for _, piece in zip(range(5), pieces):
        pass
    assert len(children.pids) == 2
    del pieces  # CPython finalizes the row generator here


def _exit_3(*args):
    os._exit(3)


def _killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)
    os._exit(0)  # not reached


# the ends of the pipes made in the test, the last the writer's
PIPES = []


def _no_length(shared):
    shared.write(b"garbage")
    os._exit(0)


def _too_long(shared):
    # the first matrix's text, its length one byte past its run
    shared.write(b"x" * len(shared))
    os.write(PIPES[-1][1], (len(shared) // 4 + 1).to_bytes(8, "little"))
    os._exit(0)


@pytest.mark.parametrize("child", [_exit_3, _killed, _no_length, _too_long])
def test_a_failed_child_leaves_the_parent_to_format_its_rows(children, monkeypatch, capsys, tmp_path,
                                                              transform_run, transform_input, child):
    argv = ["transform", "--matrix", transform_input]
    expected = transform_run[1]
    forked, pipe = _forking._forked, os.pipe
    monkeypatch.setattr(_forking, "_forked", lambda work, size, **kw: forked(child, size, **kw))
    monkeypatch.setattr(os, "pipe", lambda: PIPES.append(pipe()) or PIPES[-1])
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert out.read_text() == expected
    assert capsys.readouterr() == ("", "")
    assert len(children.pids) == 1
    assert children.fallbacks == [(SIDE - SIDE // 2, SIDE)] * 4


@pytest.mark.parametrize("large", [0, 1, 4, 6])
def test_a_child_dying_after_any_matrix_leaves_the_rest_to_the_parent(children, monkeypatch, large):
    # the child dies as it starts the lower half of matrix `dies`, so the
    # parent formats that half and every later one
    monkeypatch.setattr(cli, "_SPLIT_ENTRIES", 16)
    rng = philox(310)
    payload = {f"m{i}": ginibre(rng, 8 + i, 4) for i in range(large)}
    payload.update(small=ginibre(rng, 3), scalar=2.5)
    expected, parent, row_text = dumps_json(payload), os.getpid(), _forking._row_text

    for dies in range(large + 1):
        started = []

        def dying(a, newline, opening="["):
            if os.getpid() != parent and len(started) == dies:
                os.kill(os.getpid(), signal.SIGKILL)
            started.append(a.shape)
            return row_text(a, newline, opening)

        monkeypatch.setattr(_forking, "_row_text", dying)
        children.fallbacks.clear()
        assert forked_text(payload) == expected
        assert children.fallbacks == [(8 + i - (8 + i) // 2, 4) for i in range(dies, large)]
    assert len(children.pids) == (large + 1 if large else 0)


def test_a_fork_that_fails_leaves_the_parent_to_format_its_rows(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    payload = {"a": ginibre(philox(307), SIDE)}
    assert forked_text(payload) == dumps_json(payload)


def test_the_parent_holds_one_row_or_chunk_not_the_childs_half(children):
    # as test_json_pieces_hold_one_row_of_text_not_the_result, split: the
    # parent holds the upper half's pairs, one row and one chunk of the
    # child's text, never that half
    rng = philox(92)
    payload = {"a": ginibre(rng, SIDE), "b": {"c": ginibre(rng, SIDE), "d": 1.5}, "e": ginibre(rng, SIDE),
               "f": ginibre(rng, SIDE)}
    half_matrix = len(dumps_json(payload["a"])) // 2
    assert half_matrix > 4 * _forking._CHUNK
    with open(os.devnull, "w") as handle:
        tracemalloc.start()
        try:
            handle.writelines(cli._forked_json_pieces(payload))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(children.pids) == 1
    assert children.fallbacks == []
    assert peak < half_matrix

