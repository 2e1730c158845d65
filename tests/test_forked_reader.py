"""Two of the CLI's stream splits (`_forking._split_streams`, one child
of `_forking._start_child`): reading a large matrix file, its two halves
streams 0 and 1 (`cli._forked_matrix_from_text`, which
`cli._load_matrix` calls for --matrix and --weight), and `classify`'s
spectral summary and sign verdicts (`cli._classify`, at its split size and
its edges; the claims of each order are in test_forked_queries.py).

Each must give what the one-process path gives, bit for bit, or the same
error; no child may outlive its command (the `children` fixture checks that
``os.waitpid(-1, os.WNOHANG)`` finds none); and a child that fails, or none
started, leaves the parent to do the child's work.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import oplab
import oplab._forking as _forking
import oplab.cli as cli
import oplab.matrix_core as matrix_core
from oplab.expansivity import classify
from oplab.matrix_core import Tolerance, dumps_json, matrix_from_json, matrix_to_json

from conftest import ginibre, philox

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="the splits need os.fork")

D = 256
UPPER, LOWER = 10, 200  # a row in each half of a D-row file
SENTINEL = 7.25  # no Gaussian draw here is spelled "7.25"; replaced in the text


@pytest.fixture(scope="module")
def wire():
    """A D x D matrix, its wire-format object and the compact texts of its rows."""
    a = ginibre(philox(401), D)
    obj = matrix_to_json(a)
    return a, obj, [json.dumps(row) for row in obj["data"]]


@pytest.fixture
def narrow(monkeypatch):
    """A D x 4 matrix as `wire` gives one, its text split as a D x D one's
    is: its fault cases reach the reader's branches at a 50th of the text."""
    monkeypatch.setattr(cli, "_SPLIT_TEXT", 4096)
    a = ginibre(philox(408), D, 4)
    obj = matrix_to_json(a)
    return a, obj, [json.dumps(row) for row in obj["data"]]


def texts_of(a, obj, rows) -> types.SimpleNamespace:
    """A matrix's compact text, its one-process outcome and its text in
    oplab's indent-2 layout."""
    return types.SimpleNamespace(compact=compact(rows), read=("array", a.shape, a.tobytes()), indented=dumps_json(a))


@pytest.fixture(scope="module")
def texts(wire):
    """`texts_of` the D x D matrix: built once, as each text takes 0.1 s or more."""
    return texts_of(*wire)


def compact(rows: list, changed: dict = {}, claimed: int = D) -> str:
    """``json.dumps`` of a wire-format object with these row texts, the rows
    in ``changed`` (index: row) replaced and ``claimed`` as its rows."""
    cols = len(json.loads(rows[0]))
    rows = [json.dumps(changed[i]) if i in changed else row for i, row in enumerate(rows)]
    return f'{{"rows": {claimed}, "cols": {cols}, "data": [' + ", ".join(rows) + "]}"


def outcome(read) -> tuple:
    """("array", shape, bits) of what ``read()`` returns, or ("error", type, message)."""
    try:
        a = read()
    except Exception as exc:  # every error, to compare with the one-process read's
        return ("error", type(exc), str(exc))
    return ("array", a.shape, a.tobytes())


def assert_reads_as_one_process(text: str, forks: int, children, expected: tuple | None = None) -> tuple:
    """The one-process outcome of ``text`` (``expected`` where it is known),
    after checking that the reader gives it too, with ``forks`` children
    started so far and none left."""
    if expected is None:
        expected = outcome(lambda: matrix_from_json(json.loads(text)))
    assert outcome(lambda: cli._forked_matrix_from_text(text)) == expected
    assert len(children.pids) == forks
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return expected


def first_entry(row: list, entry: list) -> list:
    return [entry] + row[1:]


FAULTS = {
    "ragged": lambda row: row[:-1],
    "bool": lambda row: first_entry(row, [True, row[0][1]]),
    "string": lambda row: first_entry(row, ["x", row[0][1]]),
    "nan": lambda row: first_entry(row, [float("nan"), row[0][1]]),
    "infinity": lambda row: first_entry(row, [row[0][0], float("inf")]),
    "1e400": lambda row: first_entry(row, [SENTINEL, row[0][1]]),
    "beyond_float_int": lambda row: first_entry(row, [10**400, row[0][1]]),
    "one_element_pair": lambda row: first_entry(row, [row[0][0]]),
}


@pytest.mark.parametrize("where", [UPPER, LOWER])
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_fault_in_either_half_gives_the_one_process_error(children, narrow, fault, where):
    _, obj, rows = narrow
    text = compact(rows, {where: FAULTS[fault](obj["data"][where])}).replace(repr(SENTINEL), "1e400")
    # a string entry adds quotes, so that text is not split
    expected = assert_reads_as_one_process(text, 0 if fault == "string" else 1, children)
    assert expected[:2] == ("error", matrix_core.MatrixFormatError)
    assert f"({where}," in expected[2] or f"row {where}" in expected[2]


def test_rows_that_do_not_add_up_give_the_one_process_error(children, narrow):
    _, _, rows = narrow
    for forks, claimed in enumerate((D - 1, D + 1), start=1):
        expected = assert_reads_as_one_process(compact(rows, claimed=claimed), forks, children)
        assert expected[2] == f"expected {claimed} rows, got {D}"


LAYOUTS = {  # name: (text from the matrix's object and its `texts_of`; whether it is split; full size too)
    "compact": (lambda obj, texts: texts.compact, True, True),
    "no_spaces": (lambda obj, texts: json.dumps(obj, separators=(",", ":")), True, False),
    "oplab_indent_2": (lambda obj, texts: texts.indented, True, True),
    "data_first": (lambda obj, texts: json.dumps({"data": obj["data"], "rows": obj["rows"], "cols": obj["cols"]}),
                   True, True),
    "data_between": (lambda obj, texts: json.dumps({"cols": obj["cols"], "data": obj["data"], "rows": obj["rows"]}),
                     True, False),
    "crlf": (lambda obj, texts: texts.indented.replace("\n", "\r\n"), True, False),
    "bom": (lambda obj, texts: "\ufeff" + texts.compact, False, False),
    "escaped_key": (lambda obj, texts: texts.compact.replace('"data"', '"d\\u0061ta"'), False, False),
    "duplicated_data": (lambda obj, texts: '{"data": [], ' + texts.compact[1:], False, True),
    "extra_key": (lambda obj, texts: '{"extra": 1, ' + texts.compact[1:], False, False),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_layout_reads_as_one_process(children, narrow, wire, texts, layout):
    # on the D x 4 text, and the D x D one for one layout of each family:
    # compact, indented, keys reordered, and refused
    write, splits, full_size = LAYOUTS[layout]
    cases = [(narrow[1], texts_of(*narrow))] + ([(wire[1], texts)] if full_size else [])
    for forks, (obj, made) in enumerate(cases, start=1):
        assert made.compact == json.dumps(obj)
        expected = assert_reads_as_one_process(write(obj, made), forks * splits, children)
        if layout == "bom":
            assert expected[:2] == ("error", json.JSONDecodeError)
        else:
            assert expected == made.read


@pytest.mark.parametrize("space", ["\f", "\u00a0"])
def test_space_json_forbids_at_the_row_break_is_an_error(children, texts, space):
    for forks, text in enumerate((texts.compact, texts.indented), start=1):
        comma = _forking._data_split(text)[3]
        text = text[: comma + 1] + space + text[comma + 1 :]
        expected = assert_reads_as_one_process(text, forks, children)
        assert expected[:2] == ("error", json.JSONDecodeError)


def held_parent(monkeypatch, started: Path) -> list:
    """The texts this process parses through `_forking._half_rows`, each
    parsed only once the child has claimed its half (stream 0) and started
    it: ``started`` is touched then."""
    parent, real, parsed = os.getpid(), _forking._half_rows, []

    def half_rows(text, cols):
        if os.getpid() != parent:
            started.touch()
        else:
            deadline = time.monotonic() + 30
            while not started.exists():
                assert time.monotonic() < deadline, "the child never started its half"
                time.sleep(0.0005)
            parsed.append(text)
        return real(text, cols)

    monkeypatch.setattr(_forking, "_half_rows", half_rows)
    return parsed


def test_the_parent_parses_only_the_upper_half(children, monkeypatch, narrow, tmp_path):
    # a split that quietly parsed everything here would give the same array
    _, obj, rows = narrow
    parsed = held_parent(monkeypatch, tmp_path / "child-started")
    expected = assert_reads_as_one_process(compact(rows), 1, children)
    assert expected[:2] == ("array", (D, 4))
    [upper] = parsed
    upper = json.loads(upper)
    assert 0 < len(upper) < D and upper == obj["data"][: len(upper)]


def test_a_child_claiming_rows_beyond_its_map_leaves_the_parent_to_parse_them(children, monkeypatch, narrow,
                                                                             tmp_path):
    # the child's half does not fit the map, so it sends nothing
    _, obj, rows = narrow
    parsed = held_parent(monkeypatch, tmp_path / "child-started")
    monkeypatch.setattr(_forking, "_SHARED", 64)
    assert assert_reads_as_one_process(compact(rows), 1, children)[:2] == ("array", (D, 4))
    upper, lower = parsed
    assert json.loads(upper) + json.loads(lower) == obj["data"]


def test_integer_minus_zero_reads_as_plus_zero(children, narrow):
    _, obj, rows = narrow
    changed = {i: first_entry(obj["data"][i], [SENTINEL, SENTINEL]) for i in (UPPER, LOWER)}
    text = compact(rows, changed).replace(repr(SENTINEL), "-0")
    assert text.count("[-0, -0]") == 2
    assert_reads_as_one_process(text, 1, children)
    a = cli._forked_matrix_from_text(text)
    assert a[UPPER, 0] == a[LOWER, 0] == 0
    assert not np.signbit(a[[UPPER, LOWER], 0].view(np.float64)).any()


def test_a_text_under_the_split_size_is_read_in_one_process(children):
    a = ginibre(philox(402), 64)
    text = json.dumps(matrix_to_json(a))
    assert len(text) < cli._SPLIT_TEXT
    assert assert_reads_as_one_process(text, 0, children) == ("array", (64, 64), a.tobytes())


def _exit_3(shared):
    os._exit(3)


def _killed(shared):
    os.kill(os.getpid(), signal.SIGKILL)
    os._exit(0)  # not reached


@pytest.mark.parametrize("child", [_exit_3, _killed])
def test_a_failed_reader_child_leaves_the_parent_to_parse_its_rows(children, monkeypatch, texts, child):
    start = _forking._start_child
    monkeypatch.setattr(_forking, "_start_child", lambda work, size: start(child, size))
    assert assert_reads_as_one_process(texts.compact, 1, children, texts.read) == texts.read


def test_one_cpu_no_fork_or_another_thread_reads_in_one_process(children, monkeypatch, texts):
    text, expected = texts.compact, texts.read
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert assert_reads_as_one_process(text, 0, children, expected) == expected
    finally:
        release.set()
        other.join(60)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert assert_reads_as_one_process(text, 0, children, expected) == expected
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert assert_reads_as_one_process(text, 0, children, expected) == expected
    assert assert_reads_as_one_process(text, 1, children, expected) == expected


def test_a_bad_input_file_exits_as_in_one_process(children, monkeypatch, capsys, tmp_path, wire):
    _, obj, rows = wire
    path = tmp_path / "t.json"
    path.write_text(compact(rows, {LOWER: FAULTS["nan"](obj["data"][LOWER])}))
    argv = ["classify", "--matrix", str(path)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_SPLIT_TEXT", float("inf"))
        assert cli.main(argv) == 2
        expected = capsys.readouterr()
    assert children.pids == []
    assert cli.main(argv) == 2
    assert capsys.readouterr() == expected
    assert expected.err == f"oplab: parse error: entry ({LOWER},0) is not finite\n"
    assert len(children.pids) == 1


# -- classify --------------------------------------------------------------

SIDE = 128  # cli._CLASSIFY_SPLIT = SIDE * SIDE


def _weights(rng) -> dict:
    g = ginibre(rng, SIDE)
    return {
        "identity": np.eye(SIDE, dtype=complex),
        "psd": g.conj().T @ g / SIDE,
        "indefinite": (g + g.conj().T) / 2.0,
    }


def report_bits(report) -> tuple:
    return (report.to_json(), np.float64(report.operator_norm).tobytes(),
            np.array(report.eigenvalue_moduli).tobytes())


@pytest.mark.parametrize("weight", ["identity", "psd", "indefinite"])
@pytest.mark.parametrize("scale", [1.0, 1.2])
def test_split_classify_is_the_library_classify(children, weight, scale):
    rng = philox(403)
    q, _ = np.linalg.qr(ginibre(rng, SIDE))
    t, p, tol = scale * q, _weights(rng)[weight], Tolerance()
    expected = report_bits(classify(t, p, 6, tol))
    assert children.pids == []
    assert report_bits(cli._classify(t, p, 6, tol)) == expected
    assert len(children.pids) == 1
    assert expected[0]["p_isometric"] == {"identity": scale == 1.0, "psd": False, "indefinite": None}[weight]


def test_a_matrix_under_the_split_size_classifies_in_one_process(children):
    t = ginibre(philox(404), SIDE - 1)
    p = np.eye(SIDE - 1, dtype=complex)
    assert report_bits(cli._classify(t, p, 3, Tolerance())) == report_bits(classify(t, p, 3, Tolerance()))
    assert children.pids == []


@pytest.mark.parametrize("child", [_exit_3, _killed])
def test_a_failed_classify_child_leaves_the_parent_to_compute_the_summary(children, monkeypatch, child):
    t = ginibre(philox(405), SIDE)
    p = np.eye(SIDE, dtype=complex)
    expected = report_bits(classify(t, p, 4, Tolerance()))
    start = _forking._start_child
    monkeypatch.setattr(_forking, "_start_child", lambda work, size: start(child, size))
    assert report_bits(cli._classify(t, p, 4, Tolerance())) == expected
    assert len(children.pids) == 1


def test_one_cpu_no_fork_or_another_thread_classifies_in_one_process(children, monkeypatch):
    t = ginibre(philox(406), SIDE)
    p = np.eye(SIDE, dtype=complex)
    expected = report_bits(classify(t, p, 2, Tolerance()))
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert report_bits(cli._classify(t, p, 2, Tolerance())) == expected
    finally:
        release.set()
        other.join(60)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert report_bits(cli._classify(t, p, 2, Tolerance())) == expected
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        assert report_bits(cli._classify(t, p, 2, Tolerance())) == expected
    assert children.pids == []


def test_a_defect_pass_that_raises_kills_the_child_and_exits_as_in_one_process(children, monkeypatch, capsys,
                                                                                tmp_path):
    # 1e200 I: the order-1 defect overflows in the parent, and the child's
    # P-isometry check overflows too, which must not show as a warning
    path = tmp_path / "big.json"
    path.write_text(json.dumps(matrix_to_json(1e200 * np.eye(SIDE))))
    argv = ["classify", "--matrix", str(path), "--output", str(tmp_path / "out.json")]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_CLASSIFY_SPLIT", float("inf"))
        assert cli.main(argv) == 3
        expected = capsys.readouterr()
    assert children.pids == []
    assert cli.main(argv) == 3
    assert capsys.readouterr() == expected
    assert expected.err == "oplab: numerical failure: defect overflows: {'order': 1}\n"
    assert len(children.pids) == 1
    assert not (tmp_path / "out.json").exists()


def test_classify_with_a_weight_file_reads_and_classifies_as_one_process(children, monkeypatch, capsys, tmp_path):
    rng = philox(407)
    t = ginibre(rng, D) / 16.0
    g = ginibre(rng, D)
    (tmp_path / "t.json").write_text(json.dumps(matrix_to_json(t)))
    (tmp_path / "p.json").write_text(dumps_json(g.conj().T @ g / D))
    argv = ["classify", "--matrix", str(tmp_path / "t.json"), "--weight", str(tmp_path / "p.json"),
            "--m-max", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_CLASSIFY_SPLIT", float("inf"))
        patch.setattr(cli, "_SPLIT_TEXT", float("inf"))
        patch.setattr(cli, "_SPLIT_ENTRIES", float("inf"))
        assert cli.main(argv) == 0
        expected = capsys.readouterr()
    assert children.pids == []
    assert cli.main(argv) == 0
    assert capsys.readouterr() == expected
    assert len(children.pids) == 3  # two inputs and the summary


# -- what never forks ---------------------------------------------------------

def test_library_readers_and_classify_never_fork(monkeypatch, wire, texts):
    # json_pieces and dumps_json: test_forked_writer.py::test_library_writers_never_fork
    def no_fork():
        raise AssertionError("a library function forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", no_fork)
    a = wire[0]
    text = json.dumps(matrix_to_json(a))
    assert text == texts.compact
    assert matrix_from_json(json.loads(text)).tobytes() == a.tobytes()
    assert len(classify(a / 16.0, np.eye(D), 4).rows) == 4


_WARM_UP = """
import json, os, sys
forks = []
real = os.fork
os.fork = lambda: forks.append(1) or real()
from oplab import cli
code = cli.main(["classify", "--matrix", sys.argv[1], "--m-max", "2", "--output", sys.argv[2]])
loaded = sorted({"mmap", "signal", "oplab._forking"} & set(sys.modules))
print(json.dumps({"code": code, "forks": len(forks), "loaded": loaded}))
"""


def test_the_benchmark_warm_up_call_neither_forks_nor_loads_the_fork_code(tmp_path):
    path = tmp_path / "warm.json"
    path.write_text(json.dumps(matrix_to_json(np.array([[2.0, 0.0], [1.0, 2.0]], dtype=complex))))
    env = dict(os.environ, PYTHONPATH=str(Path(oplab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WARM_UP, str(path), str(tmp_path / "out.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"code": 0, "forks": 0, "loaded": []}
