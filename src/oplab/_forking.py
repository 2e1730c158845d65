"""The CLI's work on a second CPU: the one fork helper, `_forked`, and the
splits that use it, one child each: to write a result's large matrices
(`_split_pieces`), to read a large input file (`_split_matrix_from_text`),
to share `classify`'s sign verdicts beside its spectral summary
(`_split_classify`), to compute `drazin`'s core split beside its inverse
(`_split_pair`) and to share a suite run's streams (`_split_streams`).

From a process's first fork on, the loaded OpenBLAS runs one thread in it
and in each child (`_forked`), so the two processes never share the CPUs
among more BLAS threads than there are CPUs; where no thread setter is
found and the pool is not known to run one thread, the splits whose child
calls BLAS run in one process.

`matrix_core._forked_json_pieces`, `matrix_core._forked_matrix_from_text`,
`cli._classify`, `cli._cmd_drazin` and `cli._cmd_suite` import this module
on first use, for a payload, a text, an operator or a suite run at or above
their split sizes, so small suites, one-shot queries of small matrices and
the library never compile or load it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import cache

import numpy as np

from .expansivity import (ClassificationReport, ClassificationRow, _classes_for, _classification_report,
                          _classification_rows, _defect_pass, _spectral_summary)
from .matrix_core import (Tolerance, _finite_numbers, _float_template, _row_text, _sign_rule, _sign_verdict,
                          matrix_from_json)

# the longest float.__repr__ of a finite float64, as in -2.2250738585072014e-308
_REPR_MAX = 24
# the bytes of the child's text decoded and handed on at once; each matrix's
# text starts on a chunk, so each chunk starts on a page
_CHUNK = 1 << 16


def _split_pieces(out: list, large: list) -> Iterator[str]:
    """The pieces of `matrix_core._forked_json_pieces`: those in ``out``,
    an int i standing for the rows of ``large[i]`` = (matrix, newline), a
    matrix of at least 2 rows.  One child (`_forked`) formats the lower half
    of each such matrix in turn, into its own `_CHUNK`-aligned run of one
    shared mmap, and sends its text's length down a pipe once it is
    written.  This process formats each upper half, then reads that length
    and yields the child's text `_CHUNK` bytes at a time, freeing each
    chunk's pages once read.  From the first matrix whose length does not
    come (the child failed or died) or does not fit its run, or when no
    child was started, it formats the lower halves itself, so the text is
    the same either way.
    """
    import mmap

    starts = [0]
    for a, newline in large:
        rows, cols = a.shape
        row_bound = 1 + len(newline) + len(_float_template(cols, newline)) + 2 * cols * (_REPR_MAX - 2)
        # the lower half's run, its bound rounded up to whole chunks
        starts.append(starts[-1] + -(-(rows - rows // 2) * row_bound // _CHUNK) * _CHUNK)
    readable, writable = os.pipe()

    def write_lower(shared) -> None:
        for (a, newline), start in zip(large, starts):
            shared.seek(start)
            for piece in _row_text(a[a.shape[0] // 2 :], newline, ","):
                shared.write(piece.encode("ascii"))
            os.write(writable, (shared.tell() - start).to_bytes(8, "little"))

    with open(readable, "rb", buffering=0) as lengths, _forked(write_lower, starts[-1]) as child:
        os.close(writable)  # the pipe ends when the child does
        for piece in out:
            if type(piece) is not int:
                yield from (piece,) if type(piece) is str else piece
                continue
            (a, newline), start = large[piece], starts[piece]
            half = a.shape[0] // 2
            yield from _row_text(a[:half], newline)
            length = int.from_bytes(lengths.read(8), "little") if child is not None else 0
            if not 0 < length <= starts[piece + 1] - start:
                child = None
                yield from _row_text(a[half:], newline, ",")
                continue
            for begin in range(start, start + length, _CHUNK):
                yield child[0][begin : min(begin + _CHUNK, start + length)].decode("ascii")
                try:
                    child[0].madvise(mmap.MADV_REMOVE, begin, _CHUNK)
                except (AttributeError, OSError):  # not on Linux: the pages stay until the mmap closes
                    pass


# JSON's whitespace is these four characters, not those of the regex \s
_ROW_BREAK = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*,[ \t\n\r]*\[[ \t\n\r]*\[")
_JSON_SPACE = " \t\n\r"


def _split_matrix_from_text(text: str) -> np.ndarray:
    """``matrix_from_json(json.loads(text))``, parsed by two processes where
    the text allows it.

    A text whose only strings are the three keys of the wire format (6
    quotes, no backslash) is split at a row break ``] ] , [ [`` of its
    ``data`` list (`_data_split`): a child (`_forked`) parses the rows after
    that comma while this process parses those before it, each half with
    ``json.loads`` and `_finite_numbers`, and the child sends back its rows'
    float64 values; if it failed, or none was started, this process parses
    those rows too.  Every character of the text but that comma is parsed by
    ``json`` itself: the text around ``data``'s value, with the value
    replaced by 0, must parse to exactly ``{rows, cols, data}`` with integer
    ``rows`` and ``cols``, and each half to a list of well-formed rows, their
    counts adding up to ``rows``.  The array is then the one-process array
    bit for bit.  Any other text, and any half that is not such a list, ends
    in the one-process parse of the whole text, so every error keeps its
    type and message.
    """
    split = _data_split(text)
    if split is not None:
        rows, cols, start, comma, end = split

        def parse_lower(shared) -> None:
            # rows that are not well-formed (None) fail the child
            count, numbers = _half_rows("[" + text[comma + 1 : end], cols)
            shared[:8] = count.to_bytes(8, "little")
            shared[8 : 8 + numbers.nbytes] = numbers.tobytes()

        # a number takes at least 2 of the text's characters, with its
        # separator: 8 bytes for every 2 characters hold the child's values
        with _forked(parse_lower, 8 + 4 * (end - comma)) as child:
            upper = _half_rows(text[start:comma] + "]", cols)
            shared = child[1]() if upper is not None and child is not None else None
            lower = None
            if shared is not None:
                count = int.from_bytes(shared[:8], "little")
                if 8 + 16 * count * cols <= len(shared):
                    lower = count, np.frombuffer(shared, np.float64, 2 * count * cols, 8).copy()
        if upper is not None and lower is None:
            lower = _half_rows("[" + text[comma + 1 : end], cols)
        if upper is not None and lower is not None and upper[0] + lower[0] == rows:
            return np.concatenate((upper[1], lower[1])).view(np.complex128).reshape(rows, cols)
    return matrix_from_json(json.loads(text))


def _data_split(text: str) -> tuple[int, int, int, int, int] | None:
    """(rows, cols, start, comma, end) of a wire-format text whose only
    strings are its three keys: ``data``'s value is ``text[start:end]``, the
    rest of the text parses with that value replaced by 0 to exactly
    ``{rows, cols, data}`` with integer (not bool) ``rows`` and ``cols``, and
    ``comma`` is the comma of the first row break ``] ] , [ [`` in JSON
    whitespace from the middle of the value on; else None."""
    if text.count('"') != 6 or "\\" in text:
        return None
    quotes = [-1]
    for _ in range(6):
        quotes.append(text.index('"', quotes[-1] + 1))
    keys = [text[quotes[i] + 1 : quotes[i + 1]] for i in (1, 3, 5)]
    if sorted(keys) != ["cols", "data", "rows"]:
        return None
    which = keys.index("data")
    start = _skip_space(text, quotes[2 * which + 2] + 1)
    if text[start : start + 1] != ":":
        return None
    start = _skip_space(text, start + 1)
    # the value ends before the comma ahead of the next key, or before the
    # closing brace when it is the last
    end = _skip_space_back(text, quotes[2 * which + 3] if which < 2 else len(text))
    end = _skip_space_back(text, end - 1)
    if text[start : start + 1] != "[" or text[end - 1 : end] != "]" or end <= start:
        return None
    try:
        envelope = json.loads(text[:start] + "0" + text[end:])
    except (ValueError, RecursionError):
        return None
    if not (isinstance(envelope, dict) and envelope.keys() == {"rows", "cols", "data"}
            and all(type(envelope[key]) is int for key in envelope) and envelope["data"] == 0):
        return None
    found = _ROW_BREAK.search(text, (start + end) // 2, end)
    if found is None:
        return None
    return envelope["rows"], envelope["cols"], start, found.start() + found.group().index(","), end


def _skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i] in _JSON_SPACE:
        i += 1
    return i


def _skip_space_back(text: str, i: int) -> int:
    while i > 0 and text[i - 1] in _JSON_SPACE:
        i -= 1
    return i


def _half_rows(text: str, cols: int) -> tuple[int, np.ndarray] | None:
    """The number of rows of a JSON list of ``cols``-entry rows and their
    `_finite_numbers`, or None when ``text`` does not parse to such rows."""
    try:
        rows = json.loads(text)
    except (ValueError, RecursionError):
        return None
    numbers = _finite_numbers(rows, cols) if isinstance(rows, list) else None
    return None if numbers is None else (len(rows), numbers)


def _split_classify(t: np.ndarray, p: np.ndarray, h: np.ndarray, m_max: int, tol: Tolerance) -> ClassificationReport:
    """`expansivity.classify` of a checked ``t``, ``p`` and the gated ``h``,
    its work shared with a child (`_forked`).  This process runs the defect
    iteration, writing each defect straight into the shared mmap, while the
    child computes `_spectral_summary`.  Then this process takes the orders'
    sign verdicts (`_sign_verdict`) from order 1 up and the child from
    m_max down, each claiming an order's byte before it starts it and
    stopping at the first the other claimed; claims are hints, and where
    both did an order this process keeps its own.  The child sends an
    order's least and largest eigenvalues, which `_sign_rule` makes its
    verdict.  What the child did not finish this process does, so the
    report is `classify`'s either way; an error in the iteration leaves the
    child killed."""
    d, n = t.shape[0], m_max
    # the defects, then per order (least, largest) and the summary as
    # float64 bits, then the claims and the orders the child finished
    found, summary_at = 16 * n * d * d, 16 * n * (d * d + 1)
    claims = summary_at + 16 * (d + 1)
    done = claims + n
    ready, go = os.pipe()

    def summarize_and_claim(shared) -> None:
        p_isometric, spectrum, norm = _spectral_summary(t, p, h, tol)
        shared[summary_at : summary_at + 16] = np.array([norm, (False, True, None).index(p_isometric)]).tobytes()
        shared[summary_at + 16 : claims] = np.asarray(spectrum, dtype=np.complex128).tobytes()
        os.read(ready, 1)  # every defect is written
        defects = np.frombuffer(shared, np.complex128, n * d * d).reshape(n, d, d)
        for k in reversed(range(n)):
            if shared[claims + k]:
                return
            shared[claims + k] = 1
            verdict = _sign_verdict(defects[k], tol)
            shared[found + 16 * k : found + 16 * k + 16] = np.array([verdict.min_eig, verdict.max_eig]).tobytes()
            shared[done + k] = 1

    try:
        with _forked(summarize_and_claim, done + n, blas=True) as child:
            if child is None:
                rows = _classification_rows(t, h, m_max, tol)
                return _classification_report(rows, _spectral_summary(t, p, h, tol))
            shared, wait = child
            defects = np.frombuffer(shared, np.complex128, n * d * d).reshape(n, d, d)
            _defect_pass(t, h, range(1, n + 1), tol, defects)
            os.write(go, b"\0")
            verdicts = {}
            for k in range(n):
                if shared[claims + k]:
                    break
                shared[claims + k] = 1
                verdicts[k] = _sign_verdict(defects[k], tol)
            summary = None
            if wait() is not None:
                norm, p_isometric = np.frombuffer(shared, np.float64, 2, summary_at)
                spectrum = np.frombuffer(shared, np.complex128, d, summary_at + 16).copy()
                summary = (False, True, None)[int(p_isometric)], spectrum, float(norm)
                for k in range(n):
                    if shared[done + k] and k not in verdicts:
                        lo, hi = np.frombuffer(shared, np.float64, 2, found + 16 * k)
                        verdicts[k] = _sign_rule(float(lo), float(hi), tol)
            rows = []
            for k in range(n):
                verdict = verdicts[k] if k in verdicts else _sign_verdict(defects[k], tol)
                rows.append(ClassificationRow(k + 1, verdict, _classes_for(verdict)))
            del defects  # a view of the mmap, which closes with the block
    finally:
        os.close(ready)
        os.close(go)
    return _classification_report(tuple(rows), summary or _spectral_summary(t, p, h, tol))


def _split_pair(first: Callable[[], tuple], second: Callable[[], object]) -> tuple:
    """``(first(), second())``, neither of which returns None, ``first()``
    computed by a child (`_forked`), which pickles it back, while this
    process computes ``second()`` with warnings raised.  Where the child
    failed, or none was started, this process computes ``first()`` itself,
    and where ``second()`` raised or warned it computes it again after
    that, so errors and warnings come in the one-process order."""
    import pickle

    def send(shared) -> None:
        data = pickle.dumps(first(), pickle.HIGHEST_PROTOCOL)
        shared[:8] = len(data).to_bytes(8, "little")
        shared[8 : 8 + len(data)] = data  # ValueError if it does not fit

    sent = result = None
    with _forked(send, 1 << 12, blas=True) as child:
        if child is not None:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = second()
            except Exception:
                pass
            shared = child[1]()
            if shared is not None:
                sent = pickle.loads(shared[8 : 8 + int.from_bytes(shared[:8], "little")])
    return first() if sent is None else sent, second() if result is None else result


# room for the child's records; a stream that does not fit is left to the parent
_SUITE_SHARED = 1 << 24


def _split_streams(stream_records: Callable[[int], list], count: int) -> list | None:
    """``[stream_records(k) for k in range(count)]``, the child (`_forked`)
    taking streams upward from 0 and this process downward from the last,
    each claiming a stream's byte in a shared map before it starts it and
    stopping at the first the other claimed, so a child on a busy CPU just
    does fewer.  Claims are hints: where they meet, both may do a stream,
    and this process keeps its own.  The child pickles each finished
    stream into its mmap and stops at one that raises or warns; this
    process does every stream not sent.  None when no child was started or
    a stream raises or warns here: the caller then runs in one process."""
    import mmap
    import pickle

    def send(shared) -> None:
        for stream in range(count):
            if claims[stream]:
                return
            claims[stream] = 1
            try:
                data = pickle.dumps((stream, stream_records(stream)), pickle.HIGHEST_PROTOCOL)
                shared.write(len(data).to_bytes(8, "little") + data)  # ValueError if it does not fit
            except Exception:
                return

    try:
        claims = mmap.mmap(-1, count)
    except OSError:
        return None
    done = {}
    with claims, _forked(send, _SUITE_SHARED, blas=True) as child:
        if child is None:
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for stream in reversed(range(count)):
                    if claims[stream]:
                        break
                    claims[stream] = 1
                    done[stream] = stream_records(stream)
                shared = child[1]()
                while shared is not None and (size := int.from_bytes(shared.read(8), "little")):
                    stream, records = pickle.loads(shared.read(size))
                    done.setdefault(stream, records)
                return [done[stream] if stream in done else stream_records(stream) for stream in range(count)]
        except Exception:
            return None


@contextmanager
def _forked(work: Callable[[mmap.mmap], None], size: int, blas: bool = False) -> Iterator[tuple | None]:
    """Run ``work(shared)`` in a forked child on one CPU, ``shared`` a new
    anonymous shared mmap of ``size`` bytes, while the caller goes on on the
    other CPUs: the one way this package forks, for the CLI's large inputs
    and results, `classify`'s and `drazin`'s queries and suite streams.

    Yields ``(shared, wait)``: ``wait`` reaps the child, gives the calling
    thread back its CPUs and returns ``shared`` if the child exited 0, else
    None.  Or yields None when no child was started: where ``os`` has no
    ``fork``, the process may run on fewer than 2 CPUs
    (``os.sched_getaffinity``), another Python thread runs (whose locks a
    child could find held), the mmap or the process cannot be had, or
    ``work`` calls BLAS (``blas``) and the loaded BLAS has no known thread
    setter (`_blas_pool`) and is not known to run 1 thread.  Either way the
    caller does the child's work itself.  ``shared`` closes when the block
    is left (or once the last view of it goes), and a child still running
    then is killed and reaped.

    From its first fork on, the process runs the BLAS pool at 1 thread,
    and so does each child: with a thread per CPU in each process, their
    threads outnumber the CPUs, and a d = 256 `classify` took 33 s, not
    0.8 s.  Keeping 1 thread after the reap too beat setting the pool back
    there (`classify --m-max 20` at d = 256: 0.58 against 0.64 s).

    The child exits 0 only if ``work`` returns.  It runs with its cyclic GC
    off, as a collection would walk every inherited object and copy its
    pages, and with numpy's floating-point warnings and Python's warnings
    raised, not shown: a child that would warn fails, and the caller, doing
    the work itself, shows the warning once.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    threads = sys.modules.get("threading")
    child = None
    if hasattr(os, "fork") and len(cpus) >= 2 and (threads is None or threads.active_count() == 1):
        pool = _blas_pool()
        if pool is not None:
            pool(1)
        if pool is not None or not blas or {os.environ.get(name) for name in _BLAS_VARIABLES} - {None} == {"1"}:
            child = _start_child(work, size, max(cpus))
    if child is None:
        yield None
        return
    pid, shared = child
    # the scheduler can leave both processes on one CPU and the other idle
    # for a whole matrix (seen on a 2-core VM), so each gets its own
    _pin(cpus - {max(cpus)})

    def wait() -> mmap.mmap | None:
        nonlocal pid
        try:
            _, status = os.waitpid(pid, 0)
            ok = os.waitstatus_to_exitcode(status) == 0
        except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored: its status is lost
            ok = False
        pid = 0
        _pin(cpus)
        return shared if ok else None

    try:
        yield shared, wait
    finally:
        if pid:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            _pin(cpus)
        try:
            shared.close()
        except BufferError:  # a caller's view of it is still held, as in an error's traceback
            pass


# the thread-count setters of the OpenBLAS builds numpy ships with: scipy-openblas
# (64-bit ints) and others; `nm -D` on the library lists them
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")
# the variables OpenBLAS and MKL read their thread count from; where those set
# all say 1, the pool runs 1 thread
_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@cache
def _blas_pool() -> Callable[[int], None] | None:
    """The thread-count setter of the BLAS that numpy loaded, found by
    symbol through numpy's core extension, which links it; None where there
    is none of `_BLAS_SETTERS`.  Looked up at a process's first fork, so a
    command that forks nothing never looks it up."""
    try:
        import ctypes

        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for name in _BLAS_SETTERS:
        if hasattr(library, name):
            return getattr(library, name)
    return None


def _pin(cpus: set) -> None:
    """Run the calling thread on ``cpus``; a CPU that cannot be had leaves
    it where it was."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _start_child(work: Callable[[mmap.mmap], None], size: int, cpu: int) -> tuple[int, mmap.mmap] | None:
    """(pid, mmap) of a child running ``work`` on a new anonymous shared mmap
    of ``size`` bytes, pinned to ``cpu``, or None when the mmap or the
    process cannot be had.  In the child it never returns."""
    import mmap  # on first use: a process may load this module and never fork

    try:
        shared = mmap.mmap(-1, size)
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        shared.close()
        return None
    if pid:
        return pid, shared
    code = 1
    try:
        gc.disable()
        _pin({cpu})
        np.seterr(**{kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"})
        warnings.simplefilter("error")
        work(shared)
        code = 0
    finally:
        os._exit(code)
