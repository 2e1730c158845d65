"""The CLI's work on a second CPU: one way of sharing work with one forked
child, a list of independent streams (`_split_streams`) claimed from both
ends and sent back pickled, and the one call of ``os.fork``
(`_start_child`).  Five splits use it: the halves of a result's large
matrices (`cli`'s writer), the two halves of a large input file
(`_split_matrix_from_text`), `classify`'s spectral summary and sign
verdicts (`_split_classify`), `drazin`'s core split beside its inverse, and
a suite run's streams.  The OS scheduler places the parent and the child.

From a process's first split on, forked or not, the loaded OpenBLAS runs
one thread in it and in each child (`_split_streams`), so the two processes
never share the CPUs among more BLAS threads than there are CPUs, and a
split writes the same bytes whether or not it starts a child; where no
thread setter is found and the pool is not known to run one thread, the
splits whose child calls BLAS run in one process.

Only `cli` imports this module, on first use, for a payload, a text, an
operator or a suite run at or above its split sizes, which all live there,
so small suites, one-shot queries of small matrices and the library never
compile or load it.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import warnings
from collections.abc import Callable
from functools import cache

import numpy as np

from .expansivity import (ClassificationReport, ClassificationRow, _classes_for, _classification_report, _defect_pass,
                          _spectral_summary)
from .matrix_core import Tolerance, _finite_numbers, _sign_verdict, matrix_from_json

# JSON's whitespace is these four characters, not those of the regex \s
_ROW_BREAK = re.compile(r"\][ \t\n\r]*\][ \t\n\r]*,[ \t\n\r]*\[[ \t\n\r]*\[")
_JSON_SPACE = " \t\n\r"


def _split_matrix_from_text(text: str) -> np.ndarray:
    """``matrix_from_json(json.loads(text))``, parsed by two processes where
    the text allows it.

    A text whose only strings are the three keys of the wire format (6
    quotes, no backslash) is split at a row break ``] ] , [ [`` of its
    ``data`` list (`_data_split`).  The rows after that comma are stream 0
    and those before it stream 1 of `_split_streams`, each parsed with
    ``json.loads`` and `_finite_numbers`.  Every character of the text but
    that comma is parsed by ``json`` itself: the text around ``data``'s
    value, with the value replaced by 0, must parse to exactly ``{rows,
    cols, data}`` with integer ``rows`` and ``cols``, and each half to a
    list of well-formed rows, their counts adding up to ``rows``.  The array
    is then the one-process array bit for bit.  Any other text, any half
    that is not such a list, and a text that did not split, end in the
    one-process parse of the whole text, so every error keeps its type and
    message.
    """
    split = _data_split(text)
    if split is not None:
        rows, cols, start, comma, end = split

        def half(stream: int) -> tuple[int, np.ndarray] | None:
            return _half_rows("[" + text[comma + 1 : end] if stream == 0 else text[start:comma] + "]", cols)

        lower, upper = _split_streams(half, 2, blas=False) or (None, None)
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


def _split_classify(t: np.ndarray, p: np.ndarray, h: np.ndarray, m_max: int, tol: Tolerance) -> ClassificationReport | None:
    """`expansivity.classify` of a checked ``t``, ``p`` and the gated ``h``,
    as m_max + 1 streams of `_split_streams`; None where they did not split,
    and then the caller runs `classify`, which raises any error the defect
    iteration raised here.

    Stream 0 is `_spectral_summary`, and stream k >= 1 the sign verdict
    (`_sign_verdict`) of order m_max - k + 1, read from a shared map of the
    defects.  The last stream, order 1 and this process's first, runs the
    defect iteration into that map and then writes a byte down a pipe,
    which the child reads before its first order: the iteration overlaps the
    child's summary, and the two share the verdicts.
    """
    import mmap

    n, d = m_max, t.shape[0]
    try:
        defects = np.frombuffer(mmap.mmap(-1, 16 * n * d * d), np.complex128).reshape(n, d, d)
    except OSError:
        return None
    ready, go = os.pipe()
    written = False

    def stream_records(k: int):
        nonlocal written
        if k == 0:
            return _spectral_summary(t, p, h, tol)
        if k == n:
            _defect_pass(t, h, range(1, n + 1), tol, defects)
            os.write(go, b"\0")
            written = True
        elif not written:
            os.read(ready, 1)  # every defect is written
            written = True
        return _sign_verdict(defects[n - k], tol)

    try:
        done = _split_streams(stream_records, n + 1)
    finally:
        os.close(ready)
        os.close(go)
    if done is None:
        return None
    rows = tuple(ClassificationRow(m, done[n + 1 - m], _classes_for(done[n + 1 - m])) for m in range(1, n + 1))
    return _classification_report(rows, done[0])


# room for the child's records; a stream that does not fit is left to the
# parent.  Only the pages the child writes are backed, so it can hold a reader
# half of 2^24 entries, the lower half of a 5,792 x 5,792 matrix, whose 1.5 GB
# text the one-process parse needs several GB to read.
_SHARED = 1 << 28


def _split_streams(stream_records: Callable[[int], object], count: int, blas: bool = True) -> list | None:
    """``[stream_records(k) for k in range(count)]``, shared with one child
    (`_start_child`) that takes streams upward from 0 while this process
    takes them downward from the last, each claiming a stream's byte in a
    shared map before it starts it and stopping at the first the other
    claimed, so a child on a busy CPU just does fewer.  Claims are hints:
    where they meet, both may do a stream, and this process keeps its own.
    The child pickles each finished stream into a new anonymous shared mmap
    of `_SHARED` bytes and stops at one that raises or warns or does not
    fit.  This process then reaps it, reads its records only if it exited
    0, freeing each whole page once read, and does every stream not sent or
    not unpickled; on any other way out it kills and reaps the child.

    None when no child was started, or a stream raises or warns here: the
    caller then runs in one process.  No child starts where ``os`` has no
    ``fork``, the process may run on fewer than 2 CPUs
    (``os.sched_getaffinity``), another Python thread runs (whose locks a
    child could find held), a map or the process cannot be had, or the
    streams call BLAS (``blas``) and the loaded BLAS has no known thread
    setter (`_blas_pool`) and is not known to run 1 thread.

    From its first call on, forked or not, the process runs the BLAS pool
    at 1 thread, and so does each child: with a thread per CPU in each
    process, their threads outnumber the CPUs, and a d = 256 `classify`
    took 33 s, not 0.8 s.  Setting it before the fork decision keeps a
    split that starts no child on the pool, and so on the bytes, of one
    that does.  Keeping 1 thread after the reap too beat setting the pool
    back there (`classify --m-max 20` at d = 256: 0.58 against 0.64 s).
    """
    import mmap
    import pickle

    pool = _blas_pool()
    if pool is not None:
        pool(1)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0
    threads = sys.modules.get("threading")
    if not (hasattr(os, "fork") and cpus >= 2 and (threads is None or threads.active_count() == 1)
            and (pool is not None or not blas or {os.environ.get(name) for name in _BLAS_VARIABLES} - {None} == {"1"})):
        return None

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
    with claims:
        child = _start_child(send, _SHARED)
        if child is None:
            return None
        pid, shared = child
        done = {}
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for stream in reversed(range(count)):
                    if claims[stream]:
                        break
                    claims[stream] = 1
                    done[stream] = stream_records(stream)
                try:
                    sent = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
                except ChildProcessError:  # reaped elsewhere, as when SIGCHLD is ignored: its status is lost
                    sent = False
                pid = 0
                with memoryview(shared if sent else b"") as view:  # released before the map closes
                    at = 0
                    while size := int.from_bytes(view[at : at + 8], "little"):
                        try:  # a record cut short by the map's end, or not a (stream, records) pair
                            done.setdefault(*pickle.loads(view[at + 8 : at + 8 + size]))
                        except Exception:
                            break
                        at += 8 + size
                        try:  # the pages read so far, so the map and its unpickled copy are not held at once
                            shared.madvise(mmap.MADV_REMOVE, 0, at - at % mmap.PAGESIZE)
                        except (AttributeError, OSError):  # no MADV_REMOVE (not Linux), or refused: they stay mapped
                            pass
                return [done[stream] if stream in done else stream_records(stream) for stream in range(count)]
        except Exception:
            return None
        finally:
            if pid:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            try:
                shared.close()
            except BufferError:  # a view of it is still held, as in an error's traceback
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
    is none of `_BLAS_SETTERS`.  Looked up at a process's first split, so a
    command that splits nothing never looks it up."""
    try:
        import ctypes

        library = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for name in _BLAS_SETTERS:
        if hasattr(library, name):
            return getattr(library, name)
    return None


def _start_child(work: Callable[[mmap.mmap], None], size: int) -> tuple[int, mmap.mmap] | None:
    """(pid, mmap) of a child running ``work`` on a new anonymous shared mmap
    of ``size`` bytes, or None when the mmap or the process cannot be had:
    the one caller of ``os.fork``, called by `_split_streams` alone.  In the
    child it never returns.

    The child exits 0 only if ``work`` returns.  It runs with its cyclic GC
    off, as a collection would walk every inherited object and copy its
    pages, and with numpy's floating-point warnings and Python's warnings
    raised, not shown: a child that would warn fails, and the parent, doing
    the work itself, shows the warning once.
    """
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
        np.seterr(**{kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"})
        warnings.simplefilter("error")
        work(shared)
        code = 0
    finally:
        os._exit(code)
