"""The CLI's work on a second CPU: the one fork helper, `_forked`, and the
four splits that use it, to write a large result matrix
(`_split_row_text`), to read a large input file (`_split_matrix_from_text`),
to compute `classify`'s spectral summary beside its table
(`_split_classify`) and to share a suite run's streams (`_split_streams`).

`matrix_core._forked_row_text`, `matrix_core._forked_matrix_from_text`,
`cli._classify` and `cli._cmd_suite` import this module on first use, for a
matrix, a text, an operator or a suite run at or above their split sizes, so
small suites, one-shot queries of small matrices and the library never
compile or load it.
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

import numpy as np

from .expansivity import ClassificationReport, _classification_report, _classification_rows, _spectral_summary
from .matrix_core import Tolerance, _finite_numbers, _float_template, _row_text, matrix_from_json

# the longest float.__repr__ of a finite float64, as in -2.2250738585072014e-308
_REPR_MAX = 24
# the bytes of the child's text decoded and handed on at once; the child's
# mmap holds its length in its first chunk and its text from the second, so
# each chunk of text starts on a page
_CHUNK = 1 << 16


def _split_row_text(a: np.ndarray, newline: str) -> Iterator[str]:
    """`_row_text` of a matrix ``a`` of at least 2 rows, split at its middle
    row: a child (`_forked`) writes the lower half's text to a shared mmap
    while this thread formats and yields the upper half.  Only when the
    child exited 0 with a length that fits does it yield the child's text,
    `_CHUNK` bytes at a time, freeing each chunk's pages once read;
    otherwise, or when no child was started, it formats those rows itself,
    so the text is the same either way.
    """
    rows, cols = a.shape
    half = rows // 2
    row_bound = 1 + len(newline) + len(_float_template((cols, 2), newline)) + 2 * cols * (_REPR_MAX - 2)

    def write_lower(shared) -> None:
        # its length goes to the first 8 bytes, its text from the second chunk
        shared.seek(_CHUNK)
        for piece in _row_text(a[half:], newline, ","):
            shared.write(piece.encode("ascii"))
        shared[:8] = (shared.tell() - _CHUNK).to_bytes(8, "little")

    with _forked(write_lower, _CHUNK + (rows - half) * row_bound) as wait:
        if wait is None:
            yield from _row_text(a, newline)
            return
        yield from _row_text(a[:half], newline)
        shared = wait()
        length = int.from_bytes(shared[:8], "little") if shared is not None else 0
        if not 0 < length <= len(shared) - _CHUNK:
            yield from _row_text(a[half:], newline, ",")
            return
        import mmap

        for start in range(_CHUNK, _CHUNK + length, _CHUNK):
            yield shared[start : min(start + _CHUNK, _CHUNK + length)].decode("ascii")
            try:
                shared.madvise(mmap.MADV_REMOVE, start, _CHUNK)
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
        with _forked(parse_lower, 8 + 4 * (end - comma)) as wait:
            upper = _half_rows(text[start:comma] + "]", cols)
            shared = wait() if upper is not None and wait is not None else None
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
    """`expansivity.classify` of a checked ``t``, ``p`` and the gated ``h``:
    a child (`_forked`) computes `_spectral_summary` while this process
    tabulates the defects (`_classification_rows`), and sends back ||T||, the
    P-isometry verdict and the spectrum as float64 bits.  If it failed, or
    none was started, this process computes the summary itself, so the
    report is `classify`'s either way; an error in the table leaves the
    child killed."""
    d = t.shape[0]

    def summarize(shared) -> None:
        p_isometric, spectrum, norm = _spectral_summary(t, p, h, tol)
        shared[:16] = np.array([norm, (False, True, None).index(p_isometric)], dtype=np.float64).tobytes()
        shared[16:] = np.asarray(spectrum, dtype=np.complex128).tobytes()

    summary = None
    with _forked(summarize, 16 * (d + 1)) as wait:
        rows = _classification_rows(t, h, m_max, tol)
        shared = wait() if wait is not None else None
        if shared is not None:
            norm, p_isometric = np.frombuffer(shared, np.float64, 2)
            spectrum = np.frombuffer(shared, np.complex128, d, 16).copy()
            summary = (False, True, None)[int(p_isometric)], spectrum, float(norm)
    return _classification_report(rows, summary or _spectral_summary(t, p, h, tol))


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
    with claims, _forked(send, _SUITE_SHARED) as wait:
        if wait is None:
            return None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for stream in reversed(range(count)):
                    if claims[stream]:
                        break
                    claims[stream] = 1
                    done[stream] = stream_records(stream)
                shared = wait()
                while shared is not None and (size := int.from_bytes(shared.read(8), "little")):
                    stream, records = pickle.loads(shared.read(size))
                    done.setdefault(stream, records)
                return [done[stream] if stream in done else stream_records(stream) for stream in range(count)]
        except Exception:
            return None


@contextmanager
def _forked(work: Callable[[mmap.mmap], None], size: int) -> Iterator[Callable[[], mmap.mmap | None] | None]:
    """Run ``work(shared)`` in a forked child on one CPU, ``shared`` a new
    anonymous shared mmap of ``size`` bytes, while the caller goes on on the
    other CPUs: the one way this package forks, for the CLI's large inputs
    and results, `classify`'s spectral summary and suite streams.

    Yields ``wait``, which reaps the child, gives the calling thread back its
    CPUs and returns ``shared`` if the child exited 0, else None; or yields
    None when no child was started: where ``os`` has no ``fork``, the process
    may run on fewer than 2 CPUs (``os.sched_getaffinity``), another Python
    thread runs (whose locks a child could find held), or the mmap or the
    process cannot be had.  Either way the caller does the child's work
    itself.  ``shared`` closes when the block is left, and a child still
    running then is killed and reaped.

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

    with shared:
        try:
            yield wait
        finally:
            if pid:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
                _pin(cpus)


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
