import hashlib
import importlib
import os
import pkgutil
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import oplab


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def ginibre(rng: np.random.Generator, rows: int, cols: int | None = None) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = ginibre(rng, d)
    return (a + a.conj().T) / 2.0


def rank_deficient(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Exactly rank-deficient draw: SVD recomposition with zeroed tail."""
    u, s, vh = np.linalg.svd(ginibre(rng, d))
    s = s.copy()
    s[rank:] = 0.0
    return (u * s) @ vh


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Bind ``replacement`` in place of ``original``, under its name, in every
    oplab module that binds it, after importing every oplab submodule.

    Submodules load on first use: a module left unloaded would escape the
    patch, and one loaded while it is in place would bind ``replacement`` by
    its ``from ... import`` and keep it after monkeypatch undoes the patch.
    """
    for info in pkgutil.iter_modules(oplab.__path__):
        importlib.import_module(f"oplab.{info.name}")
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "oplab" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def rng():
    return philox(20240817)


@pytest.fixture
def children(monkeypatch):
    """Two CPUs whatever the host has, the pids of the children that
    `_forking._start_child`, the one caller of ``os.fork``, starts, and the
    shapes of the lower halves of matrices that this process formatted
    itself in the writer's split (`cli._row_text` with the opening ",").

    The scheduler places the parent and the child: no split may set a CPU
    affinity, so here setting one raises.  No child may outlive the test."""
    # imported here: tests/report_diff.py runs test_cli.py, and so this file,
    # on trees that do not have the module
    import oplab._forking as _forking
    import oplab.cli as cli

    def no_pin(pid, cpus):
        raise AssertionError(f"a split set the affinity of {pid} to {cpus}")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", no_pin)
    seen = types.SimpleNamespace(pids=[], fallbacks=[])
    start, row_text, parent = _forking._start_child, cli._row_text, os.getpid()

    def counting_start(*args):
        child = start(*args)
        if child is not None:
            seen.pids.append(child[0])
        return child

    def counting_rows(a, newline, opening="["):
        if opening == "," and os.getpid() == parent:
            seen.fallbacks.append(a.shape)
        return row_text(a, newline, opening)

    monkeypatch.setattr(_forking, "_start_child", counting_start)
    monkeypatch.setattr(cli, "_row_text", counting_rows)
    yield seen
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wait_for(path: Path) -> None:
    deadline = time.monotonic() + 30
    while not path.exists():
        assert time.monotonic() < deadline, f"{path.name} never came"
        time.sleep(0.0005)


def held_command(monkeypatch, marker: Path, streams: int | None = None, dies: bool = False) -> list:
    """Hold this process in the writer's split, before it formats its first
    half, until the child has started its ``streams``-th stream (by default
    its last lower half, so that it takes every lower half): the child
    touches ``marker`` then, and kills itself if ``dies``.  Returns the
    shapes of the halves this process formatted in the split, in order.
    Patches `cli._row_text`, so it goes after the `children` fixture, which
    does too."""
    import oplab._forking as _forking
    import oplab.cli as cli

    parent, row_text, split = os.getpid(), cli._row_text, _forking._split_streams
    counts, taken, formatted = [], [], []

    def split_streams(records, count, **kwargs):
        counts.append(count)  # the child inherits it
        try:
            return split(records, count, **kwargs)
        finally:
            counts.pop()

    def rows(a, newline, opening="["):
        if counts and os.getpid() != parent:
            taken.append(a.shape)
            if len(taken) == (streams or counts[-1] // 2):
                marker.touch()
                if dies:
                    os.kill(os.getpid(), signal.SIGKILL)
        elif counts:
            wait_for(marker)
            formatted.append(a.shape)
        return row_text(a, newline, opening)

    monkeypatch.setattr(_forking, "_split_streams", split_streams)
    monkeypatch.setattr(cli, "_row_text", rows)
    return formatted


def assert_same_text(actual: str, expected: str) -> None:
    """``actual == expected``, failing with the first offset where they
    differ and each text's length and sha256, not with pytest's diff of the
    two, which is quadratic: on multi-MB texts a failing run looked like a
    hang."""
    if actual == expected:
        return
    low, high = 0, min(len(actual), len(expected))
    while low < high:  # the longest common prefix, by slices
        middle = (low + high + 1) // 2
        low, high = (middle, high) if actual[:middle] == expected[:middle] else (low, middle - 1)
    digests = [(len(text), hashlib.sha256(text.encode()).hexdigest()) for text in (actual, expected)]
    raise AssertionError(f"the texts differ from offset {low} ({actual[low:low + 40]!r} against "
                         f"{expected[low:low + 40]!r}); (length, sha256): {digests[0]} against {digests[1]}")
