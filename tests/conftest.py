import importlib
import os
import pkgutil
import sys
import types

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
    """Two CPUs whatever the host has, the pids of the children that the
    fork helper (`_forking._forked`) starts, and the shapes of the lower
    halves of matrices that the split writer formatted itself.

    The scheduler places the parent and the child: no split may set a CPU
    affinity, so here setting one raises.  No child may outlive the test."""
    # imported here: tests/report_diff.py runs test_cli.py, and so this file,
    # on trees that do not have the module
    import oplab._forking as _forking

    def no_pin(pid, cpus):
        raise AssertionError(f"a split set the affinity of {pid} to {cpus}")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "sched_setaffinity", no_pin)
    seen = types.SimpleNamespace(pids=[], fallbacks=[])
    start, row_text, parent = _forking._start_child, _forking._row_text, os.getpid()

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
    monkeypatch.setattr(_forking, "_row_text", counting_rows)
    yield seen
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
