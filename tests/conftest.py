import importlib
import pkgutil
import sys

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
