"""Suite runner: evaluate every theorem verifier over generated fixtures.

Two modes share one engine:

* ``verify`` draws premise-certified fixtures, so every instance must come
  back with premises met and the conclusion confirmed;
* ``fuzz`` draws randomized instances whose premises may or may not hold,
  hunting for premise-met conclusion failures.

Any instance with premises met and a failed conclusion is a potential
counterexample: it is serialized to a quarantine file (all input matrices,
parameters, tolerance and witness) so the exact run can be replayed.

Each theorem is one entry of ``_THEOREMS``: the name of its verifier with
the builders of its verify and fuzz instances.  A builder returns only an
instance's inputs and params; it draws fixtures through the run's ``draw``,
which records each fixture's ``GenSpec`` in the instance's ``gen`` column,
draws each distinct spec once per run and hands out read-only arrays.

Reproducibility: instance k of a theorem uses RNG stream k; when an instance
needs several independent draws, ``draw(..., sub=j)`` uses stream
``k + j * 2**32``.  The theorems run once each in sorted id order and their
streams in ascending order, so rows come out keyed by (theorem_id, stream)
in order and reports are byte-identical across repeated runs.

A run draws its streams (`_instances`), evaluates each instance (`_record`)
and assembles the report, quarantining failures in (theorem, stream) order.
The CLI splits the streams between two processes (`_split_streams`); a
stream's records (`_stream_records`) are the same in either.
"""

from __future__ import annotations

import json
import time
from functools import cache, partial
from importlib import import_module
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .expansivity import _gram_weight
from .matrix_core import (
    DEFAULT_TOL,
    Tolerance,
    _hermitian_part,
    adjoint,
    json_pieces,
    matrix_from_json,
)

__all__ = [
    "THEOREM_IDS",
    "run_suite",
    "write_quarantine",
    "replay_quarantine",
]

_SUBSTREAM = 1 << 32


def _fuzz_rng(seed: int, stream: int) -> np.random.Generator:
    # Parameter draws for fuzz instances; fixture entries still come from
    # the generator families at derived sub-streams.
    return np.random.Generator(np.random.Philox(key=((stream + 7 * _SUBSTREAM) << 64) | seed))


def _identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


@cache
def _module(name: str):
    """The oplab submodule ``name``, imported at its first use and not with
    this module, which ``oplab.THEOREM_IDS`` loads without running a suite."""
    return import_module(f"{__package__}.{name}")


def _draw(memo, gens, seed, stream, family, dims, sub=0, **params):
    """A fresh dict of the named matrices of one fixture, whose GenSpec (at
    sub-stream ``stream + sub * 2**32``) is appended to the instance's
    ``gens``.  ``memo`` holds one run's fixtures by spec, so a spec is drawn
    once per run and its arrays are shared read-only."""
    generators = _module("generators")
    gs = generators.GenSpec(seed, family, dims, stream + sub * _SUBSTREAM, params)
    gens.append(gs)
    drawn = memo.get(gs)
    if drawn is None:
        drawn = memo[gs] = generators.generate(gs)
        for matrix in drawn.values():
            matrix.setflags(write=False)
    return dict(drawn)


def _unitary(draw, d):
    """The inputs of a Haar unitary against the identity weight."""
    return {"t": draw("haar_unitary", (d,))["t"], "p": _identity(d)}


_FUZZ_FAMILIES = ("haar_unitary", "nilpotent", "drazin_pair", "coupled_kernel", "expansive_invertible")


def _draw_operator(draw, rng, dims):
    """Randomized operator fixture for fuzzing."""
    d1 = int(rng.integers(1, dims[0] + 1))
    d2 = int(rng.integers(1, dims[1] + 1))
    family = _FUZZ_FAMILIES[int(rng.integers(0, len(_FUZZ_FAMILIES)))]
    if family == "haar_unitary":
        return draw(family, (d1,))["t"]
    if family == "nilpotent":
        d = max(2, d1)
        return draw(family, (d,), index=int(rng.integers(1, d + 1)))["t"]
    if family == "drazin_pair":
        return draw(family, (d1, d2), m=1, weight="identity")["t"]
    if family == "coupled_kernel":
        return draw(family, (d1, d2), x_scale=float(rng.uniform(0.0, 2.0)))["t"]
    # scalings bounded away from 1: a draw at the tolerance cliff would
    # satisfy premises only by zero-banding while failing exact conclusions;
    # order-3 certification needs the larger scales to pass rejection
    m = int(rng.choice([1, 3]))
    low = 1.1 if m == 1 else 1.5
    return draw(family, (d1,), m=m, scale=float(rng.uniform(low, 2.5)), perturbation=0.1)["t"]


def _draw_weight(draw, rng, t):
    """Randomized Hermitian PSD weight for a given operator."""
    d = t.shape[0]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return _identity(d)
    if kind == 1:
        return _gram_weight(t, int(rng.integers(1, 3)))
    return draw("psd", (d,), sub=1, condition_cap=float(rng.uniform(1.0, 100.0)))["p"]


def _draw_invertible_weight(draw, rng, t):
    """Randomized invertible PSD weight: never the gram of a singular draw."""
    d = t.shape[0]
    if rng.integers(0, 2):
        return draw("psd", (d,), sub=1, condition_cap=float(rng.uniform(1.0, 50.0)))["p"]
    return _identity(d)


def _verify_power_stability_instance(draw, seed, stream, dims):
    d1, d2 = dims
    variant = stream % 3
    if variant == 0:
        inputs = _unitary(draw, d1)
        m = 1 + (stream // 3) % 3
    elif variant == 1:
        t = draw("coupled_kernel", (d1, d2))["t"]
        inputs = {"t": t, "p": _gram_weight(t, 1)}
        m = 1 + (stream // 3) % 4
    else:
        m = 1 + 2 * ((stream // 3) % 2)
        inputs = {"t": draw("expansive_invertible", (d1,), m=m)["t"], "p": _identity(d1)}
    return inputs, {"m": m, "n_max": 4}


def _verify_no_singular_instance(draw, seed, stream, dims):
    d1, d2 = dims
    variant = stream % 3
    m = 1 + stream % 4
    if variant == 0:
        d = max(2, d1)
        drawn = draw("nilpotent", (d,), index=1 + stream % d)
    elif variant == 1:
        drawn = draw("drazin_pair", (d1, d2), m=m)
    else:
        drawn = draw("coupled_kernel", (d1, d2))
    return {"t": drawn["t"]}, {"m": m}


def _verify_weight_decomposition_instance(draw, seed, stream, dims):
    d1, d2 = dims
    m = 1 + stream % 3
    weight = "identity" if (stream // 3) % 2 == 0 else "commuting"
    drawn = draw("drazin_pair", (d1, d2), m=m, weight=weight)
    t = drawn["t"]
    return {"t1": t[:d1, :d1], "t2": t[d1:, d1:], "p": drawn["p"]}, {"m": m}


def _verify_two_expansive_instance(draw, seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        weight = "identity" if (stream // 2) % 2 == 0 else "commuting"
        return draw("drazin_pair", (d1, d2), m=2, weight=weight), {}
    return _unitary(draw, d1), {}


def _verify_unitary_nilpotent_instance(draw, seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        drawn = draw("drazin_pair", (d1, d2), m=2, nil_index=1)
    else:
        drawn = draw("haar_unitary", (d1,))
    return {"t": drawn["t"]}, {}


def _verify_sandwich_instance(draw, seed, stream, dims):
    d1, d2 = dims
    m = 2 + stream % 2
    if stream % 2 == 0:
        return draw("drazin_pair", (d1, d2), m=m), {"m": m}
    return _unitary(draw, d1), {"m": m}


def _verify_spectral_instance(draw, seed, stream, dims):
    d1, d2 = dims
    variant = stream % 4
    if variant == 0:
        return _unitary(draw, d1), {"m": 2}
    if variant in (1, 2):
        m = 2 * variant - 1  # orders 1 and 3
        return {"t": draw("expansive_invertible", (d1,), m=m)["t"], "p": _identity(d1)}, {"m": m}
    u = draw("haar_unitary", (d1,))["t"]
    s = draw("psd", (d1,), sub=1, condition_cap=4.0)["p"]
    s_inv = np.linalg.inv(s)
    return {"t": s @ u @ s_inv, "p": _hermitian_part(adjoint(s_inv) @ s_inv)}, {"m": 2}


def _verify_transform_bundle_instance(draw, seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        return draw("coupled_kernel", (d1, d2)), {"m": 1 + (stream // 2) % 4, "n": 1 + (stream // 8) % 2}
    return draw("expansive_invertible", (d1,), m=1), {"m": 1, "n": 1}


def _fuzz_recipe(draw_weight, **ranges):
    """Fuzz recipe: a randomized operator, its weight from ``draw_weight``
    (none if None), then one integer param per ``name=(low, high)`` entry of
    ``ranges``, drawn in that order from the instance's parameter RNG."""

    def recipe(draw, seed, stream, dims):
        rng = _fuzz_rng(seed, stream)
        inputs = {"t": _draw_operator(draw, rng, dims)}
        if draw_weight is not None:
            inputs["p"] = draw_weight(draw, rng, inputs["t"])
        return inputs, {name: int(rng.integers(low, high)) for name, (low, high) in ranges.items()}

    return recipe


def _fuzz_weight_decomposition(draw, seed, stream, dims):
    """Fuzz recipe of the orthogonal fixtures t1 (+) t2 the theorem takes."""
    rng = _fuzz_rng(seed, stream)
    d1 = int(rng.integers(1, dims[0] + 1))
    d2 = int(rng.integers(1, dims[1] + 1))
    m = int(rng.integers(1, 4))
    u = draw("haar_unitary", (d1,))["t"]
    n = draw("nilpotent", (d2,), sub=1, index=int(rng.integers(1, d2 + 1)))["t"]
    # unimodular half the time, otherwise scaled decisively away from 1
    scale = 1.0 if rng.integers(0, 2) else float(rng.uniform(1.1, 2.0))
    d = d1 + d2
    if rng.integers(0, 2) == 0:
        p = _identity(d)
    else:
        p = np.zeros((d, d), dtype=np.complex128)
        p[:d1, :d1] = _identity(d1)
    return {"t1": scale * u, "t2": n, "p": p}, {"m": m}


class _Theorem(NamedTuple):
    """One theorem of the suite: its verifier, named on `oplab.theorem_lab`
    and looked up per call (so a rebound attribute is the one called), and
    the builders of its verify and fuzz instances, one per mode.  A builder
    is called as ``builder(draw, seed, stream, dims)`` and returns
    ``(inputs, params)``; ``draw(family, dims, sub=0, **params)`` returns a
    fixture's matrices and records its spec in the instance's ``gen``."""

    verifier: str
    verify: Callable
    fuzz: Callable


_THEOREMS = {
    "power_stability": _Theorem(
        "verify_power_stability", _verify_power_stability_instance,
        _fuzz_recipe(_draw_weight, m=(1, 5), n_max=(2, 6))),
    "no_singular_expansive": _Theorem(
        "verify_no_singular_expansive", _verify_no_singular_instance,
        _fuzz_recipe(None, m=(1, 5))),
    "weight_decomposition": _Theorem(
        "verify_weight_decomposition", _verify_weight_decomposition_instance,
        _fuzz_weight_decomposition),
    "two_expansive_isometry": _Theorem(
        "verify_two_expansive_isometry", _verify_two_expansive_instance,
        _fuzz_recipe(_draw_weight)),
    "unitary_nilpotent_structure": _Theorem(
        "verify_unitary_nilpotent_structure", _verify_unitary_nilpotent_instance,
        _fuzz_recipe(None)),
    "sandwich_isometry": _Theorem(
        "verify_sandwich_isometry", _verify_sandwich_instance,
        _fuzz_recipe(_draw_weight, m=(2, 5))),
    "spectral_constraints": _Theorem(
        "spectral_constraints", _verify_spectral_instance,
        _fuzz_recipe(_draw_invertible_weight, m=(1, 5))),
    "transform_bundle": _Theorem(
        "verify_transform_bundle", _verify_transform_bundle_instance,
        _fuzz_recipe(None, m=(1, 5), n=(1, 3))),
}

THEOREM_IDS = tuple(sorted(_THEOREMS))


def _verdict(theorem_id, inputs, params, tol):
    """The verifier's TheoremVerdict on one instance."""
    return getattr(_module("theorem_lab"), _THEOREMS[theorem_id].verifier)(**inputs, **params, tol=tol)


def _instance_dims(inputs) -> list:
    if "t" in inputs:
        return [int(x) for x in inputs["t"].shape]
    return [int(inputs["t1"].shape[0]) + int(inputs["t2"].shape[0])] * 2


def run_suite(
    mode: str,
    seed: int,
    count: int,
    dims=(4, 3),
    suites=None,
    tol: Tolerance = DEFAULT_TOL,
    quarantine_dir="quarantine",
    *,
    _split=None,
) -> dict:
    """Run ``count`` instances per theorem and assemble the report.

    ``mode`` is "verify" (premise-certified fixtures) or "fuzz" (randomized
    instances).  ``suites`` is one theorem id or an iterable of ids ("all"
    or None runs every theorem); a repeated id runs once.  Premise-met
    failures are quarantined under ``quarantine_dir`` as they are found and
    counted in the report's ``failures`` field.

    The CLI's ``_split(stream_records, count)`` returns every stream's
    `_stream_records`, or None, and then the run is this function's own.
    """
    if mode not in ("verify", "fuzz"):
        raise ValueError(f"unknown suite mode {mode!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if isinstance(suites, str):
        suites = None if suites == "all" else (suites,)
    ids = THEOREM_IDS if suites is None else tuple(sorted(set(suites)))
    if not ids:
        raise ValueError("suites names no theorem")
    for theorem_id in ids:
        if theorem_id not in _THEOREMS:
            raise KeyError(f"unknown theorem id {theorem_id!r}")

    streams = None
    if _split is not None:
        _module("generators"), _module("theorem_lab")  # once, before the split forks
        streams = _split(partial(_stream_records, mode, seed, dims, tol, ids), count)
    if streams is None:
        # every fixture is drawn first; each record is evaluated as it is taken
        records = (_record(seed, tol, *instance) for instance in _instances(mode, seed, dims, ids, range(count)))
    else:
        records = [streams[stream][i] for i in range(len(ids)) for stream in range(count)]

    summary = {theorem_id: dict.fromkeys(("instances", "premises_met", "holds", "failures"), 0)
               for theorem_id in ids}
    rows = []
    quarantined = []
    for row, inputs in records:
        tally = summary[row["theorem_id"]]
        tally["instances"] += 1
        tally["premises_met"] += row["premises_met"]
        tally["holds"] += row["premises_met"] and row["holds"]
        if inputs is not None:
            tally["failures"] += 1
            row["quarantine"] = str(write_quarantine(quarantine_dir, mode, row, inputs, tol))
            quarantined.append(row["quarantine"])
        rows.append(row)

    return {
        "command": mode,
        "seed": seed,
        "count": count,
        "dims": [int(dims[0]), int(dims[1])],
        "tolerance": {"rel_eps": tol.rel_eps, "abs_eps": tol.abs_eps},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "theorems": summary,
        "failures": len(quarantined),
        "quarantine": quarantined,
        "rows": rows,
    }


def _instances(mode, seed, dims, ids, streams) -> list:
    """(theorem_id, stream, gens, inputs, params) of ``streams`` of each of
    ``ids``, in that order, with one memo: theorems ask for the same spec (7
    of the 8 fuzz recipes draw stream k's operator alike) and generate is a
    pure function of its spec, so each spec is drawn once, shared read-only."""
    memo = {}
    instances = []
    for theorem_id in ids:
        build = getattr(_THEOREMS[theorem_id], mode)
        for stream in streams:
            gens = []
            inputs, params = build(partial(_draw, memo, gens, seed, stream), seed, stream, dims)
            instances.append((theorem_id, stream, gens, inputs, params))
    return instances


def _record(seed, tol, theorem_id, stream, gens, inputs, params) -> tuple[dict, dict | None]:
    """An instance's report row and, for a premise-met failure, its inputs."""
    verdict = _verdict(theorem_id, inputs, params, tol)
    row = {
        "theorem_id": theorem_id,
        "seed": seed,
        "stream": stream,
        "gen": [g.to_json() for g in gens],
        "dims": _instance_dims(inputs),
        "params": params,
        "premises_met": verdict.premises_met,
        "holds": verdict.holds,
        "witness": verdict.witness,
    }
    return row, inputs if verdict.premises_met and not verdict.holds else None


def _stream_records(mode, seed, dims, tol, ids, stream) -> list:
    """The `_record` of one stream of each theorem of ``ids``, drawn alone."""
    return [_record(seed, tol, *instance) for instance in _instances(mode, seed, dims, ids, (stream,))]


def write_quarantine(directory, mode, row, inputs, tol: Tolerance) -> Path:
    """Serialize a failed instance so it can be replayed bit-exactly, named
    ``<mode>-<theorem_id>-<seed>-<stream:06d>.json`` so runs can share one directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "theorem_id": row["theorem_id"],
        "stream": row["stream"],
        "gen": row["gen"],
        "params": row["params"],
        "tolerance": {"rel_eps": tol.rel_eps, "abs_eps": tol.abs_eps},
        "inputs": inputs,
        "witness": row["witness"],
    }
    path = directory / f"{mode}-{row['theorem_id']}-{row['seed']}-{row['stream']:06d}.json"
    pieces = json_pieces(payload)  # checked before the file is opened
    with path.open("w") as handle:
        handle.writelines(pieces)
    return path


def replay_quarantine(path) -> dict:
    """Re-run the verifier on a quarantined instance; returns the verdict row."""
    payload = json.loads(Path(path).read_text())
    tol = Tolerance(**payload["tolerance"])
    inputs = {name: matrix_from_json(obj) for name, obj in payload["inputs"].items()}
    verdict = _verdict(payload["theorem_id"], inputs, payload["params"], tol)
    return {
        "theorem_id": payload["theorem_id"],
        "premises_met": verdict.premises_met,
        "holds": verdict.holds,
        "witness": verdict.witness,
    }
