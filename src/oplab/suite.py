"""Suite runner: evaluate every theorem verifier over generated fixtures.

Two modes share one engine:

* ``verify`` draws premise-certified fixtures, so every instance must come
  back with premises met and the conclusion confirmed;
* ``fuzz`` draws randomized instances whose premises may or may not hold,
  hunting for premise-met conclusion failures.

Any instance with premises met and a failed conclusion is a potential
counterexample: it is serialized to a quarantine file (all input matrices,
parameters, tolerance and witness) so the exact run can be replayed.

Reproducibility: instance k of a theorem uses RNG stream k; when an instance
needs several independent draws, draw j uses stream ``k + j * 2**32``.  Rows
are keyed by (theorem_id, stream) and sorted, so reports are byte-identical
across repeated runs.  Instances are evaluated serially: small-matrix
verifiers hold the GIL, and a thread pool measured slower than one thread.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .expansivity import gram_weight
from .generators import GenSpec, generate
from .matrix_core import (
    DEFAULT_TOL,
    Tolerance,
    adjoint,
    dumps_json,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
)
from .theorem_lab import (
    spectral_constraints,
    verify_no_singular_expansive,
    verify_power_stability,
    verify_sandwich_isometry,
    verify_transform_bundle,
    verify_two_expansive_isometry,
    verify_unitary_nilpotent_structure,
    verify_weight_decomposition,
)

__all__ = [
    "THEOREM_IDS",
    "run_suite",
    "write_quarantine",
    "replay_quarantine",
]

_SUBSTREAM = 1 << 32


def _run_power_stability(inputs, params, tol):
    return verify_power_stability(inputs["t"], inputs["p"], params["m"], params["n_max"], tol)


def _run_no_singular(inputs, params, tol):
    return verify_no_singular_expansive(inputs["t"], params["m"], tol)


def _run_weight_decomposition(inputs, params, tol):
    return verify_weight_decomposition(inputs["t1"], inputs["t2"], inputs["p"], params["m"], tol)


def _run_two_expansive(inputs, params, tol):
    return verify_two_expansive_isometry(inputs["t"], inputs["p"], tol)


def _run_unitary_nilpotent(inputs, params, tol):
    return verify_unitary_nilpotent_structure(inputs["t"], tol)


def _run_sandwich(inputs, params, tol):
    return verify_sandwich_isometry(inputs["t"], inputs["p"], params["m"], tol)


def _run_spectral(inputs, params, tol):
    return spectral_constraints(inputs["t"], inputs["p"], params["m"], tol)


def _run_transform_bundle(inputs, params, tol):
    _, verdict = verify_transform_bundle(inputs["t"], params["n"], params["m"], tol)
    return verdict


RUNNERS = {
    "power_stability": _run_power_stability,
    "no_singular_expansive": _run_no_singular,
    "weight_decomposition": _run_weight_decomposition,
    "two_expansive_isometry": _run_two_expansive,
    "unitary_nilpotent_structure": _run_unitary_nilpotent,
    "sandwich_isometry": _run_sandwich,
    "spectral_constraints": _run_spectral,
    "transform_bundle": _run_transform_bundle,
}

THEOREM_IDS = tuple(sorted(RUNNERS))


def _fuzz_rng(seed: int, stream: int) -> np.random.Generator:
    # Parameter draws for fuzz instances; fixture entries still come from
    # the generator families at derived sub-streams.
    return np.random.Generator(np.random.Philox(key=((stream + 7 * _SUBSTREAM) << 64) | seed))


def _identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def _draw_operator(seed, stream, rng, dims, families=("haar_unitary", "nilpotent", "drazin_pair", "coupled_kernel", "expansive_invertible")):
    """Randomized operator fixture for fuzzing, named by its GenSpec."""
    d1 = int(rng.integers(1, dims[0] + 1))
    d2 = int(rng.integers(1, dims[1] + 1))
    family = families[int(rng.integers(0, len(families)))]
    if family == "haar_unitary":
        gs = GenSpec(seed, "haar_unitary", (d1,), stream)
    elif family == "nilpotent":
        d = max(2, d1)
        gs = GenSpec(seed, "nilpotent", (d,), stream, params={"index": int(rng.integers(1, d + 1))})
    elif family == "drazin_pair":
        gs = GenSpec(seed, "drazin_pair", (d1, d2), stream, params={"m": 1, "weight": "identity"})
    elif family == "coupled_kernel":
        gs = GenSpec(seed, "coupled_kernel", (d1, d2), stream,
                     params={"x_scale": float(rng.uniform(0.0, 2.0))})
    else:
        # scalings bounded away from 1: a draw at the tolerance cliff would
        # satisfy premises only by zero-banding while failing exact conclusions;
        # order-3 certification needs the larger scales to pass rejection
        m = int(rng.choice([1, 3]))
        low = 1.1 if m == 1 else 1.5
        gs = GenSpec(seed, "expansive_invertible", (d1,), stream,
                     params={"m": m, "scale": float(rng.uniform(low, 2.5)), "perturbation": 0.1})
    return gs, generate(gs)["t"]


def _draw_weight(seed, stream, rng, t):
    """Randomized Hermitian PSD weight for a given operator."""
    d = t.shape[0]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return [], _identity(d)
    if kind == 1:
        return [], gram_weight(t, int(rng.integers(1, 3)))
    gs = GenSpec(seed, "psd", (d,), stream + _SUBSTREAM,
                 params={"condition_cap": float(rng.uniform(1.0, 100.0))})
    return [gs], generate(gs)["p"]


def _verify_power_stability_instance(seed, stream, dims):
    d1, d2 = dims
    variant = stream % 3
    if variant == 0:
        gs = GenSpec(seed, "haar_unitary", (d1,), stream)
        t = generate(gs)["t"]
        p = _identity(d1)
        m = 1 + (stream // 3) % 3
    elif variant == 1:
        gs = GenSpec(seed, "coupled_kernel", (d1, d2), stream)
        t = generate(gs)["t"]
        p = gram_weight(t, 1)
        m = 1 + (stream // 3) % 4
    else:
        m = 1 + 2 * ((stream // 3) % 2)
        gs = GenSpec(seed, "expansive_invertible", (d1,), stream, params={"m": m})
        t = generate(gs)["t"]
        p = _identity(d1)
    return [gs], {"t": t, "p": p}, {"m": m, "n_max": 4}


def _verify_no_singular_instance(seed, stream, dims):
    d1, d2 = dims
    variant = stream % 3
    m = 1 + stream % 4
    if variant == 0:
        d = max(2, d1)
        gs = GenSpec(seed, "nilpotent", (d,), stream, params={"index": 1 + stream % d})
        t = generate(gs)["t"]
    elif variant == 1:
        gs = GenSpec(seed, "drazin_pair", (d1, d2), stream, params={"m": m})
        t = generate(gs)["t"]
    else:
        gs = GenSpec(seed, "coupled_kernel", (d1, d2), stream)
        t = generate(gs)["t"]
    return [gs], {"t": t}, {"m": m}


def _verify_weight_decomposition_instance(seed, stream, dims):
    d1, d2 = dims
    m = 1 + stream % 3
    weight = "identity" if (stream // 3) % 2 == 0 else "commuting"
    gs = GenSpec(seed, "drazin_pair", (d1, d2), stream, params={"m": m, "weight": weight})
    drawn = generate(gs)
    t, p = drawn["t"], drawn["p"]
    return [gs], {"t1": t[:d1, :d1], "t2": t[d1:, d1:], "p": p}, {"m": m}


def _verify_two_expansive_instance(seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        weight = "identity" if (stream // 2) % 2 == 0 else "commuting"
        gs = GenSpec(seed, "drazin_pair", (d1, d2), stream, params={"m": 2, "weight": weight})
        drawn = generate(gs)
        return [gs], {"t": drawn["t"], "p": drawn["p"]}, {}
    gs = GenSpec(seed, "haar_unitary", (d1,), stream)
    return [gs], {"t": generate(gs)["t"], "p": _identity(d1)}, {}


def _verify_unitary_nilpotent_instance(seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        gs = GenSpec(seed, "drazin_pair", (d1, d2), stream,
                     params={"m": 2, "nil_index": 1})
        return [gs], {"t": generate(gs)["t"]}, {}
    gs = GenSpec(seed, "haar_unitary", (d1,), stream)
    return [gs], {"t": generate(gs)["t"]}, {}


def _verify_sandwich_instance(seed, stream, dims):
    d1, d2 = dims
    m = 2 + stream % 2
    if stream % 2 == 0:
        gs = GenSpec(seed, "drazin_pair", (d1, d2), stream, params={"m": m})
        drawn = generate(gs)
        return [gs], {"t": drawn["t"], "p": drawn["p"]}, {"m": m}
    gs = GenSpec(seed, "haar_unitary", (d1,), stream)
    return [gs], {"t": generate(gs)["t"], "p": _identity(d1)}, {"m": m}


def _verify_spectral_instance(seed, stream, dims):
    d1, d2 = dims
    variant = stream % 4
    if variant == 0:
        gs = GenSpec(seed, "haar_unitary", (d1,), stream)
        return [gs], {"t": generate(gs)["t"], "p": _identity(d1)}, {"m": 2}
    if variant == 1:
        gs = GenSpec(seed, "expansive_invertible", (d1,), stream, params={"m": 1})
        return [gs], {"t": generate(gs)["t"], "p": _identity(d1)}, {"m": 1}
    if variant == 2:
        gs = GenSpec(seed, "expansive_invertible", (d1,), stream, params={"m": 3})
        return [gs], {"t": generate(gs)["t"], "p": _identity(d1)}, {"m": 3}
    gs_u = GenSpec(seed, "haar_unitary", (d1,), stream)
    gs_s = GenSpec(seed, "psd", (d1,), stream + _SUBSTREAM, params={"condition_cap": 4.0})
    u = generate(gs_u)["t"]
    s = generate(gs_s)["p"]
    s_inv = np.linalg.inv(s)
    t = s @ u @ s_inv
    p = hermitian_part(adjoint(s_inv) @ s_inv)
    return [gs_u, gs_s], {"t": t, "p": p}, {"m": 2}


def _verify_transform_bundle_instance(seed, stream, dims):
    d1, d2 = dims
    if stream % 2 == 0:
        gs = GenSpec(seed, "coupled_kernel", (d1, d2), stream)
        m = 1 + (stream // 2) % 4
        n = 1 + (stream // 8) % 2
        return [gs], {"t": generate(gs)["t"]}, {"m": m, "n": n}
    gs = GenSpec(seed, "expansive_invertible", (d1,), stream, params={"m": 1})
    return [gs], {"t": generate(gs)["t"]}, {"m": 1, "n": 1}


_VERIFY_BUILDERS = {
    "power_stability": _verify_power_stability_instance,
    "no_singular_expansive": _verify_no_singular_instance,
    "weight_decomposition": _verify_weight_decomposition_instance,
    "two_expansive_isometry": _verify_two_expansive_instance,
    "unitary_nilpotent_structure": _verify_unitary_nilpotent_instance,
    "sandwich_isometry": _verify_sandwich_instance,
    "spectral_constraints": _verify_spectral_instance,
    "transform_bundle": _verify_transform_bundle_instance,
}


def _fuzz_instance(theorem_id, seed, stream, dims):
    rng = _fuzz_rng(seed, stream)
    gens = []
    if theorem_id == "weight_decomposition":
        d1 = int(rng.integers(1, dims[0] + 1))
        d2 = int(rng.integers(1, dims[1] + 1))
        m = int(rng.integers(1, 4))
        gs_u = GenSpec(seed, "haar_unitary", (d1,), stream)
        gs_n = GenSpec(seed, "nilpotent", (d2,), stream + _SUBSTREAM,
                       params={"index": int(rng.integers(1, d2 + 1))})
        # unimodular half the time, otherwise scaled decisively away from 1
        scale = 1.0 if rng.integers(0, 2) else float(rng.uniform(1.1, 2.0))
        t1 = scale * generate(gs_u)["t"]
        t2 = generate(gs_n)["t"]
        d = d1 + d2
        if rng.integers(0, 2) == 0:
            p = _identity(d)
        else:
            p = np.zeros((d, d), dtype=np.complex128)
            p[:d1, :d1] = _identity(d1)
        return [gs_u, gs_n], {"t1": t1, "t2": t2, "p": p}, {"m": m}

    gs_t, t = _draw_operator(seed, stream, rng, dims)
    gens.append(gs_t)
    if theorem_id == "no_singular_expansive":
        return gens, {"t": t}, {"m": int(rng.integers(1, 5))}
    if theorem_id == "unitary_nilpotent_structure":
        return gens, {"t": t}, {}
    if theorem_id == "transform_bundle":
        return gens, {"t": t}, {"m": int(rng.integers(1, 5)), "n": int(rng.integers(1, 3))}
    if theorem_id == "spectral_constraints":
        # the weight must be invertible PSD, so never the gram of a singular draw
        if rng.integers(0, 2):
            gs_p = GenSpec(seed, "psd", (t.shape[0],), stream + _SUBSTREAM,
                           params={"condition_cap": float(rng.uniform(1.0, 50.0))})
            p = generate(gs_p)["p"]
            gens.append(gs_p)
        else:
            p = _identity(t.shape[0])
        return gens, {"t": t, "p": p}, {"m": int(rng.integers(1, 5))}
    gs_p, p = _draw_weight(seed, stream, rng, t)
    gens.extend(gs_p)
    if theorem_id == "power_stability":
        return gens, {"t": t, "p": p}, {"m": int(rng.integers(1, 5)), "n_max": int(rng.integers(2, 6))}
    if theorem_id == "two_expansive_isometry":
        return gens, {"t": t, "p": p}, {}
    if theorem_id == "sandwich_isometry":
        return gens, {"t": t, "p": p}, {"m": int(rng.integers(2, 5))}
    raise KeyError(theorem_id)


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
) -> dict:
    """Run ``count`` instances per theorem and assemble the report.

    ``mode`` is "verify" (premise-certified fixtures) or "fuzz" (randomized
    instances).  Premise-met failures are quarantined under
    ``quarantine_dir`` and counted in the report's ``failures`` field.
    """
    if mode not in ("verify", "fuzz"):
        raise ValueError(f"unknown suite mode {mode!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    ids = THEOREM_IDS if suites in (None, "all") else tuple(suites)
    for theorem_id in ids:
        if theorem_id not in RUNNERS:
            raise KeyError(f"unknown theorem id {theorem_id!r}")

    # every fixture is drawn before any is evaluated: at dims (4, 3) this
    # measured about 5% faster than evaluating each instance as it is drawn
    instances = []
    for theorem_id in ids:
        for stream in range(count):
            if mode == "verify":
                gens, inputs, params = _VERIFY_BUILDERS[theorem_id](seed, stream, dims)
            else:
                gens, inputs, params = _fuzz_instance(theorem_id, seed, stream, dims)
            instances.append((theorem_id, stream, gens, inputs, params))

    results = []
    for theorem_id, stream, gens, inputs, params in instances:
        verdict = RUNNERS[theorem_id](inputs, params, tol)
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
        results.append((row, inputs))
    results.sort(key=lambda pair: (pair[0]["theorem_id"], pair[0]["stream"]))

    rows = []
    quarantined = []
    for row, inputs in results:
        failed = row["premises_met"] and not row["holds"]
        if failed:
            path = write_quarantine(quarantine_dir, row, inputs, tol)
            row = dict(row)
            row["quarantine"] = str(path)
            quarantined.append(str(path))
        rows.append(row)

    summary = {}
    for theorem_id in ids:
        matching = [r for r in rows if r["theorem_id"] == theorem_id]
        summary[theorem_id] = {
            "instances": len(matching),
            "premises_met": sum(r["premises_met"] for r in matching),
            "holds": sum(r["premises_met"] and r["holds"] for r in matching),
            "failures": sum(r["premises_met"] and not r["holds"] for r in matching),
        }

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


def write_quarantine(directory, row, inputs, tol: Tolerance) -> Path:
    """Serialize a failed instance so it can be replayed bit-exactly.

    Files are written from the report-assembly pass only, after every
    instance has been evaluated.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "theorem_id": row["theorem_id"],
        "stream": row["stream"],
        "gen": row["gen"],
        "params": row["params"],
        "tolerance": {"rel_eps": tol.rel_eps, "abs_eps": tol.abs_eps},
        "inputs": {name: matrix_to_json(matrix) for name, matrix in inputs.items()},
        "witness": row["witness"],
    }
    path = directory / f"{row['theorem_id']}-{row['stream']:06d}.json"
    with open(path, "w") as handle:
        handle.write(dumps_json(payload))
    return path


def replay_quarantine(path) -> dict:
    """Re-run the verifier on a quarantined instance; returns the verdict row."""
    with open(path) as handle:
        payload = json.load(handle)
    tol = Tolerance(**payload["tolerance"])
    inputs = {name: matrix_from_json(obj) for name, obj in payload["inputs"].items()}
    verdict = RUNNERS[payload["theorem_id"]](inputs, payload["params"], tol)
    return {
        "theorem_id": payload["theorem_id"],
        "premises_met": verdict.premises_met,
        "holds": verdict.holds,
        "witness": verdict.witness,
    }
