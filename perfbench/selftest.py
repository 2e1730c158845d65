"""Smoke test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Run from the repository root.  It checks that

* every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
  finite, and (end-to-end) positive;
* the issue-named metrics appear on the workloads they apply to;
* a malformed matrix file (oplab exits 2) is counted as a failed operation
  and shows in failed_share, both as a timed call and as a known failure;
* a failed timed call makes the run incorrect, while good calls do not;
* the drazin and transform oracles reject a Moore-Penrose "Drazin inverse"
  and a wrong Aluthge transform;
* verdict digests repeat across passes, with and without tracing;
* run.py exits non-zero, printing no result, without ./src/oplab.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path.cwd()


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_oracles(scratch: Path) -> None:
    """Feed the drazin and transform oracles plausible wrong answers."""
    import numpy as np
    import workloads

    directory = scratch / "oracles"
    directory.mkdir()
    ops = {op.cell: op for op in workloads.query_ops(5, 8, 2, directory)}
    k = workloads.decode(json.loads((directory / "k.json").read_text()))
    pinv = np.linalg.pinv(k)
    out = {"index": 1, "core": {"invertible_dim": 4, "nilpotent_dim": 4}, "drazin_inverse": workloads.encode(pinv)}
    check(ops["drazin"].check(0, out).failed, "drazin oracle accepted the Moore-Penrose inverse")
    w, s, vh = np.linalg.svd(k)
    u, p = w @ vh, (vh.conj().T * s) @ vh
    out = {"polar": {"u": workloads.encode(u), "p": workloads.encode(p)},
           "aluthge": workloads.encode(np.diag(np.diag(k))), "duggal": workloads.encode(p @ u)}
    check(ops["transform"].check(0, out).failed, "transform oracle accepted a wrong Aluthge transform")
    w, v = np.linalg.eigh(p)
    half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    out["aluthge"] = workloads.encode(half @ u @ half)
    check(not ops["transform"].check(0, out).failed, "transform oracle rejected a right answer")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.prepare_environment()
    sys.path.insert(0, str(run.SRC))
    import bench
    import tracing
    import workloads

    scratch = run.OUT / "selftest.tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        bench.SETUP_SAMPLES = 3     # tiny run
        good = (workloads.suite_ops([3], (2, 1), [("verify", 2, False), ("fuzz", 2, False)])
                + workloads.suite_ops([3], (3, 2), [("verify", 2, True), ("fuzz", 3, True)])
                + workloads.query_ops(3, 8, 3, scratch))
        bad = workloads.bad_input_op(scratch)
        ops = good + [bad]
        probe = bench.Probe()
        setup = bench.Setup(ROOT, bench.warm_up_call(scratch))
        passes = bench.measure(ops, 0.1, scratch, None, probe, setup)
        check(len(setup.samples) == bench.SETUP_SAMPLES, f"{len(setup.samples)} set-up samples")
        e2e = bench.end_to_end(passes, setup.samples)
        names = [m["name"] for m in spec["end_to_end"]]
        check(sorted(e2e) == sorted(names), f"end-to-end metrics {sorted(e2e)} != BENCHMARK.json {sorted(names)}")
        for name, value in e2e.items():
            check(math.isfinite(value) and value > 0, f"{name} = {value}")

        census = [bench.run_op(bad, scratch)]
        named = bench.named(passes, census, setup.samples)
        for name in bench.NAMED_UNITS:
            check(name in named, f"named metric {name} missing")
        bad_calls = [r for p in passes for r in p if r.op is bad] + census
        check(all(r.code == 2 and r.outcome.failed for r in bad_calls), "malformed input not counted as failed")
        share = named["failed_share"]
        check((share["failed"], share["operations"]) == (2, len(ops) + 1),
              f"failed_share counts {share['failed']} of {share['operations']}, expected 2 of {len(ops) + 1}")
        check(not bench.is_correct(passes, e2e), "a failed timed call left the run correct")
        good_passes = [[r for r in p if r.op is not bad] for p in passes]
        failures = [f"{r.op.cell}: {r.outcome.reason}" for p in good_passes for r in p if r.outcome.failed]
        check(not failures, f"good operations failed: {failures}")
        check(bench.is_correct(good_passes, e2e), "verdict digests differ across passes")
        check_oracles(scratch)

        digests = set(bench.pass_digests(passes))
        tracer = tracing.Tracer()
        traced = bench.measure(ops, 0.1, scratch, tracer, probe, setup)
        layers = bench.per_layer(traced, tracer)
        wanted = [m["name"] for m in spec["per_layer"]]
        check(sorted(layers) == sorted(wanted), f"per-layer metrics differ: "
              f"{sorted(set(layers) ^ set(wanted))}")
        for name, value in layers.items():
            check(math.isfinite(value) and value >= 0, f"{name} = {value}")
        check(layers["linalg.norm.calls"] > 0 and layers["generators.gen_haar_unitary.calls"] > 0,
              "tracing recorded no calls")
        check(set(bench.pass_digests(traced)) == digests, "tracing changed the verdicts")

        bare = scratch / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-small", "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, timeout=120)
        check(proc.returncode != 0 and not proc.stdout.strip(), "run.py without sources did not fail cleanly")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
