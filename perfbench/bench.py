"""Measurement loop, metrics and report of the oplab benchmark (see run.py)."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import tracing
import workloads
from oplab import cli
from oplab.decompositions import IllConditionedWarning

# Three passes give every call a median that ignores a slow first call (a
# process's first d = 256 calls ran up to 1.7x slower while its allocator grew).
MIN_PASSES = 3
SETUP_SAMPLES = 11
QUERY_DIM, QUERY_M_MAX = 256, 20
# CLI seeds per suite-small pass: its calls are short, and averaging over
# seeds keeps the spread across benchmark seeds small.
SMALL_SEEDS = 4
# Host-speed probe time that defines the reference speed of scaled times.
PROBE_REF_S = 0.015
# A call is scaled by the median of the 2 * PROBE_WINDOW probes nearest to it:
# one 15 ms probe jitters by tens of percent, the host's speed drifts over
# tens of seconds.
PROBE_WINDOW = 4
# Set-up samples are scaled by a fresh interpreter that imports what oplab
# imports from outside itself; this is that interpreter's reference time.
SETUP_REF_CODE = "import argparse, concurrent.futures, dataclasses, json, numpy, numpy.linalg"
SETUP_REF_S = 0.12

E2E_UNITS = {"ms_per_instance": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
NAMED_UNITS = {
    "verify_instances_per_s": "1/s",
    "fuzz_instances_per_s": "1/s",
    "classify_s": "s",
    "defect_s": "s",
    "drazin_s": "s",
    "transform_s": "s",
    "split_s": "s",
    "failed_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
THEOREM_FNS = (
    "verify_power_stability", "verify_no_singular_expansive", "verify_weight_decomposition",
    "verify_two_expansive_isometry", "verify_unitary_nilpotent_structure", "verify_sandwich_isometry",
    "spectral_constraints", "verify_transform_bundle",
)
GEN_FNS = ("gen_haar_unitary", "gen_nilpotent", "gen_psd", "gen_drazin_pair", "gen_coupled_kernel",
           "gen_expansive_invertible")
DECOMPOSITION_FNS = ("drazin_inverse", "drazin_index", "core_nilpotent", "range_kernel_split", "polar",
                     "aluthge", "duggal", "build_transform_bundle", "ando_check")
MATRIX_CORE_FNS = ("definiteness", "operator_norm", "sqrt_psd", "moore_penrose", "numerical_rank",
                   "eigenvalues", "spectral_radius", "matrix_to_json", "matrix_from_json")


class BenchError(Exception):
    """The benchmark itself could not run (not an oplab operation failure)."""


class Probe:
    """Fixed interpreter, small-LAPACK and BLAS work timed next to every
    measured call.

    The host is shared and its speed drifts by tens of percent within
    minutes.  A time scaled by PROBE_REF_S / (median probe time around it)
    is the time the call would take on a host where the probe takes
    PROBE_REF_S.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.big = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
        self.svd = np.linalg.svd   # bound now, so a tracer installed later never sees the probe
        self.samples = []

    def __call__(self) -> None:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[i % 101] = table.get(i % 101, 0) + i
        json.loads(json.dumps([[float(i), -float(i)] for i in range(3000)]))
        for _ in range(400):
            self.svd(self.small, compute_uv=False)
        for _ in range(4):
            self.big @ self.big
        self.samples.append(time.perf_counter() - start)


def scaled(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_REF_S / probe_s


@dataclasses.dataclass(frozen=True)
class Result:
    op: workloads.Op
    code: int | None        # None: oplab raised instead of returning an exit code
    seconds: float
    outcome: workloads.Outcome
    output_bytes: int
    ill_conditioned: int
    probe_s: float = 0.0    # median of the probes nearest the call (PROBE_WINDOW)


def cli_seeds(seed: int, n: int) -> list[int]:
    return [(seed * n + j) % (1 << 32) for j in range(n)]


def build_ops(workload: str, seed: int, directory: Path) -> list[workloads.Op]:
    """All operations of one pass, known failures included, in order."""
    if workload == "suite-small":
        return workloads.suite_ops(cli_seeds(seed, SMALL_SEEDS), (4, 3),
                                   [("verify", workloads.COUNT, False), ("fuzz", workloads.COUNT, False)])
    if workload == "suite-scaled":
        # Counts and the missing (64,32) fuzz calls: see "Workloads" in README.md.
        seeds = cli_seeds(seed, 1)
        return (workloads.suite_ops(seeds, (16, 8), [("verify", workloads.COUNT, True), ("fuzz", 400, True)])
                + workloads.suite_ops(seeds, (64, 32), [("verify", 15, True)]))
    if workload == "queries-large":
        return workloads.query_ops(seed, QUERY_DIM, QUERY_M_MAX, directory)
    raise BenchError(f"unknown workload {workload!r}")


# -- running operations ----------------------------------------------------

def run_op(op: workloads.Op, scratch: Path, tracer: tracing.Tracer | None = None) -> Result:
    out = scratch / "out.json"
    quarantine = scratch / "quarantine"
    argv = list(op.argv) + ["--output", str(out)]
    if op.kind in ("verify", "fuzz"):
        argv += ["--quarantine", str(quarantine)]
    code = None
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:       # an untyped escape is an operation failure, not a benchmark crash
            code = None
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
    output, size = None, 0
    if out.exists():
        size = out.stat().st_size
        if code in (0, 4):
            with open(out) as handle:
                output = json.load(handle)
        out.unlink()
    shutil.rmtree(quarantine, ignore_errors=True)
    outcome = op.check(-1 if code is None else code, output)
    ill = sum(1 for w in caught if issubclass(w.category, IllConditionedWarning))
    return Result(op, code, seconds, outcome, size, ill)


def measure(ops, seconds: float, scratch: Path, tracer: tracing.Tracer | None, probe: Probe, setup: Setup):
    """Whole passes for about ``seconds`` (at least MIN_PASSES), with a
    host-speed probe between consecutive calls, and SETUP_SAMPLES set-up
    samples spread evenly over the same time.

    With a tracer, the first pass runs untraced and the others traced.
    """
    passes = []
    begin = time.perf_counter()
    probe()
    try:
        while True:
            traced = tracer is not None and bool(passes)
            if traced and len(passes) == 1:
                tracer.install()
            start = time.perf_counter()
            results = []
            for op in ops:
                result = run_op(op, scratch, tracer if traced else None)
                probe()
                results.append((result, len(probe.samples) - 1))
                if len(setup.samples) < min(SETUP_SAMPLES, SETUP_SAMPLES * (time.perf_counter() - begin) / seconds):
                    setup.sample()
                    probe()
            passes.append(results)
            last = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and time.perf_counter() - begin + last > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()

    def probe_s(after: int) -> float:     # ``after``: index of the probe just after the call
        return statistics.median(probe.samples[max(0, after - PROBE_WINDOW): after + PROBE_WINDOW])

    return [[dataclasses.replace(r, probe_s=probe_s(after)) for r, after in p] for p in passes]


def warm_up_call(scratch: Path) -> list[str]:
    """CLI arguments of the warm-up call: classify a 2 x 2 matrix up to m = 2."""
    warm = scratch / "warm.json"
    with open(warm, "w") as handle:
        json.dump(workloads.encode(np.array([[2.0, 0.0], [1.0, 2.0]], dtype=complex)), handle)
    return ["classify", "--matrix", str(warm), "--m-max", "2", "--output", str(scratch / "warm-out.json")]


class Setup:
    """Set-up samples: a fresh interpreter imports oplab and makes the
    warm-up call.

    Start-up cost drifts with the host in ways the call probe does not
    follow, so each sample is bracketed by runs of a reference interpreter
    (SETUP_REF_CODE).  A sample is (wall time, mean reference time around it).
    """

    def __init__(self, root: Path, warm_argv: list[str]):
        self.root = root
        self.code = ("import sys; sys.path.insert(0, %r); from oplab import cli; sys.exit(cli.main(%r))"
                     % (str(root / "src"), warm_argv))
        self.samples = []
        self._reference = None

    def _time(self, code: str) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=self.root, capture_output=True, timeout=120)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up call exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return seconds

    def sample(self) -> None:
        before = self._reference if self._reference is not None else self._time(SETUP_REF_CODE)
        seconds = self._time(self.code)
        self._reference = self._time(SETUP_REF_CODE)
        self.samples.append((seconds, (before + self._reference) / 2))


# -- metrics ---------------------------------------------------------------

def tail(samples) -> dict | None:
    """Highest percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    k = len(ordered) - 10
    if k < 1:
        return None
    return {"percentile": round(100.0 * k / len(ordered), 1), "value": ordered[k - 1]}


def end_to_end(passes, setup, scale: bool = True) -> dict:
    """The gated metrics: probe-scaled times (raw with ``scale=False``).

    ms_per_instance is the geometric mean, over command-and-size groups
    (``Op.group``), of the median time per instance of the group's timed
    calls.  Every call counts with the instances it was asked for, so a call
    that aborts early cannot make the figure smaller without making the run
    incorrect.
    """
    def s(seconds, probe_s):
        return scaled(seconds, probe_s) if scale else seconds

    groups = {}
    for r in (r for p in passes for r in p):
        groups.setdefault(r.op.group, []).append(s(r.seconds, r.probe_s) / r.op.instances)
    per_group = [statistics.median(v) for v in groups.values()]
    return {
        "ms_per_instance": 1000.0 * math.exp(statistics.fmean(math.log(v) for v in per_group)),
        "setup_s": statistics.median(t * SETUP_REF_S / ref if scale else t for t, ref in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def named(passes, census, setup) -> dict:
    """The issue-named end-to-end metrics that apply to this workload, in raw seconds.

    failed_share is over the workload's operations: a timed operation
    counts as failed when any of its calls failed, a known failure when its
    one call failed.
    """
    results = [r for p in passes for r in p]
    out = {}
    for mode in ("verify", "fuzz"):
        rates = []
        for p in passes:
            done = [r for r in p if r.op.kind == mode and r.outcome.completed]
            if done:
                rates.append(sum(r.outcome.instances for r in done) / sum(r.seconds for r in done))
        if rates:
            out[f"{mode}_instances_per_s"] = {"value": statistics.median(rates), "passes": len(rates)}
    for kind in ("classify", "defect", "drazin", "transform", "split"):
        samples = [r.seconds for r in results if r.op.kind == kind and r.outcome.completed]
        if samples:
            out[f"{kind}_s"] = {"value": statistics.median(samples), "samples": len(samples),
                                "tail": tail(samples)}
    failed = sum(any(r.outcome.failed for r in calls) for calls in zip(*passes))
    failed += sum(r.outcome.failed for r in census)
    operations = len(passes[0]) + len(census)
    out["failed_share"] = {"value": failed / operations, "failed": failed, "operations": operations}
    out["setup_s"] = {"value": statistics.median(t for t, _ in setup), "samples": len(setup)}
    out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for name, entry in out.items():
        entry["unit"] = NAMED_UNITS[name]
    return out


def per_layer(passes, tracer: tracing.Tracer) -> dict:
    """Per-layer counts and self times per traced pass (every pass but the first)."""
    traced = passes[1:]
    n = len(traced)
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    m = {}

    def span(name):
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n

    def count(name):
        m[name] = counts.get(name, 0.0) / n

    span("cli.main")
    m["cli.output_bytes"] = sum(r.output_bytes for p in traced for r in p) / n
    span("suite.run_suite")
    count("suite.instances")
    instances = counts.get("suite.instances", 0.0)
    m["suite.premises_met_share"] = counts.get("suite.premises_met", 0.0) / instances if instances else 0.0
    for fn in THEOREM_FNS:
        span(f"theorem_lab.{fn}")
    for fn in GEN_FNS:
        span(f"generators.{fn}")
        count(f"generators.{fn}.failed")
    count("generators.gen_expansive_invertible.draws")
    draws = counts.get("generators.draws", 0.0)
    m["generators.yield"] = counts.get("generators.fixtures", 0.0) / draws if draws else 0.0
    span("expansivity.defect")
    count("expansivity.defect.order_sum")
    span("expansivity.classify")
    span("expansivity.gram_weight")
    for fn in DECOMPOSITION_FNS:
        span(f"decompositions.{fn}")
    m["decompositions.ill_conditioned_warnings"] = sum(r.ill_conditioned for p in traced for r in p) / n
    for fn in MATRIX_CORE_FNS:
        span(f"matrix_core.{fn}")
    for fn in tracing.LINALG:
        span(f"linalg.{fn}")

    def pass_s(p):
        return sum(scaled(r.seconds, r.probe_s) for r in p)

    m["trace.overhead_ratio"] = statistics.median(pass_s(p) for p in traced) / pass_s(passes[0])
    return m


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", ".yield", "_ratio")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- environment -----------------------------------------------------------

def environment(root: Path, seed: int, pinned: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        **pinned,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "seed": seed,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- one run ---------------------------------------------------------------

def pass_digests(passes) -> list[str]:
    return [workloads.digest([r.outcome.digest for r in p]) for p in passes]


def is_correct(passes, metrics: dict) -> bool:
    """No timed call failed, every pass gave the same verdicts, and every metric is finite."""
    return (not any(r.outcome.failed for p in passes for r in p)
            and len(set(pass_digests(passes))) == 1
            and all(math.isfinite(v) for v in metrics.values()))


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path, out_dir: Path, pinned: dict) -> dict:
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    scratch = out_dir / f"{stem}.{os.getpid()}.tmp"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    probe = Probe()
    tracer = tracing.Tracer() if trace else None
    try:
        warm_argv = warm_up_call(scratch)
        setup = Setup(root, warm_argv)
        if cli.main(warm_argv) != 0:
            raise BenchError("in-process warm-up call failed")
        ops = build_ops(workload, seed, scratch)
        timed = [op for op in ops if not op.known_failure]
        passes = measure(timed, seconds, scratch, tracer, probe, setup)
        census = [run_op(op, scratch) for op in ops if op.known_failure]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    digests = pass_digests(passes)
    results = [r for p in passes for r in p]
    failed = sum(r.outcome.failed for r in results)
    record = {
        "workload": workload,
        "trace": trace,
        "passes": len(passes),
        "operations_per_pass": len(timed),
        "attempted": len(results),
        "failed": failed,
        "digests_identical": len(set(digests)) == 1,
        "verdict_digest": digests[0],
        "failures": [f"pass {i + 1}, {r.op.cell}: {r.outcome.reason}"
                     for i, p in enumerate(passes) for r in p if r.outcome.failed],
        "known_failures": [[r.op.cell, r.code, r.outcome.failed, r.outcome.reason] for r in census],
        "named": named(passes, census, setup.samples),
        "setup": setup.samples,
        "ops": [[r.op.cell, r.code, r.seconds, r.outcome.instances, r.probe_s] for r in results],
        "probe_s_median": statistics.median(probe.samples),
        "environment": environment(root, seed, pinned),
    }
    if trace:
        record["metrics"] = per_layer(passes, tracer)
        spans = out_dir / f"{stem}.spans.json"
        tracer.write(spans)
        record["spans_file"] = str(spans.relative_to(root))
    else:
        record["metrics"] = end_to_end(passes, setup.samples)
        record["raw_metrics"] = end_to_end(passes, setup.samples, scale=False)
    record["correct"] = is_correct(passes, record["metrics"])
    with open(out_dir / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def report(record: dict, stream) -> None:
    print(f"workload {record['workload']}: {record['passes']} passes x {record['operations_per_pass']} "
          f"operations, {record['failed']}/{record['attempted']} failed; verdict digest "
          f"{record['verdict_digest']} ({'identical' if record['digests_identical'] else 'DIFFERENT'} "
          f"across passes)", file=stream)
    for line in record["failures"]:
        print(f"  FAILED timed operation, {line}", file=stream)
    for cell, code, failed, reason in record["known_failures"]:
        state = f"still fails ({reason})" if failed else "now passes"
        print(f"  known failure {cell}, run once: exit {code}, {state}", file=stream)
    for name, entry in record["named"].items():
        extra = {k: v for k, v in entry.items() if k not in ("value", "unit")}
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}  {json.dumps(extra)}", file=stream)
    for name, value in record.get("raw_metrics", {}).items():
        print(f"  unscaled {name} = {value:.6g} {E2E_UNITS[name]}", file=stream)
    units = E2E_UNITS if not record["trace"] else {}
    metrics = {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
               for name, value in record["metrics"].items()}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}), file=stream)
