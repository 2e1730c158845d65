"""oplab benchmark: run one workload against the oplab sources in ./src.

    python3 perfbench/run.py --workload suite-small --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see perfbench/README.md):

* ``suite-small``   verify then fuzz, ``--suite all --dims 4,3``
* ``suite-scaled``  verify then fuzz per theorem at ``--dims 16,8`` and ``64,32``
* ``queries-large`` classify / defect / drazin / transform / split at d = 256

The run measures whole passes over the workload's operations for about
``--seconds`` seconds (at least three passes, so every call has a median
and verdict digests can be compared), checks every output against its oracle, prints each metric as
``name value unit`` and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the first pass untraced and the
rest with every oplab and numpy.linalg function wrapped, and reports
per-layer metrics per pass.  A full record goes to
``.perfbench_out/<workload>-seed<seed>-trace<n>.json``.

Exit status: 0 when the run completed (operations that fail are counted,
not fatal); 2 when ./src/oplab is missing or the run could not be made.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

WORKLOADS = ("suite-small", "suite-scaled", "queries-large")
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def prepare_environment() -> dict:
    """Pin the environment the workloads assume, before numpy is imported.

    OPLAB_THREADS stays unset so suites run serially (the CLI default).  BLAS
    runs one thread (at most nproc): with one thread per CPU, OpenBLAS
    threads that wait on each other make timings depend on whatever else the
    host is running.
    """
    removed = os.environ.pop("OPLAB_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
            "oplab_threads": "unset" if removed is None else f"unset (was {removed!r})"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oplab" / "__init__.py").is_file():
        _fail(f"no oplab sources under {SRC}; run from the repository root")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    env = prepare_environment()
    sys.path.insert(0, str(SRC))
    import bench  # imported here: numpy must load after the BLAS thread pin

    try:
        record = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT, OUT, env)
    except bench.BenchError as exc:
        _fail(str(exc))
    bench.report(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
