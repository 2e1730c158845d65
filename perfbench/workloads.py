"""Benchmark workloads: the oplab CLI calls each one makes, their inputs, and
the oracle that decides whether each call's output is right.

Every operation is one in-process call of ``oplab.cli.main`` with ``--output``
(and ``--quarantine`` for suites) pointing into a scratch directory.  A pass
runs a workload's operations once, in order, one at a time (closed loop, one
client).  All inputs derive from the benchmark seed.

The operations that fail at baseline are listed in KNOWN_FAILURES.  They are
kept out of the timed passes, so that every timed operation must succeed, and
run once per run to show in failed_share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

COUNT = 25                              # the CLI's default --count
THEOREMS = (
    "no_singular_expansive",
    "power_stability",
    "sandwich_isometry",
    "spectral_constraints",
    "transform_bundle",
    "two_expansive_isometry",
    "unitary_nilpotent_structure",
    "weight_decomposition",
)
GATE_REL, GATE_ABS = 1e-10, 1e-12       # oplab's default Tolerance
ORACLE_REL = 1e-8                       # closed-form identities on query outputs
# The square root of the singular P = |K| is accurate only to about
# sqrt(machine epsilon), so Aluthge = P^1/2 U P^1/2 is checked more loosely
# (oplab's output agrees with the oracle to about 1e-8 relative).
ALUTHGE_REL = 1e-6
CLASSES = {"ZERO": ["contractive", "expansive", "isometric"], "PSD": ["contractive"], "NSD": ["expansive"]}
# Operation cells that fail at baseline on every seed tried (README.md, "Known
# failures"): GenerationError aborts (ROADMAP item 3) and classify returning
# INDEFINITE at m = 18-20 on the d = 256 unitary (ROADMAP item 2).
KNOWN_FAILURES = frozenset({
    "verify:power_stability@16,8",
    "verify:spectral_constraints@16,8",
    *(f"fuzz:{theorem}@16,8" for theorem in THEOREMS if theorem != "weight_decomposition"),
    "verify:power_stability@64,32",
    "verify:spectral_constraints@64,32",
    "verify:transform_bundle@64,32",
    "classify:c=1.0",
})


@dataclass(frozen=True)
class Outcome:
    completed: bool     # the call produced its result file
    failed: bool        # by the oracle rules in perfbench/README.md
    reason: str
    instances: int      # fixtures evaluated (suites) or 1 (queries); 0 unless completed
    digest: str         # hash of the verdict columns, compared across passes


@dataclass(frozen=True)
class Op:
    cell: str           # call label, e.g. "verify:power_stability@16,8" (shared across CLI seeds)
    group: str          # command and size, e.g. "verify@16,8" or "classify"
    argv: tuple         # oplab CLI arguments, without --output / --quarantine
    check: Callable[[int, dict | None], Outcome]
    instances: int = 1  # fixtures (suites) or queries the call is asked for

    @property
    def kind(self) -> str:
        """The CLI command: verify, fuzz, classify, defect, drazin, transform or split."""
        return self.argv[0]

    @property
    def known_failure(self) -> bool:
        return self.cell in KNOWN_FAILURES


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _aborted(code: int) -> Outcome:
    return Outcome(False, True, f"exit {code}", 0, digest(["exit", code]))


# -- suites -----------------------------------------------------------------

def _suite_check(mode: str, expected_rows: int):
    def check(code: int, report: dict | None) -> Outcome:
        if report is None or code not in (0, 4):
            return _aborted(code)
        rows = report["rows"]
        columns = [(r["theorem_id"], r["stream"], r["premises_met"], r["holds"]) for r in rows]
        reason = ""
        if len(rows) != expected_rows:
            reason = f"{len(rows)} rows, expected {expected_rows}"
        elif mode == "verify":
            bad = sum(1 for r in rows if not (r["premises_met"] and r["holds"]))
            if code != 0 or bad:
                reason = f"exit {code}, {bad} rows not premises-met and holding"
        elif code != 0 or report["failures"] or report["quarantine"]:
            reason = f"exit {code}, {report['failures']} instances quarantined"
        return Outcome(True, bool(reason), reason, len(rows), digest([code, columns]))

    return check


def suite_ops(seeds, dims, calls) -> list[Op]:
    """Suite calls at fixture dims ``dims`` for each CLI seed.

    ``calls`` lists ``(mode, count, per_theorem)`` in order; ``per_theorem``
    makes one call per theorem (``--suite <id>``) instead of one
    ``--suite all`` call.
    """
    dims_text = f"{dims[0]},{dims[1]}"
    ops = []
    for seed in seeds:
        for mode, count, per_theorem in calls:
            for suite in THEOREMS if per_theorem else ("all",):
                n = len(THEOREMS) if suite == "all" else 1
                ops.append(Op(
                    cell=f"{mode}:{suite}@{dims_text}",
                    group=f"{mode}@{dims_text}",
                    argv=(mode, "--suite", suite, "--seed", str(seed), "--count", str(count), "--dims", dims_text),
                    check=_suite_check(mode, n * count),
                    instances=n * count,
                ))
    return ops


# -- single-matrix queries --------------------------------------------------

def encode(a: np.ndarray) -> dict:
    """oplab's matrix wire format, written without oplab's own codec."""
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": np.stack([a.real, a.imag], axis=-1).tolist()}


def decode(obj: dict) -> np.ndarray:
    pairs = np.asarray(obj["data"], dtype=np.float64).reshape(obj["rows"], obj["cols"], 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def _classify_check(c: float, m_max: int):
    def check(code, out):
        if out is None or code != 0:
            return _aborted(code)
        rows = out["rows"]
        problems = []
        for row in rows:
            expected = "ZERO" if c == 1.0 else ("PSD" if (1.0 - c * c) ** row["m"] > 0 else "NSD")
            if row["verdict"] != expected or row["classes"] != CLASSES[expected]:
                problems.append(f"m={row['m']} {row['verdict']} (expected {expected})")
        if [row["m"] for row in rows] != list(range(1, m_max + 1)):
            problems.append("orders do not run 1..m_max")
        spectral = out["spectral"]
        for key in ("operator_norm", "spectral_radius"):
            if abs(spectral[key] - c) > ORACLE_REL * c:
                problems.append(f"{key} {spectral[key]!r} (expected {c})")
        if out["p_isometric"] is not (c == 1.0):
            problems.append(f"p_isometric {out['p_isometric']}")
        columns = [(row["m"], row["verdict"], row["classes"]) for row in rows]
        return Outcome(True, bool(problems), "; ".join(problems), 1, digest(columns))

    return check


def _defect_check(code, out):
    if out is None or code != 0:
        return _aborted(code)
    verdict, classes = out["verdict"]["verdict"], out["classification"]
    ok = verdict == "ZERO" and "isometric" in classes
    reason = "" if ok else f"verdict {verdict} {classes} (expected ZERO, isometric)"
    return Outcome(True, not ok, reason, 1, digest([verdict, classes]))


def _drazin_check(k: np.ndarray, h: int):
    def check(code, out):
        if out is None or code != 0:
            return _aborted(code)
        core = out["core"]
        columns = [out["index"], core["invertible_dim"], core["nilpotent_dim"]]
        problems = []
        if columns != [1, h, h]:
            problems.append(f"index/core dims {columns} (expected [1, {h}, {h}])")
        kd = decode(out["drazin_inverse"])
        # The three defining identities at index 1; a generalized inverse such
        # as the Moore-Penrose one satisfies only the first here.
        if _fro(k @ kd @ k - k) > ORACLE_REL * _fro(k):
            problems.append("K Kd K != K")
        if _fro(kd @ k @ kd - kd) > ORACLE_REL * _fro(kd):
            problems.append("Kd K Kd != Kd")
        if _fro(k @ kd - kd @ k) > ORACLE_REL * _fro(k @ kd):
            problems.append("K Kd != Kd K")
        return Outcome(True, bool(problems), "; ".join(problems), 1, digest(columns))

    return check


def _transform_check(k: np.ndarray):
    def check(code, out):
        if out is None or code != 0:
            return _aborted(code)
        u, p = decode(out["polar"]["u"]), decode(out["polar"]["p"])
        aluthge, duggal = decode(out["aluthge"]), decode(out["duggal"])
        gate = ORACLE_REL * _fro(k)
        problems = []
        if _fro(u @ p - k) > gate:
            problems.append("U P != K")
        if _fro(p - p.conj().T) > gate:
            problems.append("P not Hermitian")
        if _fro(duggal - p @ u) > gate:
            problems.append("Duggal != P U")
        w, v = np.linalg.eigh(p)
        p_half = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        if _fro(aluthge - p_half @ u @ p_half) > ALUTHGE_REL * _fro(k):
            problems.append("Aluthge != P^1/2 U P^1/2")
        shapes = [list(m.shape) for m in (u, p, aluthge, duggal)]
        return Outcome(True, bool(problems), "; ".join(problems), 1, digest(shapes))

    return check


def _split_check(h: int, gate: float):
    def check(code, out):
        if out is None or code != 0:
            return _aborted(code)
        problems = []
        if out["d1"] != h:
            problems.append(f"d1 {out['d1']} (expected {h})")
        over = {k: v for k, v in out["residuals"].items() if not v <= gate}
        if over:
            problems.append(f"residuals over the gate {gate:.3e}: {over}")
        return Outcome(True, bool(problems), "; ".join(problems), 1, digest([out["d1"]]))

    return check


def query_ops(seed: int, d: int, m_max: int, directory: Path) -> list[Op]:
    """The five single-matrix commands on seeded d x d inputs written to ``directory``.

    U is Haar (QR of a complex Gaussian); K = [[U', X], [0, 0]] with U' Haar
    and X complex Gaussian blocks of size d/2, so K is (m, K*K)-isometric for
    every m, has Drazin index 1 and a core of dimension d/2.
    """
    rng = np.random.default_rng(seed)
    h = d // 2
    u = _haar(rng, d)
    k = np.zeros((d, d), dtype=np.complex128)
    k[:h, :h] = _haar(rng, h)
    k[:h, h:] = (rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))) / np.sqrt(2.0)
    files = {"u1.0": u, "u1.2": 1.2 * u, "k": k}
    for name, matrix in files.items():
        with open(directory / f"{name}.json", "w") as handle:
            json.dump(encode(matrix), handle)
    path = {name: str(directory / f"{name}.json") for name in files}
    # split of K^2: residuals are judged at the scale of ||K^2|| <= ||K||^2
    split_gate = GATE_REL * float(np.linalg.norm(k, 2)) ** 2 + GATE_ABS
    ops = [
        Op(f"classify:c={c}", "classify",
           ("classify", "--matrix", path[f"u{c}"], "--weight", "identity", "--m-max", str(m_max)),
           _classify_check(c, m_max))
        for c in (1.0, 1.2)
    ]
    k_path = path["k"]
    ops += [
        Op("defect", "defect", ("defect", "--matrix", k_path, "--weight", "gram", "--m", "4"),
           _defect_check),
        Op("drazin", "drazin", ("drazin", "--matrix", k_path), _drazin_check(k, h)),
        Op("transform", "transform", ("transform", "--matrix", k_path), _transform_check(k)),
        Op("split", "split", ("split", "--matrix", k_path, "--n", "2"), _split_check(h, split_gate)),
    ]
    return ops


def bad_input_op(directory: Path) -> Op:
    """A malformed matrix file; oplab must exit 2 and the call counts as failed."""
    path = directory / "malformed.json"
    path.write_text('{"rows": 2, "cols": 2, "data": [[[1, 0]]]}')
    return Op("defect:malformed", "defect", ("defect", "--matrix", str(path)), _defect_check)
