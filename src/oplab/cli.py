"""Command-line front end over the matrix JSON format.

Subcommands: classify, defect, drazin, transform, split, verify, fuzz.
Results are emitted as JSON (stdout or --output); diagnostics go to stderr.

Exit codes: 0 success / all conclusions hold, 1 usage error or a result that
cannot be written, 2 parse error, 3 numerical failure, 4 counterexample found
(a premise-met instance whose conclusion failed; the instance is quarantined
for replay).

Weight sugar: ``--weight identity`` uses I, ``--weight gram --n k`` uses
T*^k T^k, anything else is read as a path to a matrix JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, partial

import numpy as np

from . import __version__
from .expansivity import (
    ClassificationReport,
    DefectSpec,
    _classification_report,
    _classification_rows,
    _spectral_summary,
    defect,
    gram_weight,
)
from .matrix_core import (
    DecompositionError,
    GenerationError,
    MatrixFormatError,
    NumericalFailureError,
    OplabError,
    Tolerance,
    _forked_json_pieces,
    _forked_matrix_from_text,
    _hermitian_gate,
    _require_square,
)

# the --suite choices, `suite.THEOREM_IDS` (a test holds them equal), written
# out so that a command that runs no suite never loads `suite`
_THEOREM_IDS = ("no_singular_expansive", "power_stability", "sandwich_isometry", "spectral_constraints",
                "transform_bundle", "two_expansive_isometry", "unitary_nilpotent_structure", "weight_decomposition")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_COUNTEREXAMPLE = 4


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; argparse defaults to 2 which is reserved
    # for parse errors on input files
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class _OutputError(OplabError):
    """The result could not be written: a usage error, not a parse error."""


def _load_matrix(path: str) -> np.ndarray:
    """The matrix in the JSON file ``path``, a large one parsed in two
    processes (`_forked_matrix_from_text`)."""
    with open(path) as handle:
        text = handle.read()
    return _forked_matrix_from_text(text)


def _resolve_weight(spec: str, t: np.ndarray, n: int) -> np.ndarray:
    if spec == "identity":
        return np.eye(t.shape[0], dtype=np.complex128)
    if spec == "gram":
        return gram_weight(t, n)
    return _load_matrix(spec)


def _tolerance(args) -> Tolerance:
    return Tolerance(rel_eps=args.rel_eps, abs_eps=args.abs_eps)


def _emit(payload: dict, output: str | None) -> None:
    """Write ``payload``'s JSON text and a newline to ``output`` or stdout, a
    piece at a time, a large matrix on two cores (`_forked_json_pieces`).
    The payload is checked before ``output`` is opened, so a payload it
    rejects leaves the file as it was; writing a temporary file and renaming
    it would break ``/dev/stdout``.  An OSError while opening or writing the
    sink raises `_OutputError`, which names the sink."""
    pieces = _forked_json_pieces(payload)
    try:
        if output:
            with open(output, "w") as handle:
                handle.writelines(pieces)
                handle.write("\n")
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.write("\n")
    except OSError as exc:
        raise _OutputError(f"cannot write the result to {output or 'stdout'}: {exc}") from exc


# `_classify` and `_cmd_drazin` share their work with a forked child for an
# operator of at least this many entries.  On a 2-core x86_64 host (1 BLAS
# thread, 12 interleaved pairs each, in a small process), `drazin` of
# [[U', X], [0, 0]] took 40.4 -> 29.9 ms split at d = 128 (11 of 12) and
# 19.8 -> 21.8 ms at d = 96; `classify` of a 1.2-scaled Haar unitary drew
# level at d = 128 (39.2 -> 40.1 ms at m_max 2, 45.5 -> 44.6 ms at 4), won
# at d = 192 (108 -> 101 and 127 -> 101 ms) and lost at d = 96 (20.0 ->
# 27.2 ms at m_max 2).
_CLASSIFY_SPLIT = 128 * 128


def _classify(t: np.ndarray, p: np.ndarray, m_max: int, tol: Tolerance) -> ClassificationReport:
    """`expansivity.classify`, its sign verdicts and spectral summary shared
    with a child (`_forking._split_classify`) when T has at least
    `_CLASSIFY_SPLIT` entries."""
    spec = DefectSpec(t=t, p=p, m=m_max)
    h = _hermitian_gate(spec.p, tol)
    if spec.t.size < _CLASSIFY_SPLIT:
        rows = _classification_rows(spec.t, h, spec.m, tol)
        return _classification_report(rows, _spectral_summary(spec.t, spec.p, h, tol))
    from ._forking import _split_classify  # on first use: see `_forking`

    return _split_classify(spec.t, spec.p, h, spec.m, tol)


def _cmd_classify(args) -> int:
    t = _load_matrix(args.matrix)
    p = _resolve_weight(args.weight, t, args.n)
    _emit(_classify(t, p, args.m_max, _tolerance(args)).to_json(), args.output)
    return EXIT_OK


def _cmd_defect(args) -> int:
    t = _load_matrix(args.matrix)
    p = _resolve_weight(args.weight, t, args.n)
    result = defect(DefectSpec(t=t, p=p, m=args.m), _tolerance(args))
    _emit(result.to_json(), args.output)
    return EXIT_OK


# decompositions is imported by the three commands that run it, so the others
# never load it
def _cmd_drazin(args) -> int:
    from .decompositions import _core_nilpotent, _drazin_inverse, _power_rank

    a = _require_square(_load_matrix(args.matrix))
    tol = _tolerance(args)
    # one walk of T, T^2, ... gives the index, rank T^p, its gate and ||T||
    step = _power_rank(a, tol)

    def core() -> tuple:
        split = _core_nilpotent(a, step, tol)
        return split.index, split.orthogonal, int(split.t1.shape[0]), int(split.t2.shape[0])

    inverse = partial(_drazin_inverse, a, step, tol)
    if a.size < _CLASSIFY_SPLIT:
        (index, orthogonal, invertible, nilpotent), (td, residuals) = core(), inverse()
    else:  # the core split in a child, beside the inverse
        from ._forking import _split_pair  # on first use: see `_forking`

        (index, orthogonal, invertible, nilpotent), (td, residuals) = _split_pair(core, inverse)
    _emit(
        {
            "index": index,
            "drazin_inverse": td,
            "residuals": residuals,
            "core": {"orthogonal": orthogonal, "invertible_dim": invertible, "nilpotent_dim": nilpotent},
        },
        args.output,
    )
    return EXIT_OK


def _cmd_transform(args) -> int:
    from .decompositions import polar

    t = _load_matrix(args.matrix)
    tol = _tolerance(args)
    parts = polar(t, tol)
    _emit(
        {
            "polar": {"u": parts.u, "p": parts.p},
            "aluthge": parts.aluthge(),
            "duggal": parts.duggal(),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_split(args) -> int:
    from .decompositions import range_kernel_split

    t = _load_matrix(args.matrix)
    split = range_kernel_split(t, args.n, _tolerance(args))
    _emit(
        {
            "d1": split.d1,
            "basis": split.basis,
            "power_blocks": {"t1n": split.t1n, "x": split.x},
            "triangular_blocks": {
                "t1": split.t1,
                "coupling": split.coupling,
                "t2": split.t2,
            },
            "residuals": split.residuals,
        },
        args.output,
    )
    return EXIT_OK


def _parse_dims(text: str):
    try:
        d1, d2 = (int(part) for part in text.split(","))
    except ValueError:
        raise MatrixFormatError(f"--dims expects 'd1,d2', got {text!r}") from None
    if d1 < 1 or d2 < 1:
        raise MatrixFormatError(f"--dims components must be >= 1, got {text!r}")
    return d1, d2


# `_cmd_suite` shares a run of at least 2 streams with a child from this many
# `_suite_ms`.  On a 2-core x86_64 host (1 BLAS thread, 11 interleaved pairs
# each) the split lost up to 20 (verify --suite all, count 4, (4,3): 26.4 ->
# 28.6 ms), drew level from 24 to 33 (count 6: 35.9 -> 37.1 ms; fuzz
# weight_decomposition, count 20, (16,8): 29.1 -> 30.2 ms) and won from 33.5
# (verify --suite all, count 7: 46.9 -> 39.4 ms; verify sandwich_isometry,
# count 3, (64,32): 128 -> 83 ms; verify transform_bundle, count 12, (16,8):
# 43.6 -> 32.2 ms).
_SUITE_SPLIT = 30.0
# Each theorem's cost against the theorems' mean: `verify` at (16,8) on that
# host, 1 BLAS thread, medians of 5 runs of 20 instances, in ms an instance:
# no_singular_expansive 2.03, sandwich_isometry 2.31, transform_bundle 3.58,
# two_expansive_isometry 2.20, unitary_nilpotent_structure 1.86,
# weight_decomposition 2.44.  power_stability and spectral_constraints,
# whose fixtures cannot be drawn there, take their share at (4,3) (0.83 and
# 0.71 of the mean of 0.87 ms), so the factors add up to 8.
_THEOREM_COST = dict(zip(_THEOREM_IDS, (0.90, 0.88, 1.02, 0.75, 1.58, 0.97, 0.82, 1.08)))


def _suite_ms(count: int, theorems, dims) -> float:
    """A run's one-process ms there, at 0.5 + d^2 / 500 ms an instance for
    d = d1 + d2 (the theorems' mean: 0.63 at d = 7, 2.1 at 24, 19 at 96)
    times each theorem's `_THEOREM_COST`."""
    return count * sum(_THEOREM_COST[theorem] for theorem in theorems) * (0.5 + (dims[0] + dims[1]) ** 2 / 500)


def _cmd_suite(args, mode: str) -> int:
    dims = _parse_dims(args.dims)
    theorems = _THEOREM_IDS if args.suite == "all" else (args.suite,)
    split = None
    if args.count >= 2 and _suite_ms(args.count, theorems, dims) >= _SUITE_SPLIT:
        from ._forking import _split_streams as split  # on first use: see `_forking`
    from .suite import run_suite  # on first use: see _THEOREM_IDS

    report = run_suite(
        mode,
        seed=args.seed,
        count=args.count,
        dims=dims,
        suites=args.suite,
        tol=_tolerance(args),
        quarantine_dir=args.quarantine,
        _split=split,
    )
    _emit(report, args.output)
    if report["failures"] > 0:
        print(
            f"{report['failures']} premise-met failure(s); instances quarantined under {args.quarantine}",
            file=sys.stderr,
        )
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rel-eps", type=float, default=Tolerance().rel_eps,
                        help="relative spectral tolerance (default %(default)s)")
    common.add_argument("--abs-eps", type=float, default=Tolerance().abs_eps,
                        help="absolute tolerance floor (default %(default)s)")
    common.add_argument("--output", help="write the JSON result here instead of stdout")

    weighted = argparse.ArgumentParser(add_help=False)
    weighted.add_argument("--weight", default="identity",
                          help="'identity', 'gram' (with --n), or a matrix JSON path")
    weighted.add_argument("--n", type=int, default=1,
                          help="power k for the gram weight T*^k T^k (default 1)")

    parser = _Parser(prog="oplab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_classify = sub.add_parser("classify", parents=[common, weighted],
                                help="tabulate defect verdicts for m = 1..m_max")
    p_classify.add_argument("--matrix", required=True, help="operator matrix JSON file")
    p_classify.add_argument("--m-max", type=int, default=4, dest="m_max")
    p_classify.set_defaults(func=_cmd_classify)

    p_defect = sub.add_parser("defect", parents=[common, weighted],
                              help="compute one defect matrix with its verdict")
    p_defect.add_argument("--matrix", required=True)
    p_defect.add_argument("--m", type=int, default=1, help="defect order (default 1)")
    p_defect.set_defaults(func=_cmd_defect)

    p_drazin = sub.add_parser("drazin", parents=[common],
                              help="Drazin index and inverse with identity residuals")
    p_drazin.add_argument("--matrix", required=True)
    p_drazin.set_defaults(func=_cmd_drazin)

    p_transform = sub.add_parser("transform", parents=[common],
                                 help="polar factors and both polar-type transforms")
    p_transform.add_argument("--matrix", required=True)
    p_transform.set_defaults(func=_cmd_transform)

    p_split = sub.add_parser("split", parents=[common],
                             help="range-kernel splitting adapted to T^n")
    p_split.add_argument("--matrix", required=True)
    p_split.add_argument("--n", type=int, default=1, help="power defining the splitting")
    p_split.set_defaults(func=_cmd_split)

    for mode in ("verify", "fuzz"):
        p_mode = sub.add_parser(
            mode,
            parents=[common],
            help=(
                "run premise-certified theorem suites"
                if mode == "verify"
                else "run randomized instances hunting for counterexamples"
            ),
        )
        p_mode.add_argument("--suite", default="all", choices=("all",) + _THEOREM_IDS)
        p_mode.add_argument("--seed", type=int, default=0)
        p_mode.add_argument("--count", type=int, default=25,
                            help="instances per theorem (default %(default)s)")
        p_mode.add_argument("--dims", default="4,3", help="fixture block dimensions 'd1,d2'")
        p_mode.add_argument("--quarantine", default="quarantine",
                            help="directory for counterexample files")
        p_mode.set_defaults(func=lambda args, mode=mode: _cmd_suite(args, mode))

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args leaves it unchanged, so
    every `main` call shares it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (MatrixFormatError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"oplab: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NumericalFailureError, DecompositionError, GenerationError) as exc:
        print(f"oplab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OplabError, ValueError) as exc:
        print(f"oplab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
