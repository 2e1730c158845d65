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
from functools import cache

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
from .suite import THEOREM_IDS, run_suite

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


# `_classify` computes the spectral summary in a forked child for an operator
# of at least this many entries.  On a 2-core x86_64 host (1 BLAS thread, 12
# interleaved pairs each, a 1.2-scaled Haar unitary), the split won at d = 256
# for every m_max from 1 (198 -> 172 ms at m_max 1, 382 -> 227 ms at 8) and at
# d = 128 from m_max 4 (56 -> 47 ms; 112 -> 87 ms at 20), and lost at d = 128,
# m_max 2 (43 -> 54 ms); below that the table and the summary are each
# within a few times the 4.4 ms a fork and its reaping cost.
_CLASSIFY_SPLIT = 128 * 128


def _classify(t: np.ndarray, p: np.ndarray, m_max: int, tol: Tolerance) -> ClassificationReport:
    """`expansivity.classify`, with its spectral summary computed by a child
    while this process tabulates the defects (`_forking._split_classify`)
    when T has at least `_CLASSIFY_SPLIT` entries."""
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
    core = _core_nilpotent(a, step, tol)
    td, residuals = _drazin_inverse(a, step, tol)
    _emit(
        {
            "index": core.index,
            "drazin_inverse": td,
            "residuals": residuals,
            "core": {
                "orthogonal": core.orthogonal,
                "invertible_dim": int(core.t1.shape[0]),
                "nilpotent_dim": int(core.t2.shape[0]),
            },
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


# `_cmd_suite` shares a run of at least 2 streams with a child when count x
# theorems x (d1 + d2) reaches this.  On a 2-core x86_64 host (1 BLAS thread,
# 11 interleaved pairs each) the split drew level at 224-240 (--suite all at
# count 4 and (4,3)), lost at 288 (fuzz weight_decomposition, count 12,
# (16,8): 16.9 -> 20.4 ms) and won from 336 (verify --suite all, count 6,
# (4,3): 36.9 -> 31.7 ms); a fork and the pages it makes both copy cost ~5 ms.
_SUITE_SPLIT = 320


def _cmd_suite(args, mode: str) -> int:
    dims = _parse_dims(args.dims)
    theorems = len(THEOREM_IDS) if args.suite == "all" else 1
    split = None
    if args.count >= 2 and args.count * theorems * (dims[0] + dims[1]) >= _SUITE_SPLIT:
        from ._forking import _split_streams as split  # on first use: see `_forking`
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
        p_mode.add_argument("--suite", default="all", choices=("all",) + THEOREM_IDS)
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
