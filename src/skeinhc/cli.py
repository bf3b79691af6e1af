"""Batch command-line interface.

Commands: dims, decompose, tableaux, paths, normalize, trace, gram, verify.
Exit codes: 0 success, 1 usage error, 2 domain error (bad indices or
signatures, pole at a specialization), 3 internal consistency failure.
All scalar output is exact (normalized numerator/denominator strings);
identical arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

# errors and scalars first: loaded before the rest, they leave the peak RSS
# of a gram job about 0.5 MB lower (an effect of allocation order alone)
from .errors import ConsistencyError, DomainError
from .scalars import point_order, specialize
from .combinatorics import (
    as_diagram,
    check_shapes,
    count_pair_tableaux,
    count_paths_double_young,
    count_standard_tableaux,
    decompose_object,
    dim_hom_formula,
)
from .hecke_clifford import normalize, parse_generator_word, term_list
from .trace_gram import _entrywise, gram_matrix, gram_rank, markov_trace

__all__ = ["main"]

# Work bound of normalize and trace: a one-letter word's trace takes about
# 0.6 s at 128 strands, 1 s at 160 and 9 s at 320.
MAX_WORD_STRANDS = 128
MAX_DECOMPOSE_N = 16  # 2^(N-2) diagrams: 1 s at N = 16, 4 s at 18, 18 s at 20
# The names of verify.SUITES, sorted, so that the parser needs no import of
# the suites (or of the skein layer they load) before a command runs.
SUITE_NAMES = ("algebra", "antisymmetrizer", "combinatorics", "dims", "ranks",
               "specialization", "straighten", "trace")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument parser, built once per process: it holds no per-call
    state (argparse copies the ``append`` default before each append)."""
    parser = _Parser(prog="skeinhc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # the subparser of each command, by name

    p = sub.add_parser("dims", help="hom-space dimension for two signatures")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("decompose", help="staircase summands of the algebra objects")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--object", choices=("A", "B"), required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("tableaux", help="standard or pair tableau counts")
    p.add_argument("--shape", help="rows like 2,1")
    p.add_argument("--mu", help="inner shape for pair counts")
    p.add_argument("--lam", help="outer shape for pair counts")

    p = sub.add_parser("paths", help="oriented path counts on the double Young graph")
    p.add_argument("--start-lam", default="")
    p.add_argument("--start-mu", default="")
    p.add_argument("--end-lam", default="")
    p.add_argument("--end-mu", default="")
    p.add_argument("--length", type=int, required=True)

    p = sub.add_parser("normalize", help="basis expansion of a generator word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True, help="e.g. 't1 e1 v2' ('t1'' inverts)")

    p = sub.add_parser("trace", help="Markov trace of a generator word")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--spec", type=int, help="also evaluate at q = zeta_4N")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("gram", help="Gram matrix and ranks of a hom space")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--spec", type=int, action="append", default=[])
    p.add_argument("--generic", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(usage_error=p.error)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True, choices=[*SUITE_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    return parser


def _parse_shape(text: str):
    if not text:
        return ()
    try:
        return as_diagram(int(r) for r in text.split(","))
    except ValueError as exc:
        raise DomainError(str(exc))


def _refuse_over(limit: int, value: int, needs: str):
    """Refuse a command before any work when value exceeds its work bound."""
    if value > limit:
        raise DomainError(f"{needs}, over the limit {limit}")


def _perm_string(w) -> str:
    return "[" + ",".join(str(x + 1) for x in w) + "]"


def _cmd_dims(args) -> int:
    from .skein import basis_indices

    formula = dim_hom_formula(args.source, args.target)
    report = {"source": args.source, "target": args.target, "dimension": formula}
    if len(args.source) + len(args.target) <= 8:
        enumerated = len(basis_indices(args.source, args.target))
        report["enumerated"] = enumerated
        report["agrees"] = enumerated == formula
    if args.format == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(report["dimension"])
    return 0


def _cmd_decompose(args) -> int:
    _refuse_over(MAX_DECOMPOSE_N, args.N, f"decompose needs N = {args.N}")
    parity = "even" if args.object == "A" else "odd"
    rows = [
        {
            "mu": list(pair.lam),
            "mu_transpose": list(pair.mu),
            "weight": list(weight),
        }
        for pair, weight in decompose_object(args.N, parity)
    ]
    if args.format == "json":
        print(json.dumps({"N": args.N, "object": args.object, "summands": rows},
                         sort_keys=True))
    elif args.format == "csv":
        print("mu;weight")
        for row in rows:
            print(
                ",".join(map(str, row["mu"])) + ";" + ",".join(map(str, row["weight"]))
            )
    else:
        for row in rows:
            print(f"mu={tuple(row['mu'])} weight={tuple(row['weight'])}")
    return 0


def _cmd_tableaux(args) -> int:
    if args.mu is not None or args.lam is not None:
        if args.mu is None or args.lam is None:
            raise DomainError("pair counts need both --mu and --lam")
        mu, lam = _parse_shape(args.mu), _parse_shape(args.lam)
        check_shapes("tableaux", mu, lam)
        print(count_pair_tableaux(mu, lam))
    elif args.shape is not None:
        lam = _parse_shape(args.shape)
        check_shapes("tableaux", lam)
        print(count_standard_tableaux(lam))
    else:
        raise DomainError("provide --shape or --mu/--lam")
    return 0


def _cmd_paths(args) -> int:
    start = (_parse_shape(args.start_lam), _parse_shape(args.start_mu))
    end = (_parse_shape(args.end_lam), _parse_shape(args.end_mu))
    check_shapes("paths", end[0], start[1], joint=True)  # lam grows, mu shrinks
    print(count_paths_double_young(start, end, args.length))
    return 0


def _word_letters(args) -> list:
    """The letters of --word, refused before any work beyond MAX_WORD_STRANDS."""
    _refuse_over(MAX_WORD_STRANDS, args.n, f"{args.command} needs {args.n} strands")
    return parse_generator_word(args.word, args.n)


def _cmd_normalize(args) -> int:
    letters = _word_letters(args)
    elem = normalize(letters, args.n)
    print(
        json.dumps(
            {"n": args.n, "variant": elem.variant, "terms": term_list(elem)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_trace(args) -> int:
    letters = _word_letters(args)
    if args.spec is not None:
        point_order(args.spec)  # a bad --spec fails before any work
    elem = normalize(letters, args.n)
    if elem.variant != "even":
        raise DomainError("trace expects an even word (t and e letters)")
    value = markov_trace(elem)
    if args.format == "text":
        print(str(value))
        if args.spec is not None:
            print(str(specialize(value, args.spec)))
        return 0
    report = {"n": args.n, "word": args.word, "trace": str(value)}
    if args.spec is not None:
        report["spec"] = {"N": args.spec, "value": str(specialize(value, args.spec))}
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_gram(args) -> int:
    for flag in ("source", "target"):
        if not isinstance(getattr(args, flag), str):  # "--source=--" gives []
            args.usage_error(
                f"argument --{flag}: argparse reads '--' as the end of options; "
                "the signature '--' is library-only (gram_matrix('--', '--'))"
            )
    for N in args.spec:
        point_order(N)  # a bad --spec fails before any Gram work
    report = gram_matrix(args.source, args.target)
    ranks = {N: gram_rank(report, N) for N in args.spec}
    payload = {
        "source": report.source,
        "target": report.target,
        "dimension": report.dimension,
        "basis": [
            {"w": _perm_string(w), "s": format(emask, "b").zfill(1)}
            for (w, emask) in report.basis
        ],
        "entries": _entrywise(report, str),
        "ranks": {str(N): r for N, r in ranks.items()},
    }
    if args.generic:
        payload["generic_rank"] = gram_rank(report, "generic")
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"dim {payload['dimension']}")
        for N, r in sorted(ranks.items()):
            print(f"rank at N={N}: {r}")
        if args.generic:
            print(f"generic rank: {payload['generic_rank']}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for check, ok, detail in run_suite(name, args.seed):
            status = "PASS" if ok else "FAIL"
            suffix = f"  [{detail}]" if detail else ""
            print(f"{status} {name}: {check}{suffix}")
            failed += 0 if ok else 1
    print(f"{'OK' if failed == 0 else 'FAILED'} ({failed} failures)")
    return 0 if failed == 0 else 3


_COMMANDS = {
    "dims": _cmd_dims,
    "decompose": _cmd_decompose,
    "tableaux": _cmd_tableaux,
    "paths": _cmd_paths,
    "normalize": _cmd_normalize,
    "trace": _cmd_trace,
    "gram": _cmd_gram,
    "verify": _cmd_verify,
}


def _parse(parser: _Parser, argv: list):
    """parser.parse_args(argv), with a known command parsed by its own
    subparser: the top-level parser would hand it every argument after the
    command name anyway, and report the ones it leaves over."""
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # no command first: -h, --, an unknown name
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
