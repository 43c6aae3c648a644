"""Command-line interface wiring the library to files and pipes.

Exit codes: 0 success, 1 domain error (bad input, violated precondition),
2 usage error.  ``-`` stands for stdin/stdout.  The ``dbase`` subcommand
streams implications as they are produced, one per line, flushed eagerly.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import __version__
from .closure import ClosureContext, binary_part
from .dualization import (
    d_base_from_mi,
    dualize_distributive,
    iter_d_base_from_mi,
)
from .errors import DBaseError
from .gadgets import (
    gen_acyclic_instance,
    gen_lower_bounded_instance,
    one_in_three_assignments,
    parse_cnf,
    random_cnf,
    serialize_cnf,
    verify_reduction,
)
from .lattice import (
    classify,
    d_relation,
    delta_relation,
    meet_irreducibles,
)
from .model import (
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_relation,
    serialize_set_family,
)
from .oracle import (
    BruteForce,
    brute_canonical_direct_base,
    brute_d_base,
    brute_d_relation,
    brute_dual,
)
from .traversal import iter_d_base


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_ib(args: argparse.Namespace, path: str):
    return parse_ib(
        _read(path),
        allow_empty_premise=args.allow_empty_premise,
        max_ground=args.max_ground,
    )


def _load_family(args: argparse.Namespace, path: str):
    return parse_set_family(_read(path), max_ground=args.max_ground)


def _context(args: argparse.Namespace, path: str) -> ClosureContext:
    if args.source == "mi":
        return ClosureContext.from_mi(_load_family(args, path))
    return ClosureContext.from_ib(_load_ib(args, path))


def _print(text: str, quiet: bool = False) -> None:
    if not quiet:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_close(args) -> int:
    ctx = _context(args, args.file)
    aset = ctx.ground.set_of(args.set.split())
    closed = ctx.close_binary(aset) if args.binary else ctx.close(aset)
    _print(" ".join(closed.labels()))
    return 0


def _cmd_binary_part(args) -> int:
    _print(serialize_ib(binary_part(_context(args, args.file))))
    return 0


def _cmd_mi(args) -> int:
    ctx = ClosureContext.from_ib(_load_ib(args, args.file))
    _print(serialize_set_family(meet_irreducibles(ctx, max_ground=args.max_desk)))
    return 0


def _cmd_cdb(args) -> int:
    ctx = ClosureContext.from_ib(_load_ib(args, args.file))
    _print(serialize_ib(brute_canonical_direct_base(ctx, max_ground=args.max_oracle)))
    return 0


def _cmd_dbase(args) -> int:
    if args.source == "mi":
        stream = iter_d_base_from_mi(_load_family(args, args.file))
    else:
        stream = iter_d_base(
            _load_ib(args, args.file),
            order=args.order,
            max_states=args.max_states,
        )
    for imp in stream:
        print(imp.format(), flush=True)
    return 0


def _cmd_dualize(args) -> int:
    binary_ib = _load_ib(args, args.ib_file)
    b_plus = _load_family(args, args.antichain_file)
    _print(serialize_set_family(dualize_distributive(binary_ib, b_plus)))
    return 0


def _cmd_relations(args) -> int:
    mi = _load_family(args, args.file)
    if args.which == "d":
        rel = d_relation(mi, ClosureContext.from_mi(mi))
    else:
        rel = delta_relation(mi)
    sys.stdout.write(serialize_relation(rel))
    return 0


def _cmd_classify(args) -> int:
    result = classify(_load_ib(args, args.file), max_ground=args.max_desk)
    for name in ("is_acyclic", "is_lower_bounded", "graph_acyclic"):
        _print(f"{name}: {str(getattr(result, name)).lower()}")
    return 0


def _cmd_gen_sat(args) -> int:
    cnf = parse_cnf(_read(args.file))
    if args.reduction == "acg":
        ib, source, target = gen_acyclic_instance(cnf)
    else:
        ib, source, target = gen_lower_bounded_instance(cnf)
    meta = {
        "reduction": args.reduction,
        "source": ib.ground.label(source),
        "target": ib.ground.label(target),
        "question": "target D source",
    }
    text = serialize_ib(ib)
    if args.output:
        out = Path(args.output)
        out.write_text(text, encoding="utf-8")
        sidecar = out.with_suffix(".json")
        sidecar.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
        _print(f"wrote {out} and {sidecar}", args.quiet)
    else:
        sys.stdout.write(text)
        sys.stdout.write("# sidecar: " + json.dumps(meta) + "\n")
    return 0


def _cmd_verify_sat(args) -> int:
    which = {"acg": "acyclic", "lb": "lower_bounded"}[args.reduction]
    if args.random:
        rng = random.Random(args.seed)
        failures = 0
        for i in range(args.random):
            cnf = random_cnf(rng, rng.randint(3, args.vars), rng.randint(1, args.clauses))
            report = verify_reduction(cnf, which, max_ground=args.max_oracle)
            if not report.ok:
                failures += 1
                _print(f"FAIL on instance {i}:\n{serialize_cnf(cnf)}")
        _print(f"{args.random - failures}/{args.random} random instances ok", args.quiet)
        return 0 if failures == 0 else 1
    cnf = parse_cnf(_read(args.file))
    report = verify_reduction(cnf, which, max_ground=args.max_oracle)
    _print(f"reduction: {report.reduction}")
    _print(f"target_D_source: {str(report.d_holds).lower()}")
    _print(f"one_in_three_assignment_exists: {str(report.assignment_exists).lower()}")
    _print(f"biconditional: {str(report.biconditional).lower()}")
    for name, value in report.checks.items():
        _print(f"{name}: {str(value).lower()}")
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    if args.oracle_cmd == "dual":
        binary_ib = _load_ib(args, args.file)
        b_plus = _load_family(args, args.antichain_file)
        _print(
            serialize_set_family(
                brute_dual(binary_ib, b_plus, max_ground=args.max_oracle)
            )
        )
        return 0
    ctx = _context(args, args.file)
    if args.oracle_cmd == "cdb":
        _print(serialize_ib(brute_canonical_direct_base(ctx, max_ground=args.max_oracle)))
    elif args.oracle_cmd == "dbase":
        _print(serialize_ib(brute_d_base(ctx, max_ground=args.max_oracle)))
    elif args.oracle_cmd == "drel":
        sys.stdout.write(serialize_relation(brute_d_relation(ctx, max_ground=args.max_oracle)))
    elif args.oracle_cmd in ("gens", "dgens"):
        brute = BruteForce(ctx, max_ground=args.max_oracle)
        c = ctx.ground.position(args.element)
        sets = (
            brute.minimal_generators(c)
            if args.oracle_cmd == "gens"
            else brute.d_generators(c)
        )
        for es in sorted(sets, key=lambda s: tuple(s)):
            _print(" ".join(es.labels()) or ".")
    return 0


def _cmd_one_in_three(args) -> int:
    cnf = parse_cnf(_read(args.file))
    for t in one_in_three_assignments(cnf):
        _print(" ".join(t.labels()) or ".")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--max-ground", type=int, default=64, metavar="N",
                        help="maximum ground size accepted (default 64)")
    common.add_argument("--order", choices=("size-label", "natural"),
                        default="size-label",
                        help="element order used by the Min procedure")
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--quiet", action="store_true", help="suppress chatter")
    common.add_argument("--allow-empty-premise", action="store_true",
                        help="accept implications with an empty premise")
    common.add_argument("--max-states", type=int, default=None, metavar="N",
                        help="cap on the traversal's visited-set size")
    common.add_argument("--max-oracle", type=int, default=16, metavar="N",
                        help="ground cap for exhaustive oracle scans (default 16)")
    common.add_argument("--max-desk", type=int, default=20, metavar="N",
                        help="ground cap for closed-set enumeration (default 20)")

    parser = argparse.ArgumentParser(
        prog="dbase",
        description="Closure systems, implicational bases, and D-base computation.",
    )
    parser.add_argument("--version", action="version", version=f"dbase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("close", parents=[common], help="closure of a set")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="whitespace-separated labels")
    p.add_argument("--from", dest="source", choices=("ib", "mi"), default="ib")
    p.set_defaults(func=_cmd_close, binary=False)

    p = sub.add_parser("closeb", parents=[common], help="binary closure of a set")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p.add_argument("--from", dest="source", choices=("ib", "mi"), default="ib")
    p.set_defaults(func=_cmd_close, binary=True)

    p = sub.add_parser("binary-part", parents=[common],
                       help="all valid binary implications")
    p.add_argument("file")
    p.add_argument("--from", dest="source", choices=("ib", "mi"), default="ib")
    p.set_defaults(func=_cmd_binary_part)

    p = sub.add_parser("mi", parents=[common],
                       help="meet-irreducible elements (desk scale)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mi)

    p = sub.add_parser("cdb", parents=[common],
                       help="canonical direct base (exhaustive oracle)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cdb)

    p = sub.add_parser("dbase", parents=[common], help="stream the D-base")
    p.add_argument("file")
    p.add_argument("--from", dest="source", choices=("ib", "mi"), default="ib")
    p.set_defaults(func=_cmd_dbase)

    p = sub.add_parser("dualize", parents=[common],
                       help="dual antichain in a distributive system")
    p.add_argument("ib_file")
    p.add_argument("antichain_file")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("relations", parents=[common],
                       help="delta- or D-relation edge list from Mi")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", dest="which", action="store_const", const="delta")
    group.add_argument("--d", dest="which", action="store_const", const="d")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("classify", parents=[common],
                       help="acyclic / lower-bounded / graph-acyclic flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen-sat", parents=[common],
                       help="generate a reduction instance from a 3-CNF")
    p.add_argument("file")
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("-o", "--output", default=None,
                   help="IB file to write (sidecar JSON lands next to it)")
    p.set_defaults(func=_cmd_gen_sat)

    p = sub.add_parser("verify-sat", parents=[common],
                       help="verify a reduction's biconditional by brute force")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="verify COUNT random CNFs instead of a file")
    p.add_argument("--vars", type=int, default=8)
    p.add_argument("--clauses", type=int, default=6)
    p.set_defaults(func=_cmd_verify_sat)

    p = sub.add_parser("one-in-three", parents=[common],
                       help="all 1-in-3 assignments of a positive 3-CNF")
    p.add_argument("file")
    p.set_defaults(func=_cmd_one_in_three)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name, needs_element in (
        ("gens", True), ("dgens", True), ("cdb", False),
        ("dbase", False), ("drel", False),
    ):
        op = osub.add_parser(name, parents=[common])
        op.add_argument("file")
        op.add_argument("--from", dest="source", choices=("ib", "mi"), default="ib")
        if needs_element:
            op.add_argument("-c", "--element", required=True)
        op.set_defaults(func=_cmd_oracle)
    op = osub.add_parser("dual", parents=[common])
    op.add_argument("file")
    op.add_argument("antichain_file")
    op.set_defaults(func=_cmd_oracle, source="ib")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-sat" and not args.random and args.file is None:
        parser.error("verify-sat needs a CNF file or --random COUNT")
    try:
        return args.func(args)
    except DBaseError as exc:
        print(f"dbase: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
