"""Command-line interface wiring the library to files and pipes.

Exit codes: 0 success, 1 domain error (bad input, violated precondition),
2 usage error.  ``-`` stands for stdin/stdout.  The ``dbase`` subcommand
streams implications as they are produced, one per line, flushed eagerly.
"""
from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .closure import ClosureContext, binary_part
from .dualization import dualize_distributive, iter_d_base_from_mi
from .errors import DBaseError, FileAccessError
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
    DESK_MAX_GROUND,
    classify,
    d_relation,
    delta_relation,
    meet_irreducibles,
)
from .model import (
    DEFAULT_MAX_GROUND,
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_relation,
    serialize_set_family,
)
from .oracle import (
    ORACLE_MAX_GROUND,
    BruteForce,
    brute_canonical_direct_base,
    brute_d_base,
    brute_d_relation,
    brute_dual,
)
from .traversal import ORDER_POLICIES, iter_d_base


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FileAccessError(
            f"cannot read {path!r}: not UTF-8 text ({exc.reason})"
        ) from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise FileAccessError(f"cannot write {path!r}: {exc.strerror or exc}") from None


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
            order=args.order or ORDER_POLICIES[0],
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
    import json

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
        sidecar = os.path.splitext(args.output)[0] + ".json"
        _write(args.output, text)
        _write(sidecar, json.dumps(meta, indent=2) + "\n")
        _print(f"wrote {args.output} and {sidecar}", args.quiet)
    else:
        sys.stdout.write(text)
        sys.stdout.write("# sidecar: " + json.dumps(meta) + "\n")
    return 0


def _cmd_verify_sat(args) -> int:
    which = {"acg": "acyclic", "lb": "lower_bounded"}[args.reduction]
    if args.random:
        import random

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


def nonnegative(text: str) -> int:
    """argparse type of the caps and counts: an int that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _option(*flags: str, **kwargs) -> argparse.ArgumentParser:
    """An option-only parent parser holding one option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    # One parent per piece of code that reads an option: both file loaders
    # read --max-ground, the IB loader also --allow-empty-premise.
    ground = _option(
        "--max-ground", type=nonnegative, default=DEFAULT_MAX_GROUND, metavar="N",
        help="maximum ground size accepted (default %(default)s)")
    empty = _option("--allow-empty-premise", action="store_true",
                    help="accept implications with an empty premise")
    ib = [ground, empty]
    source = _option("--from", dest="source", choices=("ib", "mi"), default="ib",
                     help="file holds an implicational base or an Mi family")
    max_oracle = _option(
        "--max-oracle", type=nonnegative, default=ORACLE_MAX_GROUND, metavar="N",
        help="ground cap for exhaustive oracle scans (default %(default)s)")
    max_desk = _option(
        "--max-desk", type=nonnegative, default=DESK_MAX_GROUND, metavar="N",
        help="ground cap for closed-set enumeration (default %(default)s)")
    quiet = _option("--quiet", action="store_true", help="suppress chatter")

    parser = argparse.ArgumentParser(
        prog="dbase",
        description="Closure systems, implicational bases, and D-base computation.",
    )
    parser.add_argument("--version", action="version", version=f"dbase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, binary, text in (("close", False, "closure of a set"),
                               ("closeb", True, "binary closure of a set")):
        p = sub.add_parser(name, parents=[*ib, source], help=text)
        p.add_argument("file")
        p.add_argument("--set", required=True, help="whitespace-separated labels")
        p.set_defaults(func=_cmd_close, binary=binary)

    p = sub.add_parser("binary-part", parents=[*ib, source],
                       help="all valid binary implications")
    p.add_argument("file")
    p.set_defaults(func=_cmd_binary_part)

    p = sub.add_parser("mi", parents=[*ib, max_desk],
                       help="meet-irreducible elements (desk scale)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mi)

    p = sub.add_parser("cdb", parents=[*ib, max_oracle],
                       help="canonical direct base (exhaustive oracle)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_cdb)

    p = sub.add_parser("dbase", parents=[*ib, source], help="stream the D-base")
    p.add_argument("file")
    # None marks --order as not given, which ``--from mi`` requires.
    p.add_argument("--order", choices=ORDER_POLICIES, default=None,
                   help="element order used by the Min procedure "
                        f"(default {ORDER_POLICIES[0]})")
    p.add_argument("--max-states", type=nonnegative, default=None, metavar="N",
                   help="cap on each target's visited set in the traversal")
    p.set_defaults(func=_cmd_dbase)

    p = sub.add_parser("dualize", parents=ib,
                       help="dual antichain in a distributive system")
    p.add_argument("ib_file")
    p.add_argument("antichain_file")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("relations", parents=[ground],
                       help="delta- or D-relation edge list from Mi")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", dest="which", action="store_const", const="delta")
    group.add_argument("--d", dest="which", action="store_const", const="d")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("classify", parents=[*ib, max_desk],
                       help="acyclic / lower-bounded / graph-acyclic flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("gen-sat", parents=[quiet],
                       help="generate a reduction instance from a 3-CNF")
    p.add_argument("file")
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("-o", "--output", default=None,
                   help="IB file to write (sidecar JSON lands next to it)")
    p.set_defaults(func=_cmd_gen_sat)

    p = sub.add_parser("verify-sat", parents=[max_oracle, quiet],
                       help="verify a reduction's biconditional by brute force")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("--random", type=nonnegative, default=0, metavar="COUNT",
                   help="verify COUNT random CNFs instead of a file")
    p.add_argument("--vars", type=int, default=8)
    p.add_argument("--clauses", type=int, default=6)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --random")
    p.set_defaults(func=_cmd_verify_sat)

    p = sub.add_parser("one-in-three",
                       help="all 1-in-3 assignments of a positive 3-CNF")
    p.add_argument("file")
    p.set_defaults(func=_cmd_one_in_three)

    p = sub.add_parser("oracle", help="exhaustive reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("gens", "dgens", "cdb", "dbase", "drel"):
        op = osub.add_parser(name, parents=[*ib, source, max_oracle])
        op.add_argument("file")
        if name in ("gens", "dgens"):
            op.add_argument("-c", "--element", required=True)
        op.set_defaults(func=_cmd_oracle)
    op = osub.add_parser("dual", parents=[*ib, max_oracle])
    op.add_argument("file")
    op.add_argument("antichain_file")
    op.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify-sat":
        if not args.random and args.file is None:
            parser.error("verify-sat needs a CNF file or --random COUNT")
        if args.random and args.file is not None:
            parser.error("verify-sat takes a CNF file or --random COUNT, not both")
        if args.vars < 3:
            parser.error("--vars must be at least 3 (clauses have 3 variables)")
        if args.clauses < 1:
            parser.error("--clauses must be at least 1")
    if getattr(args, "source", None) == "mi":
        # An Mi family is read by no option of the IB loader or the IB route.
        unread = [("--allow-empty-premise", args.allow_empty_premise)]
        if args.command == "dbase":
            unread += [
                ("--order", args.order is not None),
                ("--max-states", args.max_states is not None),
            ]
        given = [flag for flag, present in unread if present]
        if given:
            parser.error(f"--from mi takes no {', '.join(given)}")
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
