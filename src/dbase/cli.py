"""Command-line interface wiring the library to files and pipes.

Exit codes: 0 success, 1 domain error (bad input, violated precondition),
2 usage error.  ``-`` stands for stdin/stdout.  The ``dbase`` subcommand
streams implications as they are produced, one per line, flushed eagerly:
per row on the IB route, per element on the Mi route, whose rows for one
element are found together; each flush follows one write.  The Mi route's
element rows go from D-generator masks to text through
``GroundSet.labels_of``, the one label path, with no object per row.
"""
from __future__ import annotations

import argparse
import functools
import gc
import os
import sys

from . import __version__
from .closure import ClosureContext, binary_part
from .dualization import _d_base_batches_from_mi, dualize_distributive
# Unused here, but perfbench's tracer wraps dbase.cli.iter_d_base_from_mi.
from .dualization import iter_d_base_from_mi  # noqa: F401
from .errors import DBaseError, FileAccessError
from .gadgets import (
    gadget_size,
    gen_acyclic_instance,
    gen_lower_bounded_instance,
    one_in_three_assignments,
    parse_cnf,
    random_cnf,
    require_cnf_scale,
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
from .oracle import ORACLE_MAX_GROUND, BruteForce, brute_dual, require_oracle_scale
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


def _source(args: argparse.Namespace, path: str):
    if args.source == "mi":
        return _load_family(args, path)
    return _load_ib(args, path)


def _print(text: str, quiet: bool = False) -> None:
    if not quiet:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_close(args) -> int:
    ctx = ClosureContext(_source(args, args.file))
    aset = ctx.ground.set_of(args.set.split())
    closed = ctx.close_binary(aset) if args.binary else ctx.close(aset)
    _print(ctx.ground.labels_of(closed.bits) or ".")
    return 0


def _cmd_binary_part(args) -> int:
    _print(serialize_ib(binary_part(ClosureContext(_source(args, args.file)))))
    return 0


def _cmd_mi(args) -> int:
    ctx = ClosureContext.from_ib(_load_ib(args, args.file))
    _print(serialize_set_family(meet_irreducibles(ctx, max_ground=args.max_desk)))
    return 0


def _mi_route_text(mi):
    # The Mi route's text: the binary part, then each element's rows in one
    # chunk, joined straight from its D-generator masks by labels_of with no
    # object per row.  No kernel is empty, as a standard system has
    # cl(empty) = empty, so the "-> c" form of Implication.format never arises.
    batches = _d_base_batches_from_mi(mi)
    binary = next(batches)
    if binary:
        yield "".join(f"{imp.format()}\n" for imp in binary)
    names, labels_of = mi.ground.names, mi.ground.labels_of
    for c, kernels in batches:
        tail = f" -> {names[c]}\n"
        yield tail.join(map(labels_of, kernels)) + tail


def _cmd_dbase(args) -> int:
    # Each chunk of text goes out in one write and one flush: on the Mi route
    # the binary part, then one element's rows, which one dualization finds
    # together; on the IB route each row, found one traversal step apart.
    if args.source == "mi":
        chunks = _mi_route_text(_load_family(args, args.file))
    else:
        stream = iter_d_base(
            _load_ib(args, args.file),
            order=args.order or ORDER_POLICIES[0],
            max_states=args.max_states,
        )
        chunks = (f"{imp.format()}\n" for imp in stream)
    for chunk in chunks:
        sys.stdout.write(chunk)
        sys.stdout.flush()
    return 0


def _cmd_dualize(args) -> int:
    binary_ib = _load_ib(args, args.ib_file)
    b_plus = _load_family(args, args.antichain_file)
    _print(serialize_set_family(dualize_distributive(binary_ib, b_plus)))
    return 0


def _cmd_relations(args) -> int:
    mi = _load_family(args, args.file)
    if args.which == "d":
        rel = d_relation(mi)
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

    if args.output == "-":
        args.output = None
    if args.output:
        sidecar = os.path.splitext(args.output)[0] + ".json"
        if sidecar == args.output:
            raise FileAccessError(
                f"cannot write {args.output!r}: the JSON sidecar would overwrite it"
            )
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
            n_vars, n_clauses = rng.randint(3, args.vars), rng.randint(1, args.clauses)
            # The drawn sizes have no cap of their own: refuse what
            # verify_reduction would refuse before the formula is built.
            require_cnf_scale(n_vars)
            require_oracle_scale(gadget_size(which, n_vars, n_clauses), args.max_oracle)
            cnf = random_cnf(rng, n_vars, n_clauses)
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
    source = _source(args, args.file)
    brute = BruteForce(source, max_ground=args.max_oracle)
    if args.oracle_cmd == "cdb":
        _print(serialize_ib(brute.canonical_direct_base()))
    elif args.oracle_cmd == "dbase":
        _print(serialize_ib(brute.d_base()))
    elif args.oracle_cmd == "drel":
        sys.stdout.write(serialize_relation(brute.d_relation()))
    else:
        c = source.ground.position(args.element)
        sets = (
            brute.minimal_generators(c)
            if args.oracle_cmd == "gens"
            else brute.d_generators(c)
        )
        for es in sorted(sets, key=lambda s: tuple(s)):
            _print(source.ground.labels_of(es.bits) or ".")
    return 0


def _cmd_one_in_three(args) -> int:
    cnf = parse_cnf(_read(args.file))
    for t in one_in_three_assignments(cnf):
        _print(cnf.variables.labels_of(t.bits) or ".")
    return 0


def nonnegative(text: str) -> int:
    """argparse type of the caps and counts: an int that is not negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


# The options shared by several subcommands, each as its flag and the keyword
# arguments of ``add_argument``.  Both file loaders read --max-ground, the IB
# loader also --allow-empty-premise.
_SHARED = {
    "--max-ground": dict(type=nonnegative, default=DEFAULT_MAX_GROUND, metavar="N",
                         help="maximum ground size accepted (default %(default)s)"),
    "--allow-empty-premise": dict(action="store_true",
                                  help="accept implications with an empty premise"),
    "--from": dict(dest="source", choices=("ib", "mi"), default="ib",
                   help="file holds an implicational base or an Mi family"),
    "--max-oracle": dict(type=nonnegative, default=ORACLE_MAX_GROUND, metavar="N",
                         help="ground cap for exhaustive oracle scans (default %(default)s)"),
    "--max-desk": dict(type=nonnegative, default=DESK_MAX_GROUND, metavar="N",
                       help="ground cap for closed-set enumeration (default %(default)s)"),
    "--quiet": dict(action="store_true", help="suppress chatter"),
}
_IB = ("--max-ground", "--allow-empty-premise")


def _subparser(sub, name: str, shared=(), **kwargs) -> argparse.ArgumentParser:
    """Sub-parser ``name`` of ``sub`` holding the ``shared`` options, in order."""
    p = sub.add_parser(name, **kwargs)
    for flag in shared:
        p.add_argument(flag, **_SHARED[flag])
    return p


def _add_close(sub, binary: bool = False) -> None:
    name, text = (("closeb", "binary closure of a set") if binary
                  else ("close", "closure of a set"))
    p = _subparser(sub, name, (*_IB, "--from"), help=text)
    p.add_argument("file")
    p.add_argument("--set", required=True, help="whitespace-separated labels")
    p.set_defaults(func=_cmd_close, binary=binary)


def _add_binary_part(sub) -> None:
    p = _subparser(sub, "binary-part", (*_IB, "--from"),
                   help="all valid binary implications")
    p.add_argument("file")
    p.set_defaults(func=_cmd_binary_part)


def _add_mi(sub) -> None:
    p = _subparser(sub, "mi", (*_IB, "--max-desk"),
                   help="meet-irreducible elements (desk scale)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_mi)


def _add_cdb(sub) -> None:
    p = _subparser(sub, "cdb", (*_IB, "--max-oracle"),
                   help="canonical direct base (exhaustive oracle)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle, oracle_cmd="cdb", source="ib")


def _add_dbase(sub) -> None:
    p = _subparser(sub, "dbase", (*_IB, "--from"), help="stream the D-base")
    p.add_argument("file")
    # None marks --order as not given, which ``--from mi`` requires.
    p.add_argument("--order", choices=ORDER_POLICIES, default=None,
                   help="element order used by the Min procedure "
                        f"(default {ORDER_POLICIES[0]})")
    p.add_argument("--max-states", type=nonnegative, default=None, metavar="N",
                   help="cap on each target's visited set in the traversal")
    p.set_defaults(func=_cmd_dbase)


def _add_dualize(sub) -> None:
    p = _subparser(sub, "dualize", _IB, help="dual antichain in a distributive system")
    p.add_argument("ib_file")
    p.add_argument("antichain_file")
    p.set_defaults(func=_cmd_dualize)


def _add_relations(sub) -> None:
    p = _subparser(sub, "relations", ("--max-ground",),
                   help="delta- or D-relation edge list from Mi")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", dest="which", action="store_const", const="delta")
    group.add_argument("--d", dest="which", action="store_const", const="d")
    p.set_defaults(func=_cmd_relations)


def _add_classify(sub) -> None:
    p = _subparser(sub, "classify", (*_IB, "--max-desk"),
                   help="acyclic / lower-bounded / graph-acyclic flags")
    p.add_argument("file")
    p.set_defaults(func=_cmd_classify)


def _add_gen_sat(sub) -> None:
    p = _subparser(sub, "gen-sat", ("--quiet",),
                   help="generate a reduction instance from a 3-CNF")
    p.add_argument("file")
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("-o", "--output", default=None,
                   help="IB file to write (sidecar JSON lands next to it)")
    p.set_defaults(func=_cmd_gen_sat)


def _add_verify_sat(sub) -> None:
    p = _subparser(sub, "verify-sat", ("--max-oracle", "--quiet"),
                   help="verify a reduction's biconditional by brute force")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--reduction", choices=("acg", "lb"), required=True)
    p.add_argument("--random", type=nonnegative, default=0, metavar="COUNT",
                   help="verify COUNT random CNFs instead of a file")
    p.add_argument("--vars", type=int, default=8)
    p.add_argument("--clauses", type=int, default=6)
    p.add_argument("--seed", type=int, default=0, help="RNG seed for --random")
    p.set_defaults(func=_cmd_verify_sat)


def _add_one_in_three(sub) -> None:
    p = sub.add_parser("one-in-three", help="all 1-in-3 assignments of a positive 3-CNF")
    p.add_argument("file")
    p.set_defaults(func=_cmd_one_in_three)


def _add_oracle(sub) -> None:
    p = sub.add_parser("oracle", help="exhaustive reference computations")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    for name in ("gens", "dgens", "cdb", "dbase", "drel"):
        op = _subparser(osub, name, (*_IB, "--from", "--max-oracle"))
        op.add_argument("file")
        if name in ("gens", "dgens"):
            op.add_argument("-c", "--element", required=True)
        op.set_defaults(func=_cmd_oracle)
    op = _subparser(osub, "dual", (*_IB, "--max-oracle"))
    op.add_argument("file")
    op.add_argument("antichain_file")
    op.set_defaults(func=_cmd_oracle)


# Subcommand name -> the function adding its sub-parser, in help order.
_COMMANDS = {
    "close": _add_close,
    "closeb": functools.partial(_add_close, binary=True),
    "binary-part": _add_binary_part,
    "mi": _add_mi,
    "cdb": _add_cdb,
    "dbase": _add_dbase,
    "dualize": _add_dualize,
    "relations": _add_relations,
    "classify": _add_classify,
    "gen-sat": _add_gen_sat,
    "verify-sat": _add_verify_sat,
    "one-in-three": _add_one_in_three,
    "oracle": _add_oracle,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  With ``command``, a subcommand name, only its
    sub-parser is built; the top-level usage still lists every subcommand, so
    its error texts read the same."""
    parser = argparse.ArgumentParser(
        prog="dbase",
        description="Closure systems, implicational bases, and D-base computation.",
    )
    parser.add_argument("--version", action="version", version=f"dbase {__version__}")
    # One command's parser is given the metavar the full parser derives from
    # its choices; the full parser is not, as a given metavar would also
    # stand for "command" in its error texts.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        _COMMANDS[name](sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # No argument, a leading flag (help, version) or an unknown name gets the
    # full parser, which alone prints the subcommand list.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
        # The reader is gone, but the row that failed is still buffered: point
        # stdout at the null device so the interpreter's flush at exit succeeds.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 0  # no descriptor to redirect (an in-memory stream)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 0


def run() -> None:
    # Shutdown's collection skips the frozen import-time heap; the OS reclaims
    # its cycles, as no finalizer must run (`with` closes files, stdio is flushed).
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
