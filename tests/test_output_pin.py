"""Byte-identical outputs on seeded batches, pinned by SHA-256.

The digests were computed before the cycle and antichain helpers of
``dbase.lattice`` were merged; the merge must not change a single flag,
arrow or report.  The stream digests cover both D-base routes row by row,
row order included, so a faster dualizer or traversal must emit exactly the
same rows in the same order.  The IB route's row-set digest leaves that
order out, so a change that only reorders a traversal keeps it.  The help
digest covers every help and usage text of the CLI, of the full parser and
of each one-command parser, so a rebuilt parser must print them byte for
byte.  A deliberate change of output updates the digest here.
"""
from __future__ import annotations

import argparse
import hashlib
import random
import sys

import pytest

from dbase import (
    ClosureContext,
    classify,
    iter_d_base,
    iter_d_base_from_mi,
    meet_irreducibles,
    parse_set_family,
    random_cnf,
    serialize_ib,
    serialize_set_family,
    up_arrow,
    verify_reduction,
)
from dbase.cli import _COMMANDS, build_parser
from dbase.lattice import implication_graph_acyclic

from conftest import gap_mi_text, random_ib, random_standard_ib, random_standard_mi

CLASSIFY_SHA256 = "fb98913f7eddaeb65f04e85472adeff680ccec998143fbcff8871e43f8cd09f8"
REPORTS_SHA256 = "c1f0edc1c80b1b96390d15253e259652bd7107480884cf4c5801dd700aa5f035"
MI_STREAM_SHA256 = "0657d61c4bc137c8803c1153e6f66bdc6080ad0cd79ea57efd44d9cfa2b173e2"
IB_STREAM_SHA256 = "01597396af4fbc1bcf3444f01b513cbdb4f1362072d57e36daee1175ee3096bb"
IB_ROW_SETS_SHA256 = "517edeecf78ef8761bf9b55eb57eae39d414fcbdd7759504dd8f8db3e494af7b"
# argparse lays help out differently from Python 3.13 on.
HELP_SHA256 = {
    (3, 10): "46597086e14b1efbafcb0ecc126c013413c38158ad0839951b92edcb976e78ed",
    (3, 11): "46597086e14b1efbafcb0ecc126c013413c38158ad0839951b92edcb976e78ed",
    (3, 12): "46597086e14b1efbafcb0ecc126c013413c38158ad0839951b92edcb976e78ed",
    (3, 13): "7f1c264036f583b6401868b0de1cc8d9d49ca827f570667406fd2cf4110f0417",
}


def _classify_lines():
    rng = random.Random(1109)
    for _ in range(120):
        ib = random_ib(rng, rng.randint(4, 9), rng.randint(0, 12))
        got = classify(ib)
        yield f"{got.is_acyclic} {got.is_lower_bounded} {got.graph_acyclic}"
        yield str(implication_graph_acyclic(ib))
        mi = meet_irreducibles(ClosureContext.from_ib(ib))
        for a in range(len(ib.ground)):
            yield serialize_set_family(up_arrow(mi, a))


def _report_lines():
    rng = random.Random(1110)
    for _ in range(40):
        cnf = random_cnf(rng, rng.randint(3, 6), rng.randint(1, 4))
        for which in ("acyclic", "lower_bounded"):
            report = verify_reduction(cnf, which)
            checks = " ".join(f"{k}={v}" for k, v in report.checks.items())
            yield f"{report.reduction} {report.d_holds} {report.assignment_exists} {checks}"


def _mi_stream_lines():
    families = [parse_set_family(gap_mi_text(n)) for n in range(1, 11)]
    rng = random.Random(1111)
    families += [random_standard_mi(rng) for _ in range(100)]
    for mi in families:
        yield serialize_set_family(mi)
        yield from (imp.format() for imp in iter_d_base_from_mi(mi))


def _ib_stream_lines(arrange=list):
    # ``arrange=sorted`` gives each input's set of rows, free of their order.
    rng = random.Random(1112)
    for _ in range(100):
        ib = random_standard_ib(rng)
        yield serialize_ib(ib)
        for order in ("size-label", "natural"):
            yield order
            yield from arrange(imp.format() for imp in iter_d_base(ib, order=order))


def _walk(parser, path):
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _walk(child, f"{path} {name}")


def _help_lines():
    for command in (None, *_COMMANDS):
        for path, parser in _walk(build_parser(command), f"build_parser({command!r})"):
            yield path
            yield parser.format_usage()
            yield parser.format_help()


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_classify_and_arrows_unchanged():
    assert _digest(_classify_lines()) == CLASSIFY_SHA256


def test_reduction_reports_unchanged():
    assert _digest(_report_lines()) == REPORTS_SHA256


def test_mi_route_stream_unchanged():
    assert _digest(_mi_stream_lines()) == MI_STREAM_SHA256


def test_ib_route_stream_unchanged():
    assert _digest(_ib_stream_lines()) == IB_STREAM_SHA256


def test_ib_route_row_sets_unchanged():
    assert _digest(_ib_stream_lines(sorted)) == IB_ROW_SETS_SHA256


def test_help_and_usage_unchanged(monkeypatch):
    want = HELP_SHA256.get(sys.version_info[:2])
    if want is None:
        pytest.skip("no help digest pinned for this Python's argparse")
    # argparse wraps help to the terminal width, read from COLUMNS first.
    monkeypatch.setenv("COLUMNS", "80")
    assert _digest(_help_lines()) == want
