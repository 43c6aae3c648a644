"""Byte-identical outputs on seeded batches, pinned by SHA-256.

The digests were computed before the cycle and antichain helpers of
``dbase.lattice`` were merged; the merge must not change a single flag,
arrow or report.  A deliberate change of output updates the digest here.
"""
from __future__ import annotations

import hashlib
import random

from dbase import (
    ClosureContext,
    classify,
    meet_irreducibles,
    random_cnf,
    serialize_set_family,
    up_arrow,
    verify_reduction,
)
from dbase.lattice import implication_graph_acyclic

from conftest import random_ib

CLASSIFY_SHA256 = "fb98913f7eddaeb65f04e85472adeff680ccec998143fbcff8871e43f8cd09f8"
REPORTS_SHA256 = "c1f0edc1c80b1b96390d15253e259652bd7107480884cf4c5801dd700aa5f035"


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


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_classify_and_arrows_unchanged():
    assert _digest(_classify_lines()) == CLASSIFY_SHA256


def test_reduction_reports_unchanged():
    assert _digest(_report_lines()) == REPORTS_SHA256
