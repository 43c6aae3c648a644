"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 5 and 6 are randomized batches with fixed seeds; their
runtime targets (under two minutes each) hold with a wide margin.
"""
from __future__ import annotations

import random
import time

from dbase import (
    BruteForce,
    ClosureContext,
    ImplicationalBase,
    binary_part,
    d_base,
    d_base_from_mi,
    d_relation,
    delta_relation,
    dualize_distributive,
    embed_dualization,
    enumerate_d_generators,
    has_d_generators,
    iter_d_base,
    iter_d_base_from_mi,
    meet_irreducibles,
    parse_ib,
    parse_set_family,
    random_cnf,
    serialize_ib,
    up_arrow,
    verify_reduction,
)
from dbase.cli import main as cli_main
from dbase.traversal import build_reduced_base, min_reduce, neighbors, reduced_context

from conftest import (
    EX2_IB,
    EX3_CDB,
    EX4_DBASE,
    EX5_IB,
    EX8_DBASE,
    EX9_IB,
    DuplicateDetector,
    bfs_d_generators_from,
    dual_pair_ok,
    gap_ib_text,
    labelsets,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_running_example_exactness():
    start = time.perf_counter()
    ib = parse_ib(EX2_IB)
    ctx = ClosureContext.from_ib(ib)
    mi = meet_irreducibles(ctx)
    mi_ok = labelsets(mi) == {
        "356", "13", "15", "1356", "1456", "124", "2456", "12456",
    }
    cdb = BruteForce(ib).canonical_direct_base()
    cdb_ok = serialize_ib(cdb) == EX3_CDB and len(cdb) == 12
    dbase = d_base(ib)
    dbase_ok = serialize_ib(dbase) == EX4_DBASE and len(dbase) == 8
    elapsed = time.perf_counter() - start
    ok = mi_ok and cdb_ok and dbase_ok and elapsed < 1.0
    report(1, ok, f"Mi, canonical direct base, D-base bit-exact in {elapsed:.3f} s")


def test_criterion_2_solution_graph_example():
    start = time.perf_counter()
    ib = parse_ib(EX9_IB)
    g = ib.ground
    expected = {
        "2": {"15", "16"},
        "3": {"157", "158", "167", "168", "27", "28"},
        "4": {"157", "167", "168", "27", "36"},
    }
    sets_ok = all(
        labelsets(enumerate_d_generators(ib, g.position(label), order=order)) == want
        for label, want in expected.items()
        for order in ("size-label", "natural")
    )
    # The walkthrough fixes the order 1 < ... < 8, i.e. declaration order.
    rb = build_reduced_base(ib, g.position("4"), order="natural")
    ctx4 = reduced_context(rb)
    node_167 = g.set_of(["1", "6", "7"])
    transition_ok = g.set_of(["1", "6", "8"]) in neighbors(rb, ctx4, node_167)
    window = ctx4.close_binary_bits(
        (ctx4.close_binary_bits(node_167.bits) & ~ctx4.singleton_closure(g.position("3")))
        | g.set_of(["2", "8"]).bits
    )
    from dbase import ElementSet

    via_28_3 = min_reduce(rb, ctx4, ElementSet(g, window))
    transition_ok = transition_ok and via_28_3 == g.set_of(["1", "6", "8"])
    elapsed = time.perf_counter() - start
    ok = sets_ok and transition_ok and elapsed < 1.0
    report(2, ok, f"genD sets exact, 167 to 168 via 2 8 -> 3, in {elapsed:.3f} s")


def test_criterion_3_dualization_exactness():
    ex5 = parse_ib(EX5_IB)
    b_plus5 = parse_set_family("ground: 1 2 3 4 5\n1 2\n1 4\n4 5\n")
    first = labelsets(dualize_distributive(ex5, b_plus5)) == {"123", "124", "145"}

    ex8 = parse_ib(EX8_DBASE)
    bp8 = binary_part(ClosureContext.from_ib(ex8))
    b_plus8 = parse_set_family("ground: 1 2 3 4 5\n1 2\n2 3\n2 4\n")
    second = labelsets(dualize_distributive(bp8, b_plus8)) == {
        "5", "123", "124", "234",
    }

    mi_prime = embed_dualization(ex5, b_plus5)
    third = labelsets(mi_prime) == {
        "12", "14", "45", "45_d", "123_d", "145_d", "1234_d", "1245_d",
    }
    prime_base = d_base_from_mi(mi_prime)
    fourth = {i.format() for i in prime_base} == {
        "2 -> 1", "3 -> 2", "3 -> 1", "3 -> _d", "5 -> 4",
        "2 4 -> _d", "1 5 -> _d",
    }
    ok = first and second and third and fourth
    report(3, ok, "both duals exact; gadget Mi and gadget D-base verbatim")


def test_criterion_4_gap_family_scaling(tmp_path, capsys):
    path = tmp_path / "gap12.ib"
    path.write_text(gap_ib_text(12))
    start = time.perf_counter()
    code = cli_main(["dbase", str(path), "--from", "ib"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    stream_ok = code == 0 and len(out.strip().splitlines()) == 13 and elapsed < 1.0

    # At n = 10 the displayed canonical direct base has one row per choice
    # function (2^n rows concluding c) plus the n binary rows.  The prose
    # summary "2^n + 1" contradicts the displayed base; the display wins
    # (see the decisions ledger), so the exact expected size is 2^10 + 10.
    ib10 = parse_ib(gap_ib_text(10))
    brute = BruteForce(ib10, max_ground=21)
    c = ib10.ground.position("c")
    rows_for_c = len(brute.minimal_generator_masks(c))
    cdb_size = len(brute.canonical_direct_base())
    oracle_ok = rows_for_c == 2**10 == 1024 and cdb_size == 2**10 + 10 == 1034
    ok = stream_ok and oracle_ok
    report(
        4,
        ok,
        f"D-base of gap(12) is 13 rows in {elapsed:.3f} s; "
        f"canonical direct base of gap(10) is {cdb_size} rows "
        "(2^10 rows for c plus 10 binary; prose count 2^n + 1 is a slip)",
    )


def test_criterion_5_cross_route_oracle_equivalence():
    from conftest import random_standard_ib

    start = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(300):
        ib = random_standard_ib(rng, max_n=8, max_m=12)
        ctx = ClosureContext.from_ib(ib)
        n = len(ib.ground)

        stream_ib = DuplicateDetector(
            iter_d_base(ib), key=lambda i: (i.premise.bits, i.conclusion)
        )
        main_base = ImplicationalBase(ib.ground, list(stream_ib)).canonicalize()

        mi = meet_irreducibles(ctx)
        stream_mi = DuplicateDetector(
            iter_d_base_from_mi(mi), key=lambda i: (i.premise.bits, i.conclusion)
        )
        mi_base = ImplicationalBase(ib.ground, list(stream_mi)).canonicalize()

        brute = BruteForce(ib)
        assert main_base == mi_base == brute.d_base()

        out_ctx = ClosureContext.from_ib(main_base)
        for bits in range(1 << n):
            assert ctx.close_bits(bits) == out_ctx.close_bits(bits)

        assert d_relation(mi).arcs <= delta_relation(mi).arcs
        assert brute.d_relation().arcs <= brute.delta_relation().arcs

        bp = binary_part(ctx)
        for c in range(n):
            b_plus = up_arrow(mi, c)
            b_minus = dualize_distributive(bp, b_plus)
            assert dual_pair_ok(bp, b_plus, b_minus)
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0
    report(
        5,
        ok,
        f"300 random systems: both routes equal the brute D-base, closures "
        f"agree on all subsets, D within delta, all duals verified, "
        f"in {elapsed:.1f} s",
    )


def test_criterion_6_hardness_biconditional():
    start = time.perf_counter()
    rng = random.Random(4096)
    with_assignment = 0
    for _ in range(200):
        cnf = random_cnf(rng, rng.randint(3, 8), rng.randint(1, 6))
        for which in ("acyclic", "lower_bounded"):
            result = verify_reduction(cnf, which)
            assert result.biconditional, (which, cnf)
            assert result.structure_ok, (which, result.checks, cnf)
        if verify_reduction(cnf, "acyclic").assignment_exists:
            with_assignment += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0 and 0 < with_assignment < 200
    report(
        6,
        ok,
        f"200 random formulas, both reductions: biconditional and structural "
        f"claims hold ({with_assignment} satisfiable), in {elapsed:.1f} s",
    )


def test_criterion_7_enumeration_hygiene():
    from conftest import random_standard_ib

    start = time.perf_counter()
    fixtures = [parse_ib(EX2_IB), parse_ib(EX8_DBASE), parse_ib(EX9_IB)]
    rng = random.Random(5150)
    instances = fixtures + [random_standard_ib(rng, max_n=7, max_m=10) for _ in range(60)]
    for ib in instances:
        ctx = ClosureContext.from_ib(ib)
        list(
            DuplicateDetector(
                iter_d_base(ib), key=lambda i: (i.premise.bits, i.conclusion)
            )
        )
        for c in range(len(ib.ground)):
            if not has_d_generators(ctx, c):
                continue
            gens = set(
                DuplicateDetector(enumerate_d_generators(ib, c), key=lambda s: s.bits)
            )
            for seed in gens:
                assert bfs_d_generators_from(ib, c, seed) == gens, (
                    "solution graph not strongly connected"
                )
    elapsed = time.perf_counter() - start
    report(
        7,
        True,
        f"no duplicate emissions; every genD(c) reachable from any of its "
        f"members, over {len(instances)} systems, in {elapsed:.1f} s",
    )
