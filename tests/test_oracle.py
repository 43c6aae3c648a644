"""The exhaustive oracle itself, validated against the worked examples."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dbase
from dbase import (
    BruteForce,
    ClosureContext,
    GroundSet,
    ImplicationalBase,
    SetFamily,
    binary_part,
    brute_canonical_direct_base,
    brute_d_base,
    brute_d_generators,
    brute_d_relation,
    brute_minimal_generators,
    is_d_generator,
    parse_ib,
    serialize_ib,
)
from dbase.errors import GroundTooLarge
from dbase.lattice import closed_set_masks
from dbase.model import ElementSet

from conftest import EX3_CDB, gap_ib_text, labelsets, random_standard_ib


class TestMinimalGenerators:
    def test_element_1(self, ex2_ctx):
        got = brute_minimal_generators(ex2_ctx, ex2_ctx.ground.position("1"))
        assert labelsets(got) == {"23", "34"}

    def test_element_6(self, ex2_ctx):
        got = brute_minimal_generators(ex2_ctx, ex2_ctx.ground.position("6"))
        assert labelsets(got) == {"23", "25", "34", "35", "45"}

    def test_unconcluded_element(self, ex2_ctx):
        got = brute_minimal_generators(ex2_ctx, ex2_ctx.ground.position("3"))
        assert got == []


class TestCanonicalDirectBase:
    def test_running_example(self, ex2_ctx):
        got = brute_canonical_direct_base(ex2_ctx)
        assert serialize_ib(got) == EX3_CDB
        assert len(got) == 12

    def test_empty_base(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2\n"))
        assert len(brute_canonical_direct_base(ctx)) == 0

    def test_gap_family_counts(self):
        # The displayed canonical direct base of the gap family has one row per
        # choice function (2^n rows concluding c) plus the n binary rows; its
        # summary line elsewhere says 2^n + 1, an arithmetic slip.
        ib = parse_ib(gap_ib_text(4))
        ctx = ClosureContext.from_ib(ib)
        cdb = brute_canonical_direct_base(ctx)
        c = ib.ground.position("c")
        assert len(brute_minimal_generators(ctx, c)) == 2**4
        assert len(cdb) == 2**4 + 4


class TestDGenerators:
    def test_element_6_excludes_25(self, ex2_ctx):
        got = brute_d_generators(ex2_ctx, ex2_ctx.ground.position("6"))
        assert labelsets(got) == {"34", "35", "45"}

    def test_distributive_empty(self, ex5_ib):
        ctx = ClosureContext.from_ib(ex5_ib)
        for c in range(5):
            assert brute_d_generators(ctx, c) == []

    def test_solution_graph_example(self, ex9_ib):
        ctx = ClosureContext.from_ib(ex9_ib)
        got = brute_d_generators(ctx, ex9_ib.ground.position("4"))
        assert labelsets(got) == {"157", "167", "168", "27", "36"}


class TestRelationsAndDual:
    def test_atomistic_d_equals_delta(self):
        ib = parse_ib("ground: 1 2 3 4\n1 2 -> 3\n2 3 -> 4\n")
        ctx = ClosureContext.from_ib(ib)
        assert len(binary_part(ctx)) == 0
        brute = BruteForce(ctx)
        assert brute.d_relation() == brute.delta_relation()

    def test_d_relation_running_example(self, ex2_ctx):
        rel = brute_d_relation(ex2_ctx)
        g = ex2_ctx.ground
        pairs = {(g.label(c), g.label(a)) for c, a in rel.arcs}
        assert pairs == {
            ("1", "3"), ("1", "4"),
            ("2", "3"), ("2", "4"),
            ("5", "3"), ("5", "4"),
            ("6", "3"), ("6", "4"), ("6", "5"),
        }

    def test_closed_masks_match_lattice_enumeration(self, ex2_ctx):
        brute = BruteForce(ex2_ctx)
        assert sorted(brute.closed_masks()) == sorted(closed_set_masks(ex2_ctx))


class TestSelfConsistency:
    def test_d_generators_are_minimal_generators(self):
        rng = random.Random(59)
        for _ in range(20):
            ib = random_standard_ib(rng, max_n=7, max_m=10)
            brute = BruteForce(ClosureContext.from_ib(ib))
            for c in range(len(ib.ground)):
                gens = set(brute.minimal_generator_masks(c))
                assert set(brute.d_generator_masks(c)) <= gens

    def test_characterization_equivalence_both_directions(self):
        # The 2|U|-call test agrees with the definition on every subset and
        # target of random standard systems with up to 7 elements.
        rng = random.Random(61)
        for _ in range(12):
            ib = random_standard_ib(rng, max_n=7, max_m=9)
            ctx = ClosureContext.from_ib(ib)
            n = len(ib.ground)
            brute = BruteForce(ctx)
            for c in range(n):
                dgens = set(brute.d_generator_masks(c))
                for bits in range(1 << n):
                    if bits >> c & 1:
                        continue
                    quick = is_d_generator(ctx, ElementSet(ib.ground, bits), c)
                    assert quick == (bits in dgens)

    def test_dbase_is_binary_plus_d_rows(self, ex2_ctx):
        base = brute_d_base(ex2_ctx)
        binary = {i.format() for i in base.binary()}
        assert binary == {"2 -> 4", "6 -> 5"}
        for imp in base.nonbinary():
            assert imp.premise.bits in set(
                BruteForce(ex2_ctx).d_generator_masks(imp.conclusion)
            )


def test_ground_cap():
    labels = " ".join(f"x{i}" for i in range(17))
    ctx = ClosureContext.from_ib(parse_ib(f"ground: {labels}\n"))
    with pytest.raises(GroundTooLarge):
        BruteForce(ctx)
    BruteForce(ctx, max_ground=17)


def test_ceiling_holds_whatever_max_ground_says():
    # Checked before any table is allocated: 2^25 rows would be 128 MB a table.
    labels = " ".join(f"x{i}" for i in range(25))
    ctx = ClosureContext.from_ib(parse_ib(f"ground: {labels}\n"))
    with pytest.raises(GroundTooLarge, match="25 elements exceeds oracle maximum 24"):
        BruteForce(ctx, max_ground=64)


def test_tables_match_the_context():
    # The tables are built from ctx.source alone; they must agree with the
    # context's own cl and cl^b on every subset, empty premises and |U| = 1
    # included, for implicational and Mi sources alike.
    rng = random.Random(67)
    for _ in range(80):
        n = rng.randint(1, 7)
        ground = GroundSet(str(i + 1) for i in range(n))
        pairs = [
            (rng.getrandbits(n) & rng.getrandbits(n), rng.randrange(n))
            for _ in range(rng.randint(0, 10))
        ]
        family = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
        for source in (
            ImplicationalBase.build(ground, pairs),
            SetFamily.from_bits(ground, family),
        ):
            ctx = ClosureContext(source)
            brute = BruteForce(ctx)
            assert [int(m) for m in brute.cl] == [
                ctx.close_bits(m) for m in range(1 << n)
            ]
            assert [int(m) for m in brute.clb] == [
                ctx.close_binary_bits(m) for m in range(1 << n)
            ]


def test_numpy_loads_only_when_an_oracle_runs():
    src = str(Path(dbase.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "import dbase, dbase.cli, dbase.gadgets\n"
        "print('numpy' in sys.modules)\n"
        "from dbase import BruteForce, ClosureContext, parse_ib\n"
        "BruteForce(ClosureContext.from_ib(parse_ib('ground: a b\\n')))\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.split() == ["False", "True"]
