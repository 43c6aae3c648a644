"""Closure operators: forward chaining, intersections, cl^b, standardness."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbase import (
    ClosureContext,
    ElementSet,
    GroundSet,
    ImplicationalBase,
    SetFamily,
    binary_part,
    is_standard,
    parse_ib,
    parse_set_family,
)
from dbase.closure import extreme_elements, min_spanning_set
from dbase.oracle import closure_rounds
from dbase.errors import NotSpanning
from dbase.model import iter_bits

from conftest import random_ib, random_mi


class TestClose:
    def test_paper_value_from_ib(self, ex2_ctx):
        g = ex2_ctx.ground
        assert ex2_ctx.close(g.set_of("2 5".split())).labels() == ("2", "4", "5", "6")

    def test_paper_value_from_mi(self, ex1_mi):
        ctx = ClosureContext.from_mi(ex1_mi)
        g = ctx.ground
        assert ctx.close(g.set_of("2 5".split())).labels() == ("2", "4", "5", "6")

    def test_empty_set_closed(self, ex2_ctx):
        assert ex2_ctx.close(ex2_ctx.ground.empty()).bits == 0

    def test_hand_chained_closure(self, ex2_ctx):
        g = ex2_ctx.ground
        assert ex2_ctx.close(g.set_of(["3", "4"])) == g.full()

    def test_mi_source_no_superset_gives_universe(self):
        fam = parse_set_family("ground: 1 2 3\n1\n2\n")
        ctx = ClosureContext.from_mi(fam)
        assert ctx.close(ctx.ground.set_of(["1", "2"])) == ctx.ground.full()

    def test_counting_chaining_matches_round_semantics(self):
        # Each random IB is also checked with one and with two rows "-> x"
        # added, so an empty premise fires inside the chaining as well.
        rng = random.Random(11)
        extra = random.Random(12)
        for _ in range(40):
            base = random_ib(rng, rng.randint(2, 7), rng.randint(0, 10))
            n = len(base.ground)
            pairs = [(i.premise.bits, i.conclusion) for i in base]
            for empties in range(3):
                added = [(0, extra.randrange(n)) for _ in range(empties)]
                ib = ImplicationalBase.build(base.ground, pairs + added)
                ctx = ClosureContext.from_ib(ib)
                for bits in range(1 << n):
                    rounds = list(closure_rounds(ib, ElementSet(ib.ground, bits)))
                    assert ctx.close_bits(bits) == rounds[-1].bits


class TestContextConstructors:
    def test_from_ib_refuses_a_family(self, ex1_mi):
        with pytest.raises(TypeError, match="from_ib needs an ImplicationalBase"):
            ClosureContext.from_ib(ex1_mi)

    def test_from_mi_refuses_a_base(self, ex2_ib):
        with pytest.raises(TypeError, match="from_mi needs a SetFamily"):
            ClosureContext.from_mi(ex2_ib)


class TestCloseBinary:
    def test_paper_values(self, ex2_ctx):
        g = ex2_ctx.ground
        assert ex2_ctx.close_binary(g.set_of(["2", "5"])).labels() == ("2", "4", "5")
        assert ex2_ctx.close_binary(g.set_of(["4", "5"])).labels() == ("4", "5")

    def test_empty(self, ex2_ctx):
        assert ex2_ctx.close_binary(ex2_ctx.ground.empty()).bits == 0

    def test_atomistic_identity(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2 3\n1 2 -> 3\n"))
        for bits in range(8):
            if bits != 0b011 and bits != 0b111:
                # sets below the only premise keep cl^b(A) = A
                assert ctx.close_binary_bits(bits) == bits

    def test_binary_context_close_is_clb(self, ex2_ctx):
        bctx = ClosureContext.from_ib(binary_part(ex2_ctx))
        for bits in range(1 << 6):
            assert bctx.close_bits(bits) == ex2_ctx.close_binary_bits(bits)


class TestBinaryPart:
    def test_running_example(self, ex2_ctx):
        assert {i.format() for i in binary_part(ex2_ctx)} == {"2 -> 4", "6 -> 5"}

    def test_atomistic_empty(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2 3\n1 2 -> 3\n"))
        assert len(binary_part(ctx)) == 0

    def test_five_element_system(self, ex8_ib):
        ctx = ClosureContext.from_ib(ex8_ib)
        assert {i.format() for i in binary_part(ctx)} == {"3 -> 2", "4 -> 2"}

    def test_semantic_not_syntactic(self):
        # The binary part contains implied binary rows, not just written ones.
        ib = parse_ib("ground: 1 2 3\n1 -> 2\n2 -> 3\n")
        ctx = ClosureContext.from_ib(ib)
        assert {i.format() for i in binary_part(ctx)} == {
            "1 -> 2", "1 -> 3", "2 -> 3",
        }

    def test_characterization(self, ex2_ctx):
        got = {(next(iter(i.premise)), i.conclusion) for i in binary_part(ex2_ctx)}
        n = len(ex2_ctx.ground)
        expected = {
            (a, c)
            for a in range(n)
            for c in range(n)
            if c != a and ex2_ctx.close_bits(1 << a) >> c & 1
        }
        assert got == expected


class TestIsStandard:
    def test_running_example(self, ex2_ctx):
        assert is_standard(ex2_ctx) == (True, None)

    def test_binary_cycle_with_witness(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: a b\na -> b\nb -> a\n"))
        ok, witness = is_standard(ctx)
        assert not ok and witness == 0

    def test_empty_base(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: a b c\n"))
        assert is_standard(ctx) == (True, None)

    def test_random_mi_gives_up_on_sizes_that_are_never_standard(self):
        # Five sets of density 0.85 over 12 elements are almost never
        # standard: the test copy of the bench's generator stops redrawing.
        with pytest.raises(ValueError) as raised:
            random_mi(random.Random(0), 12, 5, 0.85)
        assert "1000 draws of 5 sets over 12 elements at density 0.85" in str(raised.value)


class TestExtremeElements:
    def test_distributive_example(self, ex5_ib):
        ctx = ClosureContext.from_ib(ex5_ib)
        g = ctx.ground
        got = extreme_elements(ctx, g.set_of(["1", "2", "3"]))
        assert got.labels() == ("3",)

    def test_atomistic_all_extreme(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2 3\n"))
        f = ctx.ground.set_of(["1", "3"])
        assert extreme_elements(ctx, f) == f

    def test_empty(self, ex5_ib):
        ctx = ClosureContext.from_ib(ex5_ib)
        assert extreme_elements(ctx, ctx.ground.empty()).bits == 0


class TestMinSpanningSet:
    def test_binary_context_example(self, ex8_ib):
        ctx = ClosureContext.from_ib(binary_part(ClosureContext.from_ib(ex8_ib)))
        g = ctx.ground
        got = min_spanning_set(ctx, g.set_of(["1", "2", "3"]))
        assert got.labels() == ("1", "3")

    def test_antichain_of_atoms_fixed(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2 3\n"))
        f = ctx.ground.set_of(["1", "2"])
        assert min_spanning_set(ctx, f) == f

    def test_distributive_example(self, ex5_ib):
        ctx = ClosureContext.from_ib(binary_part(ClosureContext.from_ib(ex5_ib)))
        got = min_spanning_set(ctx, ctx.ground.set_of(["1", "2"]))
        assert got.labels() == ("2",)

    def test_not_spanning_raises(self):
        # Every element of the full set is non-extreme here.
        ib = parse_ib("ground: 1 2 3\n1 2 -> 3\n1 3 -> 2\n2 3 -> 1\n")
        ctx = ClosureContext.from_ib(ib)
        with pytest.raises(NotSpanning):
            min_spanning_set(ctx, ctx.ground.full())


@st.composite
def context_and_sets(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        bits = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
        concl = draw(st.integers(min_value=0, max_value=n - 1))
        pairs.append((bits, concl))
    ib = ImplicationalBase.build(ground, pairs)
    a = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    b = draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    return ClosureContext.from_ib(ib), a, a | b


@given(context_and_sets())
@settings(max_examples=120, deadline=None)
def test_closure_axioms(data):
    ctx, abits, bbits = data
    for close in (ctx.close_bits, ctx.close_binary_bits):
        ca, cb = close(abits), close(bbits)
        assert abits & ~ca == 0  # extensive
        assert ca & ~cb == 0  # monotone (A below B)
        assert close(ca) == ca  # idempotent
    assert ctx.close_binary_bits(abits) & ~ctx.close_bits(abits) == 0


def test_ib_mi_agreement_on_all_subsets(ex2_ctx, ex1_mi):
    mi_ctx = ClosureContext.from_mi(ex1_mi)
    for bits in range(1 << 6):
        assert ex2_ctx.close_bits(bits) == mi_ctx.close_bits(bits)


def test_empty_premise_seeds_closure():
    ib = parse_ib("ground: 1 2 3\n-> 1\n1 2 -> 3\n", allow_empty_premise=True)
    ctx = ClosureContext.from_ib(ib)
    assert ctx.close_bits(0) == 0b001
    assert ctx.close_bits(0b010) == 0b111


@st.composite
def contexts_across_byte_boundaries(draw):
    """An IB or Mi context on n elements, n on both sides of the 8-element
    chunks of the ``minimal_elements`` tables, its binary part made cyclic
    at times by tying two elements into one cl^b-class."""
    n = draw(st.sampled_from((0, 7, 8, 9, 17, 30)))
    ground = GroundSet([str(i + 1) for i in range(n)])
    tie = draw(st.booleans()) and n >= 2
    if tie:
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    if draw(st.booleans()):
        pairs = []
        for _ in range(draw(st.integers(0, 2 * n))):
            premise = draw(st.integers(1, ground.full_mask))
            pairs.append((premise, draw(st.integers(0, n - 1))))
        if tie:
            pairs += [(1 << a, b), (1 << b, a)]
        return ClosureContext.from_ib(ImplicationalBase.build(ground, pairs))
    masks = draw(st.lists(st.integers(0, ground.full_mask), max_size=12))
    if tie:
        pair = 1 << a | 1 << b
        masks = [m | pair if m & pair else m for m in masks]
    return ClosureContext.from_mi(SetFamily.from_bits(ground, masks))


@given(contexts_across_byte_boundaries(), st.lists(st.integers(0, (1 << 30) - 1), max_size=6))
@settings(max_examples=200, deadline=None)
def test_minimal_elements_is_the_per_bit_definition(ctx, drawn):
    # x is minimal in ``bits`` iff the only member of ``bits`` whose
    # singleton closure holds x is x itself.
    full = ctx.full_mask
    sets = [0, full, *(m & full for m in drawn)]
    sets += [ctx.close_binary_bits(m) for m in sets]
    for bits in sets:
        want = 0
        for x in iter_bits(bits):
            if ctx.containers(x) & bits == 1 << x:
                want |= 1 << x
        assert ctx.minimal_elements(bits) == want


@given(contexts_across_byte_boundaries())
@settings(max_examples=100, deadline=None)
def test_binary_part_comes_out_in_canonical_order(ctx):
    part = binary_part(ctx)
    assert part == part.canonicalize()
