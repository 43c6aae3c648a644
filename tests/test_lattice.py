"""Closed-set enumeration, meet-irreducibles, arrows, relations, classification."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbase import (
    BruteForce,
    ClosureContext,
    classify,
    d_relation,
    delta_relation,
    down_arrow,
    meet_irreducibles,
    meet_irreducibles_distributive,
    parse_cnf,
    parse_ib,
    parse_set_family,
    up_arrow,
)
from dbase.errors import GroundTooLarge, NonBinaryImplication
from dbase.gadgets import gen_acyclic_instance
from dbase.lattice import closed_set_masks, implication_graph_acyclic, longest_path

from conftest import (
    EX6_CNF,
    labelsets,
    random_binary_ib,
    random_ib,
    random_standard_ib,
)


def brute_closed_masks(ctx):
    n = len(ctx.ground)
    return [m for m in range(1 << n) if ctx.close_bits(m) == m]


class TestEnumerateClosedSets:
    def test_running_example_against_brute_force(self, ex2_ctx):
        got = list(closed_set_masks(ex2_ctx))
        assert sorted(got) == brute_closed_masks(ex2_ctx)
        assert len(got) == len(set(got)) == 19

    def test_empty_base_gives_powerset(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2\n"))
        assert sorted(closed_set_masks(ctx)) == [0, 1, 2, 3]

    def test_single_binary_implication(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2\n1 -> 2\n"))
        assert sorted(closed_set_masks(ctx)) == [0b00, 0b10, 0b11]  # "", 2, 12

    def test_lectic_order(self):
        rng = random.Random(3)
        for _ in range(25):
            ib = random_ib(rng, rng.randint(2, 7), rng.randint(0, 9))
            ctx = ClosureContext.from_ib(ib)
            seq = list(closed_set_masks(ctx))
            assert sorted(seq) == brute_closed_masks(ctx)
            for prev, cur in zip(seq, seq[1:]):
                lowest_diff = ((prev ^ cur) & -(prev ^ cur)).bit_length() - 1
                assert cur >> lowest_diff & 1, "not lectically increasing"

    def test_ground_too_large(self):
        # The desk cap is checked by meet_irreducibles, the one caller that
        # walks the closed sets.
        ctx = ClosureContext.from_ib(
            parse_ib("ground: " + " ".join(f"x{i}" for i in range(21)) + "\n")
        )
        with pytest.raises(GroundTooLarge):
            meet_irreducibles(ctx)


class TestMeetIrreducibles:
    def test_running_example(self, ex2_ctx):
        got = meet_irreducibles(ex2_ctx)
        assert labelsets(got) == {
            "356", "13", "15", "1356", "1456", "124", "2456", "12456",
        }

    def test_five_element_system(self, ex8_ib):
        got = meet_irreducibles(ClosureContext.from_ib(ex8_ib))
        assert labelsets(got) == {"1", "12", "23", "24", "5"}

    def test_chain(self):
        ctx = ClosureContext.from_ib(parse_ib("ground: 1 2\n2 -> 1\n"))
        got = meet_irreducibles(ctx)
        assert labelsets(got) == {"", "1"}

    def test_every_closed_set_is_intersection_of_mi_supersets(self, ex2_ctx):
        mi = meet_irreducibles(ex2_ctx).bit_list()
        full = ex2_ctx.full_mask
        for mask in brute_closed_masks(ex2_ctx):
            inter = full
            for m in mi:
                if mask & ~m == 0:
                    inter &= m
            assert inter == mask


class TestMeetIrreduciblesDistributive:
    def test_distributive_example_agrees_with_covers(self, ex5_ib):
        formula = meet_irreducibles_distributive(ex5_ib)
        covers = meet_irreducibles(ClosureContext.from_ib(ex5_ib))
        assert formula == covers
        assert len(formula) == 5

    def test_empty_base(self):
        got = meet_irreducibles_distributive(parse_ib("ground: 1 2\n"))
        assert labelsets(got) == {"1", "2"}

    def test_single_implication(self):
        got = meet_irreducibles_distributive(parse_ib("ground: 1 2\n1 -> 2\n"))
        assert {s.bits for s in got} == {0, 0b10}

    def test_rejects_non_binary(self, ex2_ib):
        with pytest.raises(NonBinaryImplication):
            meet_irreducibles_distributive(ex2_ib)

    def test_agreement_on_random_binary_bases(self):
        rng = random.Random(5)
        for _ in range(40):
            ib = random_binary_ib(rng, rng.randint(2, 8), rng.randint(0, 10))
            formula = meet_irreducibles_distributive(ib)
            covers = meet_irreducibles(ClosureContext.from_ib(ib))
            assert formula == covers


class TestArrows:
    def test_up_arrow_five_element_system(self, ex8_mi):
        got = up_arrow(ex8_mi, ex8_mi.ground.position("5"))
        assert labelsets(got) == {"12", "23", "24"}

    def test_up_arrow_running_example_element_5(self, ex1_mi):
        got = up_arrow(ex1_mi, ex1_mi.ground.position("5"))
        assert labelsets(got) == {"13", "124"}

    def test_up_arrow_running_example_element_6(self, ex1_mi):
        # All of 13, 15, 124 omit 6 and are pairwise incomparable.
        got = up_arrow(ex1_mi, ex1_mi.ground.position("6"))
        assert labelsets(got) == {"13", "15", "124"}

    def test_down_arrow_atomistic_is_all_omitting(self):
        fam = parse_set_family("ground: 1 2 3\n1 2\n1 3\n2 3\n")
        ctx = ClosureContext.from_mi(fam)
        assert all(ctx.singleton_closure(a) == 1 << a for a in range(3))
        a = fam.ground.position("3")
        got = down_arrow(fam, a)
        assert labelsets(got) == {"12"}
        assert labelsets(got) == {
            "".join(m.labels()) for m in fam if a not in m
        }

    def test_down_arrow_requires_singleton_body(self):
        fam = parse_set_family("ground: 1 2 3\n1 2\n2 3\n1\n")
        a = fam.ground.position("3")  # cl(3) = {2 3}, so M must contain 2
        assert labelsets(down_arrow(fam, a)) == {"12"}


class TestRelations:
    def test_running_example_d_proper_subset_of_delta(self, ex1_mi, ex2_ib):
        delta = delta_relation(ex1_mi)
        dee = d_relation(ex1_mi)
        assert dee.arcs < delta.arcs
        brute = BruteForce(ex2_ib)
        assert dee == brute.d_relation()
        assert delta == brute.delta_relation()

    def test_d_in_neighbors_of_6(self, ex1_mi):
        dee = d_relation(ex1_mi)
        six = ex1_mi.ground.position("6")
        sources = {a for c, a in dee.arcs if c == six}
        assert {ex1_mi.ground.label(a) for a in sources} == {"3", "4", "5"}

    def test_distributive_system_has_empty_d(self, ex5_ib):
        mi = meet_irreducibles_distributive(ex5_ib)
        assert len(d_relation(mi)) == 0

    def test_random_agreement_with_brute(self):
        rng = random.Random(10)
        for _ in range(25):
            ib = random_standard_ib(rng, max_n=6, max_m=8)
            mi = meet_irreducibles(ClosureContext.from_ib(ib))
            brute = BruteForce(ib)
            assert d_relation(mi) == brute.d_relation()
            assert delta_relation(mi) == brute.delta_relation()
            assert d_relation(mi).arcs <= delta_relation(mi).arcs


@st.composite
def digraphs(draw):
    """A digraph on up to 7 nodes, self-loops and cycles included."""
    n = draw(st.integers(min_value=0, max_value=7))
    if n == 0:
        return 0, set()
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.sets(st.tuples(node, node), max_size=n * n))


def longest_simple_path(n, arcs):
    """Arcs on a longest simple path, or None if some simple path closes
    into a cycle, by enumerating every simple path."""
    succ = {u: [v for w, v in arcs if w == u] for u in range(n)}
    best = 0
    stack = [[u] for u in range(n)]
    while stack:
        path = stack.pop()
        best = max(best, len(path) - 1)
        for v in succ[path[-1]]:
            if v in path:
                return None
            stack.append(path + [v])
    return best


@given(digraphs())
@settings(max_examples=300, deadline=None)
def test_longest_path_matches_simple_path_enumeration(graph):
    n, arcs = graph
    assert longest_path(n, arcs) == longest_simple_path(n, arcs)


class TestClassify:
    def test_running_example(self, ex2_ib):
        got = classify(ex2_ib)
        assert got.is_acyclic is False
        assert got.is_lower_bounded is True
        assert got.graph_acyclic is False

    def test_empty_base(self):
        got = classify(parse_ib("ground: 1 2\n"))
        assert got.is_acyclic and got.is_lower_bounded and got.graph_acyclic

    def test_acyclic_gadget_graph(self):
        ib, _, _ = gen_acyclic_instance(parse_cnf(EX6_CNF))
        assert implication_graph_acyclic(ib)
        got = classify(ib)
        assert got.graph_acyclic and got.is_acyclic and got.is_lower_bounded

    def test_graph_acyclic_implies_delta_acyclic(self):
        rng = random.Random(21)
        checked = 0
        for _ in range(60):
            ib = random_ib(rng, rng.randint(2, 6), rng.randint(0, 8))
            if not implication_graph_acyclic(ib):
                continue
            got = classify(ib)
            assert got.is_acyclic
            checked += 1
        assert checked >= 10
