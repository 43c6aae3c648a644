"""Solution-graph enumeration of D-generators and the full D-base."""
from __future__ import annotations

import random
from collections import Counter, deque

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dbase.traversal
from dbase import (
    BruteForce,
    ClosureContext,
    ElementSet,
    GroundSet,
    ImplicationalBase,
    d_base,
    enumerate_d_generators,
    has_d_generators,
    is_d_generator,
    is_standard,
    iter_d_base,
    iter_d_base_from_mi,
    meet_irreducibles,
    parse_ib,
    serialize_ib,
)
from dbase.closure import chain
from dbase.errors import (
    NoDGenerators,
    NotDGenerator,
    NotSpanning,
    NotStandard,
    StateLimitExceeded,
    TargetInSet,
)
from dbase.gadgets import gen_acyclic_instance, gen_lower_bounded_instance, random_cnf
from dbase.model import iter_bits
from dbase.traversal import (
    _SolutionGraph,
    _min_steps,
    _premise_table,
    build_reduced_base,
    min_reduce,
    neighbors,
    reduced_context,
)

from conftest import (
    EX4_DBASE,
    DuplicateDetector,
    bfs_d_generators_from,
    gap_ib_text,
    labelsets,
    random_mi,
    random_standard_ib,
)


class TestIsDGenerator:
    def test_paper_positive_and_negative(self, ex2_ctx):
        g = ex2_ctx.ground
        six = g.position("6")
        assert is_d_generator(ex2_ctx, g.set_of(["4", "5"]), six)
        assert not is_d_generator(ex2_ctx, g.set_of(["2", "5"]), six)

    def test_paper_34_implies_1(self, ex2_ctx):
        g = ex2_ctx.ground
        assert is_d_generator(ex2_ctx, g.set_of(["3", "4"]), g.position("1"))

    def test_not_a_generator_at_all(self, ex2_ctx):
        g = ex2_ctx.ground
        assert not is_d_generator(ex2_ctx, g.set_of(["1", "2"]), g.position("3"))

    def test_target_in_set(self, ex2_ctx):
        g = ex2_ctx.ground
        with pytest.raises(TargetInSet):
            is_d_generator(ex2_ctx, g.set_of(["4", "5"]), g.position("5"))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda ctx, own, foreign: is_d_generator(ctx, foreign, 2),
             "set over a different ground set"),
            (lambda ctx, own, foreign: ctx.close(foreign), "set over a different ground set"),
            (lambda ctx, own, foreign: ctx.close_binary(foreign),
             "set over a different ground set"),
            (lambda ctx, own, foreign: is_d_generator(ctx, own, -1),
             "target -1 outside the ground set"),
            (lambda ctx, own, foreign: is_d_generator(ctx, own, 4),
             "target 4 outside the ground set"),
        ],
        ids=["dgen-set", "close", "close-binary", "dgen-negative-target", "dgen-target-past-end"],
    )
    def test_foreign_set_or_target_is_refused(self, call, message):
        # {w, x} has the bits of {a, b}, which generates c, so a missing
        # ground check answers instead of raising.
        ctx = ClosureContext.from_ib(parse_ib("ground: a b c d\na b -> c\n"))
        own = ctx.ground.set_of(["a", "b"])
        foreign = GroundSet(["w", "x", "y", "z"]).set_of(["w", "x"])
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(ctx, own, foreign)

    def test_uses_at_most_2n_closure_calls(self, ex9_ib):
        class CountingContext(ClosureContext):
            calls = 0

            def close_bits(self, bits):
                CountingContext.calls += 1
                return super().close_bits(bits)

        ctx = CountingContext.from_ib(ex9_ib)
        g = ctx.ground
        CountingContext.calls = 0  # construction itself caches singletons
        is_d_generator(ctx, g.set_of(["1", "5", "7"]), g.position("3"))
        assert CountingContext.calls <= 2 * len(g)


class TestHasDGenerators:
    def test_solution_graph_example(self, ex9_ib):
        ctx = ClosureContext.from_ib(ex9_ib)
        g = ctx.ground
        admitting = {g.label(c) for c in range(8) if has_d_generators(ctx, c)}
        assert admitting == {"2", "3", "4"}

    def test_distributive_all_false(self, ex5_ib):
        ctx = ClosureContext.from_ib(ex5_ib)
        assert not any(has_d_generators(ctx, c) for c in range(5))

    def test_running_example_element_4(self, ex2_ctx):
        assert not has_d_generators(ex2_ctx, ex2_ctx.ground.position("4"))

    def test_matches_brute_force(self, ex2_ib, ex2_ctx):
        brute = BruteForce(ex2_ib)
        for c in range(6):
            assert has_d_generators(ex2_ctx, c) == bool(brute.d_generator_masks(c))


class TestBuildReducedBase:
    def test_twelve_implications_for_element_4(self, ex9_ib):
        rb = build_reduced_base(ex9_ib, ex9_ib.ground.position("4"))
        assert {i.format() for i in rb.base} == {
            "3 -> 2", "2 -> 1",
            "1 5 -> 2", "1 6 -> 2", "2 7 -> 3", "2 8 -> 3",
            "3 6 -> 5", "3 6 -> 7", "3 6 -> 8",
            "3 7 -> 5", "3 7 -> 6", "3 7 -> 8",
        }
        assert rb.universe.labels() == ("1", "2", "3", "5", "6", "7", "8")

    def test_unknown_order_policy(self, ex9_ib):
        with pytest.raises(ValueError, match="unknown order policy 'bogus'"):
            build_reduced_base(ex9_ib, ex9_ib.ground.position("4"), order="bogus")

    def test_element_2_expansion(self, ex9_ib):
        rb = build_reduced_base(ex9_ib, ex9_ib.ground.position("2"))
        assert rb.universe.labels() == ("1", "5", "6", "7", "8")
        assert {i.format() for i in rb.base} == {
            "1 5 -> 6", "1 5 -> 7", "1 5 -> 8",
            "1 6 -> 5", "1 6 -> 7", "1 6 -> 8",
        }

    def test_escaping_implication_with_covering_binary_closure(self):
        # The only implication leaving U_3 has cl^b(premise) = U_3, so its
        # expansion is empty and Sigma_c is exactly Sigma_1.
        ib = parse_ib("ground: 1 2 3 4\n1 -> 4\n2 -> 4\n1 2 -> 3\n")
        ctx = ClosureContext.from_ib(ib)
        c = ib.ground.position("3")
        assert has_d_generators(ctx, c)
        rb = build_reduced_base(ib, c)
        assert rb.universe.labels() == ("1", "2", "4")
        assert {i.format() for i in rb.base} == {"1 -> 4", "2 -> 4"}

    def test_fully_empty_reduced_base(self):
        ib = parse_ib("ground: 1 2 3\n1 2 -> 3\n")
        c = ib.ground.position("3")
        rb = build_reduced_base(ib, c)
        assert rb.universe.labels() == ("1", "2")
        assert len(rb.base) == 0
        assert labelsets(enumerate_d_generators(ib, c)) == {"12"}

    def test_reduced_base_is_standard(self, ex9_ib):
        from dbase import is_standard

        for label in "234":
            rb = build_reduced_base(ex9_ib, ex9_ib.ground.position(label))
            ok, _ = is_standard(ClosureContext.from_ib(rb.base))
            assert ok

    def test_key_equivalence(self, ex9_ib):
        # cl_c(S) = U_c exactly when c is in cl(S), for every S inside U_c.
        ctx = ClosureContext.from_ib(ex9_ib)
        for label in "234":
            c = ex9_ib.ground.position(label)
            rb = build_reduced_base(ex9_ib, c)
            ctx_c = reduced_context(rb)
            ubits = rb.universe.bits
            subs = list(iter_bits(ubits))
            for pick in range(1 << len(subs)):
                sbits = sum(1 << subs[i] for i in range(len(subs)) if pick >> i & 1)
                assert (ctx_c.close_bits(sbits) == ubits) == bool(
                    ctx.close_bits(sbits) >> c & 1
                )

    def test_no_d_generators_raises(self, ex9_ib):
        with pytest.raises(NoDGenerators):
            build_reduced_base(ex9_ib, ex9_ib.ground.position("5"))

    def test_not_standard_raises(self):
        ib = parse_ib("ground: a b c\na -> b\nb -> a\na b -> c\n")
        with pytest.raises(NotStandard):
            build_reduced_base(ib, 2)


@st.composite
def standard_ibs(draw, min_n=2):
    # Premises are never empty: no IB with one is standard (see
    # test_an_empty_premise_is_never_standard).
    n = draw(st.integers(min_value=min_n, max_value=7))
    ground = GroundSet([str(i + 1) for i in range(n)])
    # Premise sizes are drawn as random_ib draws them, mostly 1 or 2: systems
    # with wide premises have few D-generators and let traversal faults pass.
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        k = draw(st.sampled_from((1, 1, 2, 2, 3)))
        if k >= n:
            k = max(1, n - 1)
        premise = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                               min_size=k, max_size=k))
        pairs.append((
            sum(1 << i for i in premise),
            draw(st.integers(min_value=0, max_value=n - 1)),
        ))
    ib = ImplicationalBase.build(ground, pairs)
    assume(is_standard(ClosureContext.from_ib(ib))[0])
    return ib


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_an_empty_premise_is_never_standard(data):
    # With an implication empty -> d, d lies in cl(empty set), hence in
    # cl(d) minus d, which is then not closed.  So cl(empty set) is empty
    # wherever a solution graph is built, and Min chains the bare set.
    n = data.draw(st.integers(min_value=1, max_value=7))
    ground = GroundSet([str(i + 1) for i in range(n)])
    pair = st.tuples(
        st.integers(min_value=0, max_value=(1 << n) - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    d = data.draw(st.integers(min_value=0, max_value=n - 1))
    ib = ImplicationalBase.build(ground, [(0, d), *data.draw(st.lists(pair, max_size=10))])
    assert ClosureContext.from_ib(ib).close_bits(0) >> d & 1
    with pytest.raises(NotStandard):
        list(iter_d_base(ib))


@given(standard_ibs())
@settings(max_examples=150, deadline=None)
def test_key_equivalence_property(ib):
    # For S inside U_c: cl_c(S) = U_c iff c in cl(S); cl_c and cl agree on
    # singletons of U_c; and every binary implication of Sigma_c is in Sigma.
    ctx = ClosureContext.from_ib(ib)
    sigma = {(i.premise.bits, i.conclusion) for i in ib}
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        rb = build_reduced_base(ib, c)
        ctx_c = reduced_context(rb)
        ubits = rb.universe.bits
        for a in iter_bits(ubits):
            assert ctx_c.singleton_closure(a) == ctx.singleton_closure(a)
        for imp in rb.base:
            if imp.is_binary:
                assert (imp.premise.bits, imp.conclusion) in sigma
        subs = list(iter_bits(ubits))
        for pick in range(1 << len(subs)):
            sbits = sum(1 << subs[i] for i in range(len(subs)) if pick >> i & 1)
            assert (ctx_c.close_bits(sbits) == ubits) == bool(
                ctx.close_bits(sbits) >> c & 1
            )


def _graph(ctx: ClosureContext, c: int, order: str) -> _SolutionGraph:
    # Target c's graph, on tables made the way one run of iter_d_base makes
    # them.
    return _SolutionGraph(ctx, c, _min_steps(ctx, order), _premise_table(ctx))


def _chain_spans(graph: _SolutionGraph, xbits: int) -> bool:
    # The removability test that ``_SolutionGraph.min_reduce`` makes: the
    # bare set, chained over the graph's rules.
    return bool(chain(xbits, graph.rules, graph.cbit) & graph.cbit)


@given(standard_ibs(min_n=1))
@settings(max_examples=150, deadline=None)
def test_chain_test_matches_full_closure(ib):
    # For every cl^b-closed X inside U_c, the empty set included, the chain
    # over the graph's rules reaches c exactly when a full closure does, and
    # where X spans, the graph's Min agrees with the paper-level Min run on
    # the reduced base.
    ctx = ClosureContext.from_ib(ib)
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        rb = build_reduced_base(ib, c)
        ctx_c = reduced_context(rb)
        graph = _graph(ctx, c, "size-label")
        subs = list(iter_bits(rb.universe.bits))
        for pick in range(1 << len(subs)):
            xbits = sum(1 << subs[i] for i in range(len(subs)) if pick >> i & 1)
            if ctx.close_binary_bits(xbits) != xbits:
                continue
            spans = bool(ctx.close_bits(xbits) >> c & 1)
            assert _chain_spans(graph, xbits) == spans
            if spans:
                want = min_reduce(rb, ctx_c, ElementSet(ib.ground, xbits))
                assert graph.min_reduce(xbits) == want.bits


@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@settings(max_examples=150, deadline=None)
def test_neighbors_match_the_graph_windows(ib, order):
    # For every D-generator A of every target, the Min results over the
    # graph's windows of A lie in the paper's N(A) on the reduced base, and
    # are N(A) restricted to the transitions B -> d whose cut
    # cl^b(A) & cl^b(d) is not empty (fact 7), with the reduced base's cl^b.
    ctx = ClosureContext.from_ib(ib)
    brute = BruteForce(ib)
    ground = ib.ground
    for c in range(len(ground)):
        if not has_d_generators(ctx, c):
            continue
        rb = build_reduced_base(ib, c, order=order)
        ctx_c = reduced_context(rb)
        graph = _graph(ctx, c, order)
        for abits in brute.d_generator_masks(c):
            got = {graph.min_reduce(w) for w in graph.windows(abits)}
            full = neighbors(rb, ctx_c, ElementSet(ground, abits))
            assert got <= {a.bits for a in full}
            clb_a = ctx_c.close_binary_bits(abits)
            cut = set()
            for imp in rb.base.nonbinary():
                clb_d = ctx_c.close_binary_bits(1 << imp.conclusion)
                if clb_a & clb_d:
                    window = ctx_c.close_binary_bits(clb_a & ~clb_d | imp.premise.bits)
                    cut.add(min_reduce(rb, ctx_c, ElementSet(ground, window)).bits)
            assert got == cut


class TestMinReduce:
    def test_paper_trace_removes_2_then_7(self, ex9_ib):
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"), order="natural")
        ctx_c = reduced_context(rb)
        got = min_reduce(rb, ctx_c, g.set_of(["1", "2", "6", "7", "8"]))
        assert got.labels() == ("1", "6", "8")

    def test_fixed_point_on_d_generator_closure(self, ex9_ib):
        g = ex9_ib.ground
        c = g.position("4")
        rb = build_reduced_base(ex9_ib, c)
        ctx_c = reduced_context(rb)
        for gen in enumerate_d_generators(ex9_ib, c):
            closed = ctx_c.close_binary(gen)
            assert min_reduce(rb, ctx_c, closed) == gen

    def test_first_generator_from_full_universe(self, ex9_ib):
        g = ex9_ib.ground
        c = g.position("4")
        brute = BruteForce(ex9_ib)
        expected = {ElementSet(g, m) for m in brute.d_generator_masks(c)}
        for order in ("natural", "size-label"):
            rb = build_reduced_base(ex9_ib, c, order=order)
            ctx_c = reduced_context(rb)
            assert min_reduce(rb, ctx_c, rb.universe) in expected

    def test_not_spanning(self, ex9_ib):
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"))
        ctx_c = reduced_context(rb)
        with pytest.raises(NotSpanning):
            min_reduce(rb, ctx_c, g.set_of(["5"]))

    def test_not_binary_closed(self, ex9_ib):
        # {2 6 8} generates U_c, but 2 -> 1 leaves it open under cl_c^b.
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"))
        ctx_c = reduced_context(rb)
        with pytest.raises(NotSpanning, match="not closed under the reduced binary part"):
            min_reduce(rb, ctx_c, g.set_of(["2", "6", "8"]))


class TestNeighbors:
    def test_transition_167_to_168(self, ex9_ib):
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"), order="natural")
        ctx_c = reduced_context(rb)
        result = neighbors(rb, ctx_c, g.set_of(["1", "6", "7"]))
        assert g.set_of(["1", "6", "8"]) in result

    def test_transition_via_specific_implication(self, ex9_ib):
        # The implication 2 8 -> 3 maps 167 to the window 12678, whose
        # Min reduction under the natural order is 168.
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"), order="natural")
        ctx_c = reduced_context(rb)
        clb_a = ctx_c.close_binary_bits(g.set_of(["1", "6", "7"]).bits)
        window = (clb_a & ~ctx_c.singleton_closure(g.position("3"))) | g.set_of(
            ["2", "8"]
        ).bits
        candidate = ElementSet(g, ctx_c.close_binary_bits(window))
        assert candidate.labels() == ("1", "2", "6", "7", "8")
        assert min_reduce(rb, ctx_c, candidate).labels() == ("1", "6", "8")

    def test_neighbors_are_d_generators(self, ex9_ib):
        ctx = ClosureContext.from_ib(ex9_ib)
        g = ex9_ib.ground
        for label in "234":
            c = g.position(label)
            rb = build_reduced_base(ex9_ib, c)
            ctx_c = reduced_context(rb)
            for gen in enumerate_d_generators(ex9_ib, c):
                for nxt in neighbors(rb, ctx_c, gen):
                    assert is_d_generator(ctx, nxt, c)

    def test_not_d_generator_raises(self, ex9_ib):
        g = ex9_ib.ground
        rb = build_reduced_base(ex9_ib, g.position("4"))
        ctx_c = reduced_context(rb)
        with pytest.raises(NotDGenerator):
            neighbors(rb, ctx_c, g.set_of(["1", "5"]))

    def test_nonempty_whenever_sigma_c_has_wide_implications(self, ex9_ib):
        # Every transition window still generates U_c, so N(A) only comes up
        # empty when Sigma_c has no non-binary implication at all.
        g = ex9_ib.ground
        for label in "234":
            c = g.position(label)
            rb = build_reduced_base(ex9_ib, c)
            ctx_c = reduced_context(rb)
            assert any(not i.is_binary for i in rb.base)
            for gen in enumerate_d_generators(ex9_ib, c):
                assert neighbors(rb, ctx_c, gen)


class TestEnumerateDGenerators:
    @pytest.mark.parametrize("order", ["size-label", "natural"])
    def test_solution_graph_example(self, ex9_ib, order):
        expected = {
            "2": {"15", "16"},
            "3": {"157", "158", "167", "168", "27", "28"},
            "4": {"157", "167", "168", "27", "36"},
        }
        g = ex9_ib.ground
        for label, want in expected.items():
            got = labelsets(enumerate_d_generators(ex9_ib, g.position(label), order=order))
            assert got == want

    def test_distributive_empty(self, ex5_ib):
        for c in range(5):
            assert list(enumerate_d_generators(ex5_ib, c)) == []

    def test_not_standard_raises(self):
        ib = parse_ib("ground: a b\na -> b\nb -> a\n")
        with pytest.raises(NotStandard):
            list(enumerate_d_generators(ib, 0))

    def test_no_duplicates_and_matches_brute(self):
        rng = random.Random(17)
        for _ in range(30):
            ib = random_standard_ib(rng, max_n=7, max_m=10)
            brute = BruteForce(ib)
            for c in range(len(ib.ground)):
                stream = DuplicateDetector(
                    enumerate_d_generators(ib, c), key=lambda s: s.bits
                )
                got = {s.bits for s in stream}
                assert got == set(brute.d_generator_masks(c))


class TestDBase:
    def test_running_example(self, ex2_ib):
        assert serialize_ib(d_base(ex2_ib)) == EX4_DBASE

    def test_stream_emits_binary_part_first(self, ex2_ib):
        stream = list(iter_d_base(ex2_ib))
        assert [i.format() for i in stream[:2]] == ["2 -> 4", "6 -> 5"]
        assert all(not i.is_binary for i in stream[2:])

    def test_gap_family(self):
        ib = parse_ib(gap_ib_text(10), max_ground=64)
        base = d_base(ib)
        assert len(base) == 11
        assert base == ib.canonicalize()

    def test_shared_generators_emitted_once_per_target(self, ex9_ib):
        g = ex9_ib.ground
        stream = list(DuplicateDetector(
            iter_d_base(ex9_ib), key=lambda i: (i.premise.bits, i.conclusion)
        ))
        gen167 = g.set_of(["1", "6", "7"])
        got = {(i.premise, g.label(i.conclusion)) for i in stream}
        assert (gen167, "3") in got and (gen167, "4") in got
        nodes = [i.premise for i in stream if not i.is_binary]
        # 167 appears as a premise exactly twice: once per target.
        assert sum(1 for p in nodes if p == gen167) == 2

    def test_solution_graph_example_against_brute(self, ex9_ib):
        brute = BruteForce(ex9_ib)
        assert d_base(ex9_ib) == brute.d_base()

    def test_equivalence_of_closures(self, ex2_ib):
        out = d_base(ex2_ib)
        in_ctx = ClosureContext.from_ib(ex2_ib)
        out_ctx = ClosureContext.from_ib(out)
        for bits in range(1 << 6):
            assert in_ctx.close_bits(bits) == out_ctx.close_bits(bits)

    def test_nonbinary_rows_are_minimal_generators(self, ex9_ib):
        brute = BruteForce(ex9_ib)
        for imp in d_base(ex9_ib).nonbinary():
            assert imp.premise.bits in brute.minimal_generator_masks(imp.conclusion)

    def test_every_nonbinary_row_passes_is_d_generator(self, ex9_ib):
        ctx = ClosureContext.from_ib(ex9_ib)
        for imp in d_base(ex9_ib).nonbinary():
            assert is_d_generator(ctx, imp.premise, imp.conclusion)

    def test_random_instances_match_brute(self):
        rng = random.Random(23)
        for _ in range(40):
            ib = random_standard_ib(rng, max_n=7, max_m=10)
            brute = BruteForce(ib)
            stream = DuplicateDetector(
                iter_d_base(ib), key=lambda i: (i.premise.bits, i.conclusion)
            )
            from dbase import ImplicationalBase

            got = ImplicationalBase(ib.ground, list(stream)).canonicalize()
            assert got == brute.d_base()

    def test_not_standard_raises(self):
        ib = parse_ib("ground: a b\na -> b\nb -> a\n")
        with pytest.raises(NotStandard):
            d_base(ib)

    def test_state_limit(self, ex9_ib):
        with pytest.raises(StateLimitExceeded):
            list(iter_d_base(ex9_ib, max_states=2))

    def test_state_limit_counts_start_states(self):
        ib = parse_ib("ground: 1 2 3\n1 2 -> 3\n")
        with pytest.raises(StateLimitExceeded):
            list(iter_d_base(ib, max_states=0))
        assert [i.format() for i in iter_d_base(ib, max_states=1)] == ["1 2 -> 3"]

    def test_state_limit_counts_per_target(self, ex9_ib):
        # The genD sets of ex9 hold 9 states together, at most 6 for one target.
        assert len(list(iter_d_base(ex9_ib, max_states=6))) == 19
        with pytest.raises(StateLimitExceeded):
            list(iter_d_base(ex9_ib, max_states=5))

    def test_one_solution_graph_alive_per_row(self, monkeypatch):
        # Only the graphs this stream builds are counted, by id from __init__
        # to __del__: a graph an earlier test left alive is not one of them.
        live: set[int] = set()
        init = _SolutionGraph.__init__

        def tracking_init(self, *args):
            init(self, *args)
            live.add(id(self))

        monkeypatch.setattr(_SolutionGraph, "__init__", tracking_init)
        monkeypatch.setattr(_SolutionGraph, "__del__",
                            lambda self: live.discard(id(self)), raising=False)
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 6, 5))
        alive = [len(live) for _ in iter_d_base(ib)]
        assert max(alive) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("order", ["size-label", "natural"])
    def test_gadgets_match_mi_route(self, seed, order):
        cnf = random_cnf(random.Random(seed), 6, 5)
        for gen in (gen_lower_bounded_instance, gen_acyclic_instance):
            ib, _, _ = gen(cnf)
            n = len(ib.ground)
            mi = meet_irreducibles(ClosureContext.from_ib(ib), max_ground=n)
            stream = DuplicateDetector(
                iter_d_base(ib, order=order), key=lambda i: (i.premise.bits, i.conclusion)
            )
            got = ImplicationalBase(ib.ground, list(stream)).canonicalize()
            want = ImplicationalBase(ib.ground, list(iter_d_base_from_mi(mi)))
            assert got == want.canonicalize()

    def test_one_context_and_one_standardness_check_per_run(self, ex9_ib, monkeypatch):
        counts = {"ctx": 0, "standard": 0}
        init, check = ClosureContext.__init__, dbase.traversal.is_standard

        def counting_init(self, source):
            counts["ctx"] += 1
            init(self, source)

        def counting_check(ctx):
            counts["standard"] += 1
            return check(ctx)

        monkeypatch.setattr(ClosureContext, "__init__", counting_init)
        monkeypatch.setattr(dbase.traversal, "is_standard", counting_check)
        rows = list(iter_d_base(ex9_ib))
        assert len(rows) > len(ex9_ib.ground)
        assert counts == {"ctx": 1, "standard": 1}

    def test_one_element_order_and_one_premise_table_per_run(self, ex9_ib, monkeypatch):
        # Min's steps and Sigma's premise closures do not depend on the
        # target, so a run makes them once for all its graphs.
        counts = {"order": 0, "table": 0}
        order, table = dbase.traversal.element_order, dbase.traversal._premise_table

        def counting_order(*args):
            counts["order"] += 1
            return order(*args)

        def counting_table(ctx):
            counts["table"] += 1
            return table(ctx)

        monkeypatch.setattr(dbase.traversal, "element_order", counting_order)
        monkeypatch.setattr(dbase.traversal, "_premise_table", counting_table)
        ctx = ClosureContext.from_ib(ex9_ib)
        assert sum(has_d_generators(ctx, c) for c in range(len(ex9_ib.ground))) == 3
        assert len(list(iter_d_base(ex9_ib))) > len(ex9_ib.ground)
        assert counts == {"order": 1, "table": 1}


# |U| = 1 is allowed here.
@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@settings(max_examples=150, deadline=None)
def test_walk_memo_is_exact_and_windows_span(ib, order):
    # The two facts that let Min memoize whole walks and skip a spanning
    # test: a walk from any set with a result in the table of tested sets
    # gives that result, and every window built from a D-generator of c has
    # c in its closure.  Each target's graph is the one iter_d_base walks
    # for that target.
    ctx = ClosureContext.from_ib(ib)
    rows = list(iter_d_base(ib, order=order))
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        graph = _graph(ctx, c, order)
        gens = list(graph.traverse())
        assert sorted(gens) == sorted(
            i.premise.bits for i in rows if i.conclusion == c and not i.is_binary
        )
        for bits, kernel in graph.tested.items():
            if not kernel:
                continue  # a failed test
            fresh = _graph(ctx, c, order)
            assert fresh.min_reduce(bits) == kernel
        for abits in gens:
            for window in graph.windows(abits):
                assert ctx.close_bits(window) >> c & 1


@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@settings(max_examples=150, deadline=None)
def test_failed_tests_are_exact(ib, order):
    # After a whole traversal every set the table of tested sets maps to 0 is
    # a cl^b-closed set inside U_c that does not span, and every other key
    # spans, so answering a test from the table is what a chain would say.
    ctx = ClosureContext.from_ib(ib)
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        graph = _graph(ctx, c, order)
        for _ in graph.traverse():
            pass
        for bits, kernel in graph.tested.items():
            if kernel:
                assert ctx.close_bits(bits) >> c & 1
                continue
            assert ctx.close_binary_bits(bits) == bits
            assert bits & ~graph.universe == 0
            assert not ctx.close_bits(bits) >> c & 1


@given(standard_ibs(min_n=1))
@settings(max_examples=150, deadline=None)
def test_graph_rules_put_exit_rules_first(ib):
    # The graph keeps the context's rules with premise inside U_c, those
    # whose mask holds c (equivalently, leaves U_c) first, each group in the
    # context's order.
    ctx = ClosureContext.from_ib(ib)
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        graph = _graph(ctx, c, "size-label")
        inside = [r for r in ctx.rules if r[0] & ~graph.universe == 0]
        exits = [r for r in inside if r[1] >> c & 1]
        assert list(graph.rules) == exits + [r for r in inside if r not in exits]
        for _, mask in inside:
            assert bool(mask & ~graph.universe) == bool(mask >> c & 1)


class TestMinMemo:
    def test_capped_memo_gives_the_same_stream(self, monkeypatch):
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 6, 5))
        ctx = ClosureContext.from_ib(ib)
        targets = [c for c in range(len(ib.ground)) if has_d_generators(ctx, c)]
        for order in ("size-label", "natural"):
            want = [i.format() for i in iter_d_base(ib, order=order)]
            uncapped = {
                c: list(_graph(ctx, c, order).traverse())
                for c in targets
            }
            with monkeypatch.context() as m:
                m.setattr(dbase.traversal, "MEMO_CAP", 8)
                got = [i.format() for i in iter_d_base(ib, order=order)]
                for c in targets:
                    graph = _graph(ctx, c, order)
                    capped = []
                    for bits in graph.traverse():
                        capped.append(bits)
                        # Below the cap or cleared, then one walk of at
                        # most |U| + 1 sets.
                        assert len(graph.tested) <= 8 + len(ib.ground)
                    assert capped == uncapped[c]
            assert got == want

    def test_capped_memo_and_fails_give_the_same_stream(self, monkeypatch):
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
        for order in ("size-label", "natural"):
            want = [i.format() for i in iter_d_base(ib, order=order)]
            peak = [0]

            def check(graph, x):
                held = len(graph.tested)
                peak[0] = max(peak[0], held)
                # Cleared at the cap, then one walk's |U_c| + 1 walked sets
                # and |U_c| failures.
                u = graph.universe.bit_count()
                assert held <= 8 + (u + 1) + u

            with monkeypatch.context() as m:
                m.setattr(dbase.traversal, "MEMO_CAP", 8)
                _watch_chains(m, check)
                got = [i.format() for i in iter_d_base(ib, order=order)]
            assert got == want
            assert peak[0] > 8

    def test_closure_calls_on_lb_gadget(self, monkeypatch):
        # Memoizing whole walks and dropping the window spanning test cut
        # this run from 34,176 closure calls to 9,851.
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
        calls = [0]
        close = ClosureContext.close_bits

        def counting(self, bits):
            calls[0] += 1
            return close(self, bits)

        monkeypatch.setattr(ClosureContext, "close_bits", counting)
        rows = list(iter_d_base(ib))
        assert len(rows) == 89
        assert calls[0] <= 12_000

    def test_chain_tests_on_lb_gadget(self, monkeypatch):
        # Min's removability tests are chains over the target's rules; full
        # closures are left to the standardness check and has_d_generators.
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
        chains, closures = [0], [0]
        chain_fn, close = dbase.traversal.chain, ClosureContext.close_bits

        def counting_chain(*args):
            chains[0] += 1
            return chain_fn(*args)

        def counting_close(self, bits):
            closures[0] += 1
            return close(self, bits)

        monkeypatch.setattr(dbase.traversal, "chain", counting_chain)
        monkeypatch.setattr(ClosureContext, "close_bits", counting_close)
        rows = list(iter_d_base(ib))
        assert len(rows) == 89
        assert chains[0] <= 12_000
        assert closures[0] <= 2 * len(ib.ground)

    def test_rule_checks_on_lb_gadget(self, monkeypatch):
        # A rule check is one premise test inside chain.  Remembering failed
        # tests and chaining exit rules first cut this run from 5,259 chains
        # and 192,431 rule checks to 3,828 and 106,012.
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
        want = [i.format() for i in iter_d_base(ib)]
        counts = {"chains": 0, "checks": 0}

        def counting_chain(x, rules, cover):
            # closure.chain, counting its calls and premise tests.
            counts["chains"] += 1
            grown = x & cover != cover
            while grown:
                grown = False
                for premise, mask in rules:
                    counts["checks"] += 1
                    if premise & x == premise and mask & ~x:
                        x |= mask
                        if x & cover == cover:
                            return x
                        grown = True
            return x

        monkeypatch.setattr(dbase.traversal, "chain", counting_chain)
        assert [i.format() for i in iter_d_base(ib)] == want
        assert 0 < counts["chains"] <= 4_000
        assert counts["checks"] <= 120_000


def _watch_chains(m: pytest.MonkeyPatch, check) -> list[int]:
    # Call ``check(graph, x)`` before every chain test, with the live graph
    # (the last one built) and the set chained; returns a live call count.
    live: list[_SolutionGraph] = []
    calls = [0]
    init, chain_fn = _SolutionGraph.__init__, dbase.traversal.chain

    def tracking_init(self, *args):
        init(self, *args)
        live[:] = [self]

    def watched(x, rules, cover):
        check(live[0], x)
        calls[0] += 1
        return chain_fn(x, rules, cover)

    m.setattr(_SolutionGraph, "__init__", tracking_init)
    m.setattr(dbase.traversal, "chain", watched)
    return calls


def _chains_guarded_by_the_memo(m: pytest.MonkeyPatch) -> list[int]:
    # Make every chain test fail if it is run on a set the live graph's table
    # maps to a result: a walked set, which spans and so needs no test.
    def check(graph, x):
        assert not graph.tested.get(x), "chained a set the walk memo holds"

    return _watch_chains(m, check)


def _chains_guarded_against_repeats(m: pytest.MonkeyPatch) -> list[int]:
    # Make a chain test fail if the live graph has chained its set before:
    # a passed test leaves the set in the memo, a failed one in ``fails``.
    seen: list = [None, set()]

    def check(graph, x):
        if graph is not seen[0]:
            seen[:] = [graph, set()]
        assert x not in seen[1], "chained a set twice for one target"
        seen[1].add(x)

    return _watch_chains(m, check)


def test_min_never_chains_a_memo_key(monkeypatch):
    # Without the memo pre-check Min makes 9,019 chain tests here, 3,760 of
    # them on memo keys.
    ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
    want = [i.format() for i in iter_d_base(ib)]
    calls = _chains_guarded_by_the_memo(monkeypatch)
    assert [i.format() for i in iter_d_base(ib)] == want
    assert 0 < calls[0] <= 6_000


@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@settings(max_examples=150, deadline=None)
def test_min_never_chains_a_memo_key_property(ib, order):
    want = list(iter_d_base(ib, order=order))
    with pytest.MonkeyPatch.context() as m:
        _chains_guarded_by_the_memo(m)
        assert list(iter_d_base(ib, order=order)) == want


def test_min_never_chains_a_set_twice_per_target(monkeypatch):
    # Without the failed-test set Min chains 1,431 sets here a second time,
    # every one a failure.
    ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
    want = [i.format() for i in iter_d_base(ib)]
    calls = _chains_guarded_against_repeats(monkeypatch)
    assert [i.format() for i in iter_d_base(ib)] == want
    assert calls[0] > 0


@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@settings(max_examples=150, deadline=None)
def test_min_never_chains_a_set_twice_per_target_property(ib, order):
    want = list(iter_d_base(ib, order=order))
    with pytest.MonkeyPatch.context() as m:
        _chains_guarded_against_repeats(m)
        assert list(iter_d_base(ib, order=order)) == want


@given(standard_ibs(min_n=1))
@settings(max_examples=150, deadline=None)
def test_window_cut_is_the_binary_closure(ib):
    # windows() closes cl^b(A) minus cl^b(d) by adding the cut elements
    # whose containers meet the rest; that is cl^b of the rest, for every
    # D-generator A and every transition with a cut, and a transition
    # without one gives no window.  A transition with the single premise
    # closure 0 makes its window exactly that base.
    ctx = ClosureContext.from_ib(ib)
    brute = BruteForce(ib)
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        graph = _graph(ctx, c, "size-label")
        transitions = graph.transitions
        for abits in brute.d_generator_masks(c):
            clb_a = ctx.close_binary_bits(abits)
            for cl_d, _ in transitions:
                graph.transitions = [(cl_d, (0,))]
                want = {ctx.close_binary_bits(clb_a & ~cl_d)} if clb_a & cl_d else set()
                assert graph.windows(abits) == want


# Keeping only the transitions with d in cl^b(A) strands a D-generator here.
_STRICT_RULE_MISSES = parse_ib(
    "ground: 1 2 3 4 5\n1 -> 5\n1 2 5 -> 4\n2 4 -> 1\n2 5 -> 3\n"
)


def _reaches_every_d_generator_from_each(ib, order):
    # Fact 7: BFS over the graph's windows and Min, started from any
    # D-generator of c, reaches every D-generator of c and nothing else.
    ctx = ClosureContext.from_ib(ib)
    brute = BruteForce(ib)
    for c in range(len(ib.ground)):
        if not has_d_generators(ctx, c):
            continue
        graph = _graph(ctx, c, order)
        gens = set(brute.d_generator_masks(c))
        for seed in gens:
            reached, queue = {seed}, deque([seed])
            while queue:
                windows = graph.windows(queue.popleft())
                for bits in {graph.min_reduce(w) for w in windows}:
                    if bits not in reached:
                        reached.add(bits)
                        queue.append(bits)
            assert reached == gens


@given(standard_ibs(min_n=1), st.sampled_from(["size-label", "natural"]))
@example(_STRICT_RULE_MISSES, "size-label")
@settings(max_examples=150, deadline=None)
def test_graph_reaches_every_d_generator_from_each(ib, order):
    _reaches_every_d_generator_from_each(ib, order)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("order", ["size-label", "natural"])
def test_graph_reaches_every_d_generator_from_each_on_gadgets(seed, order):
    cnf = random_cnf(random.Random(seed), 5, 4)
    for gen in (gen_lower_bounded_instance, gen_acyclic_instance):
        _reaches_every_d_generator_from_each(gen(cnf)[0], order)


class TestRoundTrip:
    # A D-base is an IB of the same closure system, so the IB route run on
    # it must give back exactly its rows, each once.

    def test_ib_route_gives_back_the_mi_routes_d_base(self):
        mi = random_mi(random.Random(1), 20, 30, 0.85)
        rows = list(iter_d_base_from_mi(mi))
        assert len(set(rows)) == len(rows) == 325
        back = iter_d_base(ImplicationalBase(mi.ground, rows))
        assert Counter(back) == Counter(rows)

    def test_ib_route_gives_back_its_own_d_base(self):
        ib, _, _ = gen_lower_bounded_instance(random_cnf(random.Random(1), 9, 7))
        rows = list(iter_d_base(ib))
        back = iter_d_base(ImplicationalBase(ib.ground, rows))
        assert Counter(back) == Counter(rows)


class TestStrongConnectivity:
    def test_solution_graph_example(self, ex9_ib):
        g = ex9_ib.ground
        for label in "234":
            c = g.position(label)
            all_gens = set(enumerate_d_generators(ex9_ib, c))
            for seed in all_gens:
                reached = bfs_d_generators_from(ex9_ib, c, seed)
                assert reached == all_gens

    def test_random_instances(self):
        rng = random.Random(29)
        for _ in range(15):
            ib = random_standard_ib(rng, max_n=6, max_m=9)
            ctx = ClosureContext.from_ib(ib)
            for c in range(len(ib.ground)):
                if not has_d_generators(ctx, c):
                    continue
                all_gens = set(enumerate_d_generators(ib, c))
                for seed in all_gens:
                    assert bfs_d_generators_from(ib, c, seed) == all_gens
