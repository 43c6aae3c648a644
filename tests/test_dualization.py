"""Distributive dualization and the D-base-from-meet-irreducibles route."""
from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dbase.dualization
import dbase.traversal
from dbase import (
    BruteForce,
    ClosureContext,
    GroundSet,
    ImplicationalBase,
    SetFamily,
    binary_part,
    brute_dual,
    d_base,
    d_base_from_mi,
    dualize_distributive,
    embed_dualization,
    is_standard,
    iter_d_base,
    iter_d_base_from_mi,
    meet_irreducibles,
    meet_irreducibles_distributive,
    parse_ib,
    parse_set_family,
    recover_dual_from_dbase,
    serialize_ib,
    up_arrow,
)
from dbase.cli import main
from dbase.dualization import (
    _is_binary_closed,
    _minimal_transversals,
    d_generators_from_mi,
)
from dbase.errors import (
    DBaseError,
    GroundMismatch,
    MalformedGadget,
    NonBinaryImplication,
    NotAntichain,
    NotClosed,
    NotStandard,
)

from conftest import (
    EX4_DBASE,
    dual_pair_ok,
    gap_ib_text,
    gap_mi_text,
    labelsets,
    random_binary_ib,
    random_standard_ib,
    random_standard_mi,
    up_dual_by_enumeration,
)


def family(ground_names, *sets):
    text = "ground: " + " ".join(ground_names) + "\n"
    text += "\n".join(" ".join(s) if s else "." for s in sets) + "\n"
    return parse_set_family(text)


class TestDualizeDistributive:
    def test_distributive_example(self, ex5_ib):
        b_plus = family("12345", "12", "14", "45")
        got = dualize_distributive(ex5_ib, b_plus)
        assert labelsets(got) == {"123", "124", "145"}
        assert dual_pair_ok(ex5_ib, b_plus, got)

    def test_full_set_dualizes_to_empty(self, ex5_ib):
        b_plus = family("12345", "12345")
        assert len(dualize_distributive(ex5_ib, b_plus)) == 0

    def test_five_element_system_in_csb(self, ex8_ib):
        bp = binary_part(ClosureContext.from_ib(ex8_ib))
        b_plus = family("12345", "12", "23", "24")
        got = dualize_distributive(bp, b_plus)
        assert labelsets(got) == {"5", "123", "124", "234"}
        assert dual_pair_ok(bp, b_plus, got)

    def test_empty_antichain_dualizes_to_bottom(self, ex5_ib):
        got = dualize_distributive(ex5_ib, family("12345"))
        assert [s.bits for s in got] == [0]

    def test_matches_brute_dual_on_randoms(self):
        rng = random.Random(31)
        for _ in range(30):
            ib = random_binary_ib(rng, rng.randint(2, 7), rng.randint(0, 8))
            ctx = ClosureContext.from_ib(ib)
            closed = sorted(
                {ctx.close_bits(m) for m in range(1 << len(ib.ground))}
            )
            picks = rng.sample(closed, min(len(closed), rng.randint(1, 4)))
            maximal = [
                m for m in picks if not any(m != k and m & ~k == 0 for k in picks)
            ]
            b_plus = SetFamily.from_bits(ib.ground, maximal)
            got = dualize_distributive(ib, b_plus)
            assert got == brute_dual(ib, b_plus)
            assert dual_pair_ok(ib, b_plus, got)
            # Uniqueness: the antichain whose dual is B- is B+ again.
            assert up_dual_by_enumeration(ib, got) == b_plus.canonicalize()

    def test_rejects_non_binary(self, ex2_ib):
        with pytest.raises(NonBinaryImplication):
            dualize_distributive(ex2_ib, family("123456", "12"))

    def test_rejects_unclosed_member(self, ex5_ib):
        with pytest.raises(NotClosed):
            dualize_distributive(ex5_ib, family("12345", "2"))

    def test_rejects_comparable_members(self, ex5_ib):
        with pytest.raises(NotAntichain):
            dualize_distributive(ex5_ib, family("12345", "1", "12"))

    def test_absorption_tests_inclusion_of_the_parts_in_the_edge(self):
        # With 2 -> 1, the closed sets meeting edges 34 and 12 include 13 and
        # 123, which meet edge 12 in 1 and 12.  13 lies inside 123 although
        # those parts differ, so 123 is not minimal: only 13 and 14 are.
        ib = parse_ib("ground: 1 2 3 4\n2 -> 1\n")
        ctx = ClosureContext.from_ib(ib)
        bits = [ib.ground.set_of(s).bits for s in ("34", "12", "13", "14")]
        assert sorted(_minimal_transversals(ctx, bits[:2])) == sorted(bits[2:])
        assert labelsets(dualize_distributive(ib, family("1234", "12", "34"))) == {"13", "14"}

    def test_search_matches_brute_dual_with_cycles(self):
        # The raw search, before dualize_distributive sorts it, against the
        # oracle on up to 12 elements; every third base gets a forced cycle,
        # so some cl^b-classes hold more than one element.
        rng = random.Random(27)
        cyclic = 0
        for draw in range(90):
            n = rng.randint(1, 12)
            ib = random_binary_ib(rng, n, rng.randint(0, 14)) if n > 1 else parse_ib("ground: 1\n")
            if draw % 3 == 0 and n > 2:
                cycle = rng.sample(range(n), rng.randint(2, min(n, 4)))
                pairs = [(1 << a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
                ib = ImplicationalBase.build(ib.ground, pairs + [
                    (imp.premise.bits, imp.conclusion) for imp in ib
                ])
            ctx = ClosureContext.from_ib(ib)
            cyclic += ctx.representatives != ctx.full_mask
            closed = sorted({ctx.close_bits(rng.randrange(1 << n)) for _ in range(12)})
            picks = rng.sample(closed, min(len(closed), rng.randint(0, 6)))
            maximal = [m for m in picks if not any(m != k and m & ~k == 0 for k in picks)]
            got = _minimal_transversals(ctx, [ctx.full_mask & ~m for m in maximal])
            assert len(got) == len(set(got))
            want = brute_dual(ib, SetFamily.from_bits(ib.ground, maximal))
            assert sorted(got) == sorted(want.bit_list())
        assert cyclic >= 20

    def test_cyclic_base_dualizes_once(self):
        # 1 and 2 form one cl^b-class; 124 is the one closed set outside
        # both 12 and 34, and it comes out once.
        ib = parse_ib("ground: 1 2 3 4\n1 -> 2\n2 -> 1\n3 -> 4\n")
        ctx = ClosureContext.from_ib(ib)
        edges = [ib.ground.set_of(s).bits for s in ("34", "12")]
        assert _minimal_transversals(ctx, edges) == [ib.ground.set_of("124").bits]
        assert labelsets(dualize_distributive(ib, family("1234", "12", "34"))) == {"124"}

    def test_deeper_than_the_recursion_limit(self):
        # No implications and B+ = every U - {i}: 1,100 one-element edges,
        # whose dual {U} has 1,100 tops, more than the recursion limit.
        n = 1100
        assert n > sys.getrecursionlimit()
        ground = GroundSet([f"e{i}" for i in range(n)])
        b_plus = SetFamily.from_bits(ground, [ground.full_mask & ~(1 << i) for i in range(n)])
        got = dualize_distributive(ImplicationalBase.build(ground, []), b_plus)
        assert got.bit_list() == [ground.full_mask]


@st.composite
def binary_ibs_with_antichains(draw):
    """A binary IB on 1..7 elements and an antichain of its closed sets,
    empty or holding U at times."""
    n = draw(st.integers(min_value=1, max_value=7))
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = []
    if n > 1:
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            a, c = draw(st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=2, max_size=2, unique=True,
            ))
            pairs.append((1 << a, c))
    ib = ImplicationalBase.build(ground, pairs)
    ctx = ClosureContext.from_ib(ib)
    picks = draw(st.lists(st.integers(min_value=0, max_value=ground.full_mask), max_size=5))
    if draw(st.booleans()):
        picks.append(ground.full_mask)
    closed = {ctx.close_bits(m) for m in picks}
    maximal = [m for m in closed if not any(m != k and m & ~k == 0 for k in closed)]
    return ib, SetFamily.from_bits(ground, maximal)


@given(binary_ibs_with_antichains())
@settings(max_examples=300, deadline=None)
def test_dualize_matches_brute_dual_property(case):
    ib, b_plus = case
    got = dualize_distributive(ib, b_plus)
    assert got == brute_dual(ib, b_plus)
    if len(b_plus) == 0:
        assert [s.bits for s in got] == [0]
    if ib.ground.full_mask in b_plus.bit_list():
        assert len(got) == 0


class TestUpAntichain:
    def test_five_element_system(self, ex8_mi):
        got = up_arrow(ex8_mi, ex8_mi.ground.position("5"))
        assert labelsets(got) == {"12", "23", "24"}

    def test_element_in_every_member(self):
        fam = family("12", "12", "1")
        assert len(up_arrow(fam, fam.ground.position("1"))) == 0

    def test_running_example_element_6(self, ex1_mi):
        got = up_arrow(ex1_mi, ex1_mi.ground.position("6"))
        assert labelsets(got) == {"13", "15", "124"}


class TestDGeneratorsFromMi:
    def test_five_element_system(self, ex8_mi):
        got = d_generators_from_mi(ex8_mi, ex8_mi.ground.position("5"))
        assert labelsets(got) == {"13", "14", "34"}

    def test_distributive_system_empty(self, ex5_ib):
        mi = meet_irreducibles_distributive(ex5_ib)
        for c in range(5):
            assert d_generators_from_mi(mi, c) == []

    def test_running_example_element_6(self, ex1_mi, ex2_ib):
        six = ex1_mi.ground.position("6")
        got = d_generators_from_mi(ex1_mi, six)
        assert labelsets(got) == {"34", "35", "45"}
        brute = BruteForce(ex2_ib)
        assert {s.bits for s in got} == set(brute.d_generator_masks(six))

    @pytest.mark.parametrize(
        "text",
        ["ground: a b\n.\n", "ground: a b c d\n.\nc\na b\nd\n"],
        ids=["empty-set-only", "four-elements"],
    )
    def test_not_standard_rejected_like_the_stream(self, text):
        mi = parse_set_family(text)
        with pytest.raises(NotStandard):
            list(iter_d_base_from_mi(mi))
        for c in range(len(mi.ground)):
            with pytest.raises(NotStandard):
                d_generators_from_mi(mi, c)

    def test_dual_size_is_generator_count_plus_one(self, ex8_mi, ex8_ib):
        bp = binary_part(ClosureContext.from_mi(ex8_mi))
        brute = BruteForce(ex8_ib)
        for c in range(5):
            dual = dualize_distributive(bp, up_arrow(ex8_mi, c))
            assert len(dual) == len(brute.d_generator_masks(c)) + 1


class TestDBaseFromMi:
    def test_five_element_system(self, ex8_mi, ex8_ib):
        got = d_base_from_mi(ex8_mi)
        assert got == ex8_ib.canonicalize()
        assert len(got) == 14

    def test_running_example(self, ex1_mi):
        assert serialize_ib(d_base_from_mi(ex1_mi)) == EX4_DBASE

    def test_distributive_mi_gives_binary_only(self, ex5_ib):
        mi = meet_irreducibles_distributive(ex5_ib)
        got = d_base_from_mi(mi)
        assert all(imp.is_binary for imp in got)
        assert got == ex5_ib.canonicalize()

    def test_not_standard_rejected(self):
        # No member at all: cl(a) = cl(b) = {a b}, and {b} is not closed.
        fam = family("ab")
        ctx = ClosureContext.from_mi(fam)
        assert ctx.singleton_closure(0) == 0b11
        with pytest.raises(NotStandard):
            d_base_from_mi(fam)

    def test_one_context_binary_part_and_standardness_check_per_run(
        self, ex1_mi, monkeypatch
    ):
        counts = {"mi_ctx": 0, "binary_part": 0, "standard": 0}
        init = ClosureContext.__init__
        part, check = dbase.dualization.binary_part, dbase.traversal.is_standard

        def counting_init(self, source):
            counts["mi_ctx"] += isinstance(source, SetFamily)
            init(self, source)

        def counting_part(ctx):
            counts["binary_part"] += 1
            return part(ctx)

        def counting_check(ctx):
            counts["standard"] += 1
            return check(ctx)

        monkeypatch.setattr(ClosureContext, "__init__", counting_init)
        monkeypatch.setattr(dbase.dualization, "binary_part", counting_part)
        # Both routes raise NotStandard from traversal._require_standard.
        monkeypatch.setattr(dbase.traversal, "is_standard", counting_check)
        rows = list(iter_d_base_from_mi(ex1_mi))
        assert serialize_ib(ImplicationalBase(ex1_mi.ground, rows).canonicalize()) == EX4_DBASE
        assert counts == {"mi_ctx": 1, "binary_part": 1, "standard": 1}

    @pytest.mark.parametrize("route", ["stream", "d_generators"])
    def test_one_context_of_any_mode_per_run(self, ex1_mi, monkeypatch, route):
        # Every element's dualization runs on the run's Mi context.
        builds = []
        init = ClosureContext.__init__

        def counting_init(self, source):
            builds.append(type(source).__name__)
            init(self, source)

        monkeypatch.setattr(ClosureContext, "__init__", counting_init)
        if route == "stream":
            rows = list(iter_d_base_from_mi(ex1_mi))
            assert serialize_ib(ImplicationalBase(ex1_mi.ground, rows).canonicalize()) == EX4_DBASE
        else:
            six = ex1_mi.ground.position("6")
            assert labelsets(d_generators_from_mi(ex1_mi, six)) == {"34", "35", "45"}
        assert builds == ["SetFamily"]

    def test_one_arrow_table_and_one_dualization_per_element(self, ex1_mi, monkeypatch):
        # Every element's up-arrows come off one table per run, and each
        # element still makes one dualize_distributive call, looked up in the
        # module (the bench's traced counts rest on that call).
        counts = {"table": 0, "dualize": 0, "up_arrow": 0}
        table, dualize = dbase.dualization._up_arrows, dbase.dualization.dualize_distributive
        arrow = dbase.dualization.up_arrow

        def counting_table(mi):
            counts["table"] += 1
            return table(mi)

        def counting_dualize(*args):
            counts["dualize"] += 1
            return dualize(*args)

        def counting_arrow(*args):
            counts["up_arrow"] += 1
            return arrow(*args)

        monkeypatch.setattr(dbase.dualization, "_up_arrows", counting_table)
        monkeypatch.setattr(dbase.dualization, "dualize_distributive", counting_dualize)
        monkeypatch.setattr(dbase.dualization, "up_arrow", counting_arrow)
        rows = list(iter_d_base_from_mi(ex1_mi))
        assert serialize_ib(ImplicationalBase(ex1_mi.ground, rows).canonicalize()) == EX4_DBASE
        assert counts == {"table": 1, "dualize": len(ex1_mi.ground), "up_arrow": 0}

    def test_streaming_binary_first(self, ex8_mi):
        stream = list(iter_d_base_from_mi(ex8_mi))
        assert [i.format() for i in stream[:2]] == ["3 -> 2", "4 -> 2"]
        assert all(not i.is_binary for i in stream[2:])


class TestEmbedDualization:
    def test_gadget_meet_irreducibles(self, ex5_ib):
        b_plus = family("12345", "12", "14", "45")
        got = embed_dualization(ex5_ib, b_plus)
        assert labelsets(got) == {
            "12", "14", "45",
            "45_d", "123_d", "145_d", "1234_d", "1245_d",
        }

    def test_gadget_d_base(self, ex5_ib):
        b_plus = family("12345", "12", "14", "45")
        mi_prime = embed_dualization(ex5_ib, b_plus)
        got = d_base_from_mi(mi_prime)
        assert {i.format() for i in got} == {
            "2 -> 1", "3 -> 2", "3 -> 1", "3 -> _d", "5 -> 4",
            "2 4 -> _d", "1 5 -> _d",
        }

    def test_rejects_antichain_over_other_ground(self, ex5_ib):
        with pytest.raises(GroundMismatch):
            embed_dualization(ex5_ib, family("54321", "12"))

    def test_one_context_per_gadget(self, ex5_ib, monkeypatch):
        # The formula for Mi and the check of B+ share the base's context.
        builds = []
        init = ClosureContext.__init__

        def counting_init(self, source):
            builds.append(type(source).__name__)
            init(self, source)

        monkeypatch.setattr(ClosureContext, "__init__", counting_init)
        got = embed_dualization(ex5_ib, family("12345", "12", "14", "45"))
        assert labelsets(got) == {
            "12", "14", "45",
            "45_d", "123_d", "145_d", "1234_d", "1245_d",
        }
        assert builds == ["ImplicationalBase"]

    def test_checks_b_plus_as_the_dualizer_does(self):
        # Both share one closedness test: on drawn families, closed or not,
        # comparable or not, both accept or both raise the same error.
        rng = random.Random(41)
        outcomes = Counter()
        for _ in range(300):
            ib = random_binary_ib(rng, rng.randint(2, 7), rng.randint(0, 8))
            ctx = ClosureContext.from_ib(ib)
            masks = [rng.randrange(ctx.full_mask + 1) for _ in range(rng.randint(0, 4))]
            if rng.random() < 0.5:
                masks = [ctx.close_bits(m) for m in masks]
            b_plus = SetFamily.from_bits(ib.ground, masks)
            results = []
            for dualize in (dualize_distributive, embed_dualization):
                try:
                    dualize(ib, b_plus)
                    results.append(None)
                except DBaseError as exc:
                    results.append((type(exc), str(exc)))
            assert results[0] == results[1]
            outcomes[results[0] and results[0][0]] += 1
        assert outcomes[None] and outcomes[NotClosed] and outcomes[NotAntichain]

    def test_full_set_gadget_recovers_empty(self, ex5_ib):
        b_plus = family("12345", "12345")
        mi_prime = embed_dualization(ex5_ib, b_plus)
        mi = meet_irreducibles_distributive(ex5_ib)
        assert len(mi_prime) == len(mi) + 1
        recovered = recover_dual_from_dbase(d_base_from_mi(mi_prime), mi_prime)
        assert len(recovered) == 0


class TestRecoverDual:
    def test_distributive_example_roundtrip(self, ex5_ib):
        b_plus = family("12345", "12", "14", "45")
        mi_prime = embed_dualization(ex5_ib, b_plus)
        dbase_prime = d_base_from_mi(mi_prime)
        got = recover_dual_from_dbase(dbase_prime, mi_prime)
        assert labelsets(got) == {"123", "124", "145"}
        # 123 is covered by no non-binary premise; it comes from 3 -> _d.
        nonbinary_closures = {
            "".join(
                sorted(
                    ClosureContext.from_mi(mi_prime)
                    .close(i.premise)
                    .labels()[:-1]
                )
            )
            for i in dbase_prime.nonbinary()
        }
        assert "123" not in nonbinary_closures

    def test_no_implication_concluding_d(self, ex5_ib):
        b_plus = family("12345", "12345")
        mi_prime = embed_dualization(ex5_ib, b_plus)
        dbase_prime = d_base_from_mi(mi_prime)
        assert not any(
            imp.conclusion == mi_prime.ground.position("_d") for imp in dbase_prime
        )
        assert len(recover_dual_from_dbase(dbase_prime, mi_prime)) == 0

    def test_roundtrip_property_on_randoms(self):
        rng = random.Random(37)
        done = 0
        while done < 40:
            ib = random_binary_ib(rng, rng.randint(2, 7), rng.randint(0, 8))
            ctx = ClosureContext.from_ib(ib)
            from dbase import is_standard

            if not is_standard(ctx)[0]:
                continue
            closed = sorted({ctx.close_bits(m) for m in range(1 << len(ib.ground))})
            picks = rng.sample(closed, min(len(closed), rng.randint(1, 4)))
            maximal = [
                m for m in picks if not any(m != k and m & ~k == 0 for k in picks)
            ]
            b_plus = SetFamily.from_bits(ib.ground, maximal)
            expected = dualize_distributive(ib, b_plus)
            mi_prime = embed_dualization(ib, b_plus)
            got = recover_dual_from_dbase(d_base_from_mi(mi_prime), mi_prime)
            assert got == expected
            done += 1

    def test_malformed_gadget(self, ex5_ib, ex8_mi):
        b_plus = family("12345", "12", "14", "45")
        mi_prime = embed_dualization(ex5_ib, b_plus)
        dbase_prime = d_base_from_mi(mi_prime)
        with pytest.raises(MalformedGadget):
            recover_dual_from_dbase(dbase_prime, ex8_mi)
        plain = parse_ib("ground: 1 2\n1 -> 2\n")
        with pytest.raises(MalformedGadget):
            recover_dual_from_dbase(plain, family("12", "1"))


@st.composite
def standard_mi_families(draw):
    """Mi(cs) of a standard closure system on 1..7 elements, generated by a
    drawn family of sets."""
    n = draw(st.integers(min_value=1, max_value=7))
    ground = GroundSet([str(i + 1) for i in range(n)])
    masks = draw(st.lists(st.integers(min_value=0, max_value=ground.full_mask), max_size=10))
    ctx = ClosureContext.from_mi(SetFamily.from_bits(ground, masks))
    assume(is_standard(ctx)[0])
    return meet_irreducibles(ctx)


@given(standard_mi_families())
@settings(max_examples=200, deadline=None)
def test_dualize_on_the_mi_context_matches_a_fresh_context_property(mi):
    # The Mi context's cl^b is the closure of the binary part, so handing it
    # to the dualizer changes nothing; grounds of 7 elements are in oracle range.
    ctx = ClosureContext.from_mi(mi)
    bp = binary_part(ctx)
    for c in range(len(mi.ground)):
        b_plus = up_arrow(mi, c)
        got = dualize_distributive(bp, b_plus, ctx)
        assert got == dualize_distributive(bp, b_plus)
        assert got == brute_dual(bp, b_plus)


def _check_the_complement_closedness_test(ctx: ClosureContext) -> None:
    # Every mask of the ground, 0 and the full mask included.
    for m in range(ctx.full_mask + 1):
        assert _is_binary_closed(ctx, m) == (ctx.close_binary_bits(m) == m)


class TestComplementClosedness:
    def test_random_standard_ib_contexts(self):
        rng = random.Random(23)
        for _ in range(60):
            _check_the_complement_closedness_test(ClosureContext.from_ib(random_standard_ib(rng)))

    def test_random_standard_mi_contexts(self):
        rng = random.Random(24)
        for _ in range(60):
            _check_the_complement_closedness_test(ClosureContext.from_mi(random_standard_mi(rng)))

    def test_cyclic_binary_base(self):
        ib = parse_ib("ground: 1 2 3 4 5\n1 -> 2\n2 -> 3\n3 -> 1\n4 -> 3\n")
        ctx = ClosureContext.from_ib(ib)
        assert ctx.singleton_closure(0) == 0b111
        _check_the_complement_closedness_test(ctx)


def _check_the_dual_reads_off_unchecked(mi: SetFamily) -> None:
    # The Mi route reads genD(c) off the dual without a check, on two facts
    # that standardness implies: exactly one member holds c, and it is
    # cl^b(c); and every member is cl^b of its minimal elements.
    ctx = ClosureContext.from_mi(mi)
    bp = binary_part(ctx)
    for c in range(len(mi.ground)):
        dual = dualize_distributive(bp, up_arrow(mi, c), ctx).bit_list()
        assert [m for m in dual if m >> c & 1] == [ctx.singleton_closure(c)]
        for m in dual:
            assert ctx.close_binary_bits(ctx.minimal_elements(m)) == m


class TestDualReadsOffUnchecked:
    def test_random_standard_families(self):
        rng = random.Random(18)
        for _ in range(400):
            _check_the_dual_reads_off_unchecked(random_standard_mi(rng))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gap_families(self, n):
        _check_the_dual_reads_off_unchecked(parse_set_family(gap_mi_text(n)))


class TestCrossRouteAgreement:
    def test_randoms(self):
        rng = random.Random(41)
        for _ in range(25):
            ib = random_standard_ib(rng, max_n=7, max_m=10)
            ctx = ClosureContext.from_ib(ib)
            mi = meet_irreducibles(ctx)
            assert d_base_from_mi(mi) == d_base(ib)


GAP_SCALE_N = 40
GAP_SCALE_GROUND = 2 * GAP_SCALE_N + 1


def gap_closed_form(n: int) -> set[str]:
    rows = {f"a{i + 1} -> b{i + 1}" for i in range(n)}
    rows.add(" ".join(f"b{i + 1}" for i in range(n)) + " -> c")
    return rows


class TestGapFamilyAtScale:
    """gap(40), 81 elements: Berge multiplication over raw sets would hold
    2^40 + 1 transversals for the last row; the search over closed sets
    holds no family, only a stack as deep as a transversal has tops."""

    def test_closed_form_mi_is_the_meet_irreducibles(self):
        for n in range(2, 6):
            ib = parse_ib(gap_ib_text(n))
            mi = parse_set_family(gap_mi_text(n))
            assert meet_irreducibles(ClosureContext.from_ib(ib)) == mi.canonicalize()

    def test_library_route(self):
        mi = parse_set_family(gap_mi_text(GAP_SCALE_N), max_ground=GAP_SCALE_GROUND)
        rows = [imp.format() for imp in iter_d_base_from_mi(mi)]
        assert len(rows) == len(set(rows))
        assert set(rows) == gap_closed_form(GAP_SCALE_N)

    def test_cli_route(self, tmp_path, capsys):
        path = tmp_path / "gap40.mi"
        path.write_text(gap_mi_text(GAP_SCALE_N))
        code = main([
            "dbase", str(path), "--from", "mi",
            "--max-ground", str(GAP_SCALE_GROUND),
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == GAP_SCALE_N + 1
        assert set(lines) == gap_closed_form(GAP_SCALE_N)

    def test_dualize_binary_part(self):
        mi = parse_set_family(gap_mi_text(GAP_SCALE_N), max_ground=GAP_SCALE_GROUND)
        g = mi.ground
        bp = binary_part(ClosureContext.from_mi(mi))
        assert {i.format() for i in bp} == {
            f"a{i + 1} -> b{i + 1}" for i in range(GAP_SCALE_N)
        }
        got = dualize_distributive(bp, up_arrow(mi, g.position("c")))
        assert labelsets(got) == {"c", "".join(f"b{i + 1}" for i in range(GAP_SCALE_N))}


@st.composite
def small_standard_ibs(draw):
    # |U| = 1 is allowed; premises are never empty, as no IB with an empty
    # premise is standard.
    n = draw(st.integers(min_value=1, max_value=6))
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = [
        (
            draw(st.integers(min_value=1, max_value=(1 << n) - 1)),
            draw(st.integers(min_value=0, max_value=n - 1)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=9)))
    ]
    ib = ImplicationalBase.build(ground, pairs)
    assume(is_standard(ClosureContext.from_ib(ib))[0])
    return ib


@given(small_standard_ibs())
@settings(max_examples=200, deadline=None)
def test_routes_and_oracle_agree_property(ib):
    ctx = ClosureContext.from_ib(ib)
    want = BruteForce(ib).d_base()
    assert d_base_from_mi(meet_irreducibles(ctx)) == want
    for order in ("size-label", "natural"):
        rows = list(iter_d_base(ib, order=order))
        assert len(rows) == len(set(rows))
        assert ImplicationalBase(ib.ground, rows).canonicalize() == want
