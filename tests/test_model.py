"""Parsing, serialization, and validation of the value types."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbase import (
    BruteForce,
    Classification,
    ClosureContext,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    PositiveCnf,
    ReductionReport,
    Relation,
    SetFamily,
    enumerate_d_generators,
    has_d_generators,
    is_d_generator,
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_relation,
    serialize_set_family,
    up_arrow,
)
from dbase.dualization import d_generators_from_mi
from dbase.errors import (
    DuplicateGround,
    DuplicateSet,
    GroundMismatch,
    GroundTooLarge,
    NotAntichain,
    NotClosed,
    ParseError,
    UnknownElement,
)
from dbase.model import (
    DEFAULT_MAX_GROUND,
    _index_order_key,
    check_antichain_of_closed,
    iter_bits,
)
from dbase.lattice import down_arrow
from dbase.traversal import ReducedBase, build_reduced_base, restricted_universe

from conftest import EX1_MI, EX2_IB, EX4_DBASE, labelsets


class TestParseIb:
    def test_running_example_expands_to_eight_units(self):
        ib = parse_ib(EX2_IB)
        got = {imp.format() for imp in ib}
        assert got == {
            "2 -> 4", "6 -> 5", "2 4 5 -> 6",
            "3 4 -> 1", "3 4 -> 2", "3 4 -> 5",
            "3 5 -> 6", "4 5 -> 6",
        }

    def test_tautology_dropped(self):
        ib = parse_ib("ground: a b\na -> a\n")
        assert len(ib) == 0

    def test_multi_conclusion_expansion(self):
        ib = parse_ib("ground: 1 2 3\n1 -> 2 3\n")
        assert {imp.format() for imp in ib} == {"1 -> 2", "1 -> 3"}

    def test_duplicates_dropped(self):
        ib = parse_ib("ground: 1 2\n1 -> 2\n1 -> 2\n")
        assert len(ib) == 1

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            parse_ib("ground: 1 2\n1 -> 3\n")

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_ib("ground: 1 2\n1 2\n")

    def test_missing_ground(self):
        with pytest.raises(ParseError):
            parse_ib("1 -> 2\n")

    def test_duplicate_ground_label(self):
        with pytest.raises(DuplicateGround):
            parse_ib("ground: 1 1\n")

    def test_second_ground_line(self):
        with pytest.raises(DuplicateGround):
            parse_ib("ground: 1 2\nground: 3 4\n")

    def test_empty_premise_rejected_by_default(self):
        with pytest.raises(ParseError):
            parse_ib("ground: 1 2\n-> 1\n")

    def test_empty_premise_flag(self):
        ib = parse_ib("ground: 1 2\n-> 1\n", allow_empty_premise=True)
        assert len(ib) == 1 and len(ib.implications[0].premise) == 0

    def test_reserved_label_rejected(self):
        with pytest.raises(ParseError):
            parse_ib("ground: a _d\n")

    def test_ground_too_large(self):
        labels = " ".join(f"x{i}" for i in range(65))
        with pytest.raises(GroundTooLarge):
            parse_ib(f"ground: {labels}\n")
        parse_ib(f"ground: {labels}\n", max_ground=65)

    def test_multiple_arrows(self):
        with pytest.raises(ParseError):
            parse_ib("ground: 1 2 3\n1 -> 2 -> 3\n")

    def test_comments_and_blanks(self):
        ib = parse_ib("# header\nground: 1 2  # universe\n\n1 -> 2  # rule\n")
        assert len(ib) == 1


class TestParseSetFamily:
    def test_running_example_meet_irreducibles(self):
        fam = parse_set_family(EX1_MI)
        assert labelsets(fam) == {
            "356", "13", "15", "1356", "1456", "124", "2456", "12456",
        }

    def test_empty_body(self):
        fam = parse_set_family("ground: 1 2\n")
        assert len(fam) == 0

    def test_duplicate_set(self):
        with pytest.raises(DuplicateSet):
            parse_set_family("ground: 1 2 3\n1 3\n1 3\n")

    def test_duplicate_set_reordered(self):
        with pytest.raises(DuplicateSet):
            parse_set_family("ground: 1 2 3\n1 3\n3 1\n")

    def test_empty_set_token(self):
        fam = parse_set_family("ground: 1 2\n.\n1\n")
        assert [s.bits for s in fam] == [0, 1]

    def test_empty_set_token_must_stand_alone(self):
        with pytest.raises(ParseError):
            parse_set_family("ground: 1 2\n. 1\n")


class TestSerialize:
    def test_canonical_order_binary_first(self):
        ib = parse_ib(EX4_DBASE)
        text = serialize_ib(ib)
        assert text == EX4_DBASE

    def test_empty_base_is_ground_line_only(self):
        ib = parse_ib("ground: a b\n")
        assert serialize_ib(ib) == "ground: a b\n"

    def test_empty_premise_formats_as_bare_arrow(self):
        text = "ground: a b c\n-> a\na b -> c\n"
        ib = parse_ib(text, allow_empty_premise=True)
        assert [imp.format() for imp in ib] == ["-> a", "a b -> c"]
        assert parse_ib(serialize_ib(ib), allow_empty_premise=True) == ib.canonicalize()

    def test_set_family_roundtrip_with_empty_member(self):
        fam = parse_set_family("ground: 1 2\n1\n.\n")
        again = parse_set_family(serialize_set_family(fam))
        assert again == fam.canonicalize()


@st.composite
def random_base(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    ground = GroundSet([f"e{i}" for i in range(n)])
    m = draw(st.integers(min_value=0, max_value=10))
    pairs = []
    for _ in range(m):
        bits = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
        concl = draw(st.integers(min_value=0, max_value=n - 1))
        pairs.append((bits, concl))
    return ImplicationalBase.build(ground, pairs)


@given(random_base())
@settings(max_examples=60, deadline=None)
def test_roundtrip_is_canonicalization(ib):
    assert parse_ib(serialize_ib(ib)) == ib.canonicalize()


def test_set_family_roundtrip_random():
    import random

    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 8)
        ground = GroundSet([f"e{i}" for i in range(n)])
        masks = rng.sample(range(1 << n), rng.randint(0, min(10, 1 << n)))
        fam = SetFamily.from_bits(ground, masks)
        assert parse_set_family(serialize_set_family(fam)) == fam.canonicalize()


class TestRelation:
    def test_irreflexive(self):
        ground = GroundSet(["a", "b"])
        with pytest.raises(ValueError):
            Relation(ground, [(0, 0)])

    def test_serialization_sorted(self):
        ground = GroundSet(["a", "b", "c"])
        rel = Relation(ground, [(2, 0), (0, 1)])
        assert serialize_relation(rel) == "a -> b\nc -> a\n"


class TestElementSetValidation:
    def test_bits_outside_ground(self):
        ground = GroundSet(["a"])
        with pytest.raises(ValueError):
            ElementSet(ground, 0b10)

    def test_tautological_implication_rejected(self):
        ground = GroundSet(["a", "b"])
        with pytest.raises(ValueError):
            Implication(ElementSet(ground, 0b01), 0)

    def test_negative_conclusion_is_outside_the_ground(self):
        ground = GroundSet(["a", "b"])
        with pytest.raises(ValueError, match="conclusion outside the ground set"):
            Implication(ElementSet(ground, 0b01), -1)


class _Bits:
    """A stranger with the same fields as an ElementSet."""

    def __init__(self, ground, bits):
        self.ground = ground
        self.bits = bits


@st.composite
def grounds(draw):
    # Names drawn from a small pool so that distinct GroundSet objects with
    # equal names, and grounds with different names, both come up.
    names = draw(st.sampled_from([("a",), ("a", "b"), ("b", "a"), ("a", "b", "c")]))
    return GroundSet(names)


@st.composite
def element_sets(draw):
    ground = draw(grounds())
    return ElementSet(ground, draw(st.integers(0, ground.full_mask)))


@st.composite
def implications(draw):
    premise = draw(element_sets())
    free = [i for i in range(len(premise.ground)) if not premise.bits >> i & 1]
    if not free:
        premise = ElementSet(premise.ground, 0)
        free = list(range(len(premise.ground)))
    return Implication(premise, draw(st.sampled_from(free)))


class TestValueSemantics:
    @given(element_sets(), element_sets())
    @settings(max_examples=200, deadline=None)
    def test_element_set_equality_and_hash(self, x, y):
        same = x.ground.names == y.ground.names and x.bits == y.bits
        assert (x == y) is same and (x != y) is not same
        assert hash(x) == hash((x.ground, x.bits))
        if same:
            assert hash(x) == hash(y)
        assert len({x, y}) == (1 if same else 2)
        assert len({x: 0, y: 1}) == (1 if same else 2)

    @given(implications(), implications())
    @settings(max_examples=200, deadline=None)
    def test_implication_equality_and_hash(self, p, q):
        same = p.premise == q.premise and p.conclusion == q.conclusion
        assert (p == q) is same and (p != q) is not same
        assert hash(p) == hash((p.premise, p.conclusion))
        if same:
            assert hash(p) == hash(q)
        assert len({p, q}) == (1 if same else 2)
        assert len({p: 0, q: 1}) == (1 if same else 2)

    @given(element_sets(), implications())
    @settings(max_examples=100, deadline=None)
    def test_other_classes_are_unequal(self, x, p):
        for other in ((x.ground, x.bits), _Bits(x.ground, x.bits), x.bits, p):
            assert x != other and other != x
            assert not x == other
        for other in ((p.premise, p.conclusion), x, p.conclusion):
            assert p != other and other != p
        assert ElementSet.__eq__(x, (x.ground, x.bits)) is NotImplemented
        assert Implication.__eq__(p, (p.premise, p.conclusion)) is NotImplemented

    @given(element_sets(), st.lists(st.integers(0, 7), max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_validation_still_raises(self, x, draws):
        n = len(x.ground)
        with pytest.raises(ValueError, match="bits outside the ground set"):
            ElementSet(x.ground, x.bits | 1 << n)
        with pytest.raises(ValueError, match="bits outside the ground set"):
            SetFamily.from_bits(x.ground, [x.bits | 1 << n])
        # A family holds masks and builds its members' element sets on demand.
        ms = [m & x.ground.full_mask for m in draws]
        fam = SetFamily.from_bits(x.ground, ms)
        assert list(fam) == [ElementSet(x.ground, m) for m in ms]
        assert repr(fam) == f"SetFamily({', '.join(repr(ElementSet(x.ground, m)) for m in ms)})"
        twin = SetFamily.from_bits(GroundSet(x.ground.names), tuple(ms))
        assert fam == twin and hash(fam) == hash(twin)
        with pytest.raises(ValueError, match="conclusion outside the ground set"):
            Implication(x, n)
        if x.bits:
            inside = (x.bits & -x.bits).bit_length() - 1
            with pytest.raises(ValueError, match="tautological implication"):
                Implication(x, inside)


def test_records_keep_their_fields():
    ground = GroundSet(["a", "b", "c", "d"])
    flags = Classification(is_acyclic=True, is_lower_bounded=False, graph_acyclic=True)
    assert (flags.is_acyclic, flags.is_lower_bounded, flags.graph_acyclic) == (
        True, False, True)
    base = ImplicationalBase(ground, [])
    rb = ReducedBase(target=3, universe=ground.full(), base=base, ordering=(0, 1, 2))
    assert (rb.target, rb.universe, rb.base, rb.ordering) == (
        3, ground.full(), base, (0, 1, 2))
    clause = ground.set_of("abc")
    cnf = PositiveCnf(variables=ground, clauses=(clause,))
    assert (cnf.variables, cnf.clauses) == (ground, (clause,))

    report = ReductionReport(
        reduction="acyclic", d_holds=True, assignment_exists=True, checks={"x": True})
    assert (report.reduction, report.d_holds, report.assignment_exists) == (
        "acyclic", True, True)
    assert report.checks == {"x": True}
    assert report.biconditional and report.structure_ok and report.ok
    failed = ReductionReport("acyclic", True, True, {"x": True, "y": False})
    assert failed.biconditional and not failed.structure_ok and not failed.ok
    mismatch = ReductionReport("lower_bounded", True, False, {})
    assert not mismatch.biconditional and mismatch.structure_ok and not mismatch.ok

    with pytest.raises(ValueError, match="at least one clause"):
        PositiveCnf(ground, ())
    with pytest.raises(ValueError, match="different variable set"):
        PositiveCnf(ground, (GroundSet(["a", "b", "c"]).full(),))
    with pytest.raises(ValueError, match="exactly 3 variables"):
        PositiveCnf(ground, (ground.set_of("ab"),))


_masks = st.one_of(
    st.integers(min_value=0, max_value=(1 << 12) - 1),
    st.frozensets(st.integers(min_value=0, max_value=140)).map(
        lambda idx: sum(1 << i for i in idx)
    ),
    st.integers(min_value=0, max_value=(1 << 200) - 1),
)


@given(st.lists(_masks, max_size=30))
@settings(max_examples=200, deadline=None)
def test_index_order_key_sorts_like_index_tuples(drawn):
    # SetFamily.canonicalize sorts by this key; it must order any two masks
    # as their tuples of set-bit indices do, the empty and the full mask
    # included.
    full = (1 << DEFAULT_MAX_GROUND) - 1
    masks = [0, full, full >> 1, 1 << (DEFAULT_MAX_GROUND - 1), *drawn]
    for a in masks:
        for b in masks:
            want = tuple(iter_bits(a)) < tuple(iter_bits(b))
            assert (_index_order_key(a) < _index_order_key(b)) == want
    assert sorted(masks, key=_index_order_key) == sorted(
        masks, key=lambda m: tuple(iter_bits(m))
    )


# Every entry point that takes a target, called on the running example (its
# IB, context and Mi family) with the target given.  Without the one check in
# GroundSet.require_target, three answered wrongly instead of raising:
# up_arrow(mi, -1) gave element 6's up-arrows, and down_arrow(mi, 6) and
# BruteForce(ib).d_generators(6) came out empty.  Likewise restricted_universe
# gave element 6's U_c for -1, and BruteForce's other three scans of 6 came
# out empty; the rest failed with IndexError or "negative shift count".
TARGET_CALLS = {
    "is_d_generator": lambda ib, ctx, mi, c: is_d_generator(ctx, ib.ground.empty(), c),
    "restricted_universe": lambda ib, ctx, mi, c: restricted_universe(ctx, c),
    "has_d_generators": lambda ib, ctx, mi, c: has_d_generators(ctx, c),
    "enumerate_d_generators": lambda ib, ctx, mi, c: list(enumerate_d_generators(ib, c)),
    "build_reduced_base": lambda ib, ctx, mi, c: build_reduced_base(ib, c),
    "d_generators_from_mi": lambda ib, ctx, mi, c: d_generators_from_mi(mi, c),
    "up_arrow": lambda ib, ctx, mi, c: up_arrow(mi, c),
    "down_arrow": lambda ib, ctx, mi, c: down_arrow(mi, c),
    "minimal_generator_masks": lambda ib, ctx, mi, c: BruteForce(ib).minimal_generator_masks(c),
    "d_generator_masks": lambda ib, ctx, mi, c: BruteForce(ib).d_generator_masks(c),
    "minimal_generators": lambda ib, ctx, mi, c: BruteForce(ib).minimal_generators(c),
    "d_generators": lambda ib, ctx, mi, c: BruteForce(ib).d_generators(c),
}


@pytest.mark.parametrize("c", [-1, pytest.param(6, id="len(ground)")])
@pytest.mark.parametrize("name", list(TARGET_CALLS))
def test_target_outside_the_ground_is_refused(name, c):
    ib, mi = parse_ib(EX2_IB), parse_set_family(EX1_MI)
    assert len(ib.ground) == 6
    with pytest.raises(ValueError, match=f"^target {c} outside the ground set$"):
        TARGET_CALLS[name](ib, ClosureContext.from_ib(ib), mi, c)


_SORT_GROUND = GroundSet([f"e{i}" for i in range(10)])


@st.composite
def unit_implications(draw):
    premise = draw(st.integers(0, _SORT_GROUND.full_mask))
    free = [i for i in range(10) if not premise >> i & 1]
    if not free:
        premise = 0
        free = list(range(10))
    return Implication(ElementSet(_SORT_GROUND, premise), draw(st.sampled_from(free)))


@given(st.lists(unit_implications(), max_size=15))
@settings(max_examples=200, deadline=None)
def test_sort_key_orders_like_the_index_tuple_key(drawn):
    # The canonical order of rows: binary first, each part by the tuple of
    # premise indices, then the conclusion; the empty premise included.
    def tuple_key(imp):
        return (0 if imp.is_binary else 1, tuple(imp.premise), imp.conclusion)

    empty = ElementSet(_SORT_GROUND, 0)
    imps = [Implication(empty, 0), Implication(empty, 9), *drawn]
    for a in imps:
        for b in imps:
            assert (a.sort_key() < b.sort_key()) == (tuple_key(a) < tuple_key(b))


# Ground sizes on both sides of the 8-element chunks of the label tables.
_TABLE_GROUND_SIZES = (0, 1, 7, 8, 9, 16, 17, 200)


@st.composite
def grounds_and_masks(draw):
    """A ground of multi-character labels of varied lengths and masks over
    it, the empty mask (an empty premise, printed as "-> c") among them."""
    n = draw(st.sampled_from(_TABLE_GROUND_SIZES))
    ground = GroundSet([f"v{i}{'_x' * (i % 3)}" for i in range(n)])
    masks = draw(st.lists(st.integers(0, ground.full_mask), min_size=1, max_size=8))
    return ground, [0, ground.full_mask, *masks]


class TestLabelTables:
    @given(grounds_and_masks())
    @settings(max_examples=150, deadline=None)
    def test_labels_of_joins_the_labels_lowest_first(self, drawn):
        ground, masks = drawn
        for m in masks:
            assert ground.labels_of(m) == " ".join(ground.names[i] for i in iter_bits(m))

    @given(grounds_and_masks(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_format_matches_the_joined_labels(self, drawn, data):
        ground, masks = drawn
        if not len(ground):
            return
        names = ground.names
        for m in masks:
            free = [i for i in range(len(ground)) if not m >> i & 1]
            if not free:
                continue  # the full mask, no conclusion outside it
            c = data.draw(st.sampled_from(free))
            imp = Implication(ElementSet(ground, m), c)
            want = " ".join([*(names[i] for i in iter_bits(m)), "->", names[c]])
            assert imp.format() == want

    def test_tables_do_not_change_equality(self):
        used, fresh = GroundSet(["ab", "c"]), GroundSet(["ab", "c"])
        assert used.labels_of(0b11) == "ab c"
        assert used == fresh and hash(used) == hash(fresh)


class TestCheckAntichainOfClosed:
    GROUND = GroundSet(["a", "b", "c", "d"])

    def check(self, masks, is_closed=lambda m: True):
        return check_antichain_of_closed(
            SetFamily.from_bits(self.GROUND, masks), self.GROUND, is_closed)

    def test_comparable_pair_of_different_sizes(self):
        # The larger set listed first: still reported smaller first.
        with pytest.raises(NotAntichain, match=r"\{a\} and \{a b c\} are comparable"):
            self.check([0b0111, 0b1000, 0b0001])

    def test_repeated_mask(self):
        with pytest.raises(NotAntichain, match=r"\{b c\} is listed twice"):
            self.check([0b0110, 0b0001, 0b0110])

    def test_same_size_distinct_sets_pass(self):
        masks = [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert self.check(masks) == tuple(masks)

    def test_closedness_and_ground_are_checked_first(self):
        with pytest.raises(NotClosed, match=r"\{a b\} is not closed"):
            self.check([0b0001, 0b0011], is_closed=lambda m: m != 0b0011)
        with pytest.raises(GroundMismatch):
            check_antichain_of_closed(
                SetFamily.from_bits(GroundSet(["a"]), [1]), self.GROUND, lambda m: True)

    @given(st.lists(st.integers(0, 15), max_size=7))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_every_pair(self, masks):
        comparable = any(
            m & ~k == 0 or k & ~m == 0
            for i, m in enumerate(masks)
            for k in masks[i + 1 :]
        )
        if comparable:
            with pytest.raises(NotAntichain):
                self.check(masks)
        else:
            assert self.check(masks) == tuple(masks)
