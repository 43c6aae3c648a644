"""Parsing, serialization, and validation of the value types."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbase import (
    Classification,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    PositiveCnf,
    ReducedBase,
    ReductionReport,
    Relation,
    parse_ib,
    parse_set_family,
    serialize_ib,
    serialize_relation,
    serialize_set_family,
)
from dbase.errors import (
    DuplicateGround,
    DuplicateSet,
    GroundTooLarge,
    ParseError,
    UnknownElement,
)

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
        fam = __import__("dbase").SetFamily.from_bits(ground, masks)
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

    @given(element_sets())
    @settings(max_examples=100, deadline=None)
    def test_validation_still_raises(self, x):
        n = len(x.ground)
        with pytest.raises(ValueError, match="bits outside the ground set"):
            ElementSet(x.ground, x.bits | 1 << n)
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
