"""Parsing, serialization, and validation of the value types."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbase import (
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
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
