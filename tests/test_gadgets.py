"""The two 1-in-3-SAT reduction generators and their empirical verification."""
from __future__ import annotations

import random

import pytest

from dbase import (
    BruteForce,
    ClosureContext,
    gen_acyclic_instance,
    gen_lower_bounded_instance,
    is_d_generator,
    one_in_three_assignments,
    parse_cnf,
    random_cnf,
    serialize_cnf,
    verify_reduction,
)
from dbase.errors import GroundTooLarge, ParseError
from dbase.gadgets import conflict_pairs, gadget_size
from dbase.model import iter_bits

from conftest import EX6_CNF, labelsets


@pytest.fixture
def ex6():
    return parse_cnf(EX6_CNF)


class TestParseCnf:
    def test_roundtrip(self, ex6):
        assert parse_cnf(serialize_cnf(ex6)) == ex6

    def test_clause_arity(self):
        with pytest.raises(ParseError):
            parse_cnf("vars: a b c\na b\n")
        with pytest.raises(ParseError):
            parse_cnf("vars: a b c\na b b\n")

    def test_reserved_namespace(self):
        with pytest.raises(ParseError):
            parse_cnf("vars: _a b c\n_a b c\n")

    def test_needs_clauses(self):
        with pytest.raises(ParseError):
            parse_cnf("vars: a b c\n")

    def test_too_many_vars(self):
        labels = " ".join(f"v{i}" for i in range(17))
        with pytest.raises(GroundTooLarge):
            parse_cnf(f"vars: {labels}\nv0 v1 v2\n")

    def test_random_cnf_needs_three_variables(self):
        with pytest.raises(ValueError, match="at least 3 variables"):
            random_cnf(random.Random(0), 2, 1)


@pytest.mark.parametrize(
    "which, gen",
    [("acyclic", gen_acyclic_instance), ("lower_bounded", gen_lower_bounded_instance)],
)
def test_gadget_size_is_the_built_ground(which, gen):
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(3, 8), rng.randint(1, 6)
        ib = gen(random_cnf(rng, n, m))[0]
        assert len(ib.ground) == gadget_size(which, n, m)


class TestAcyclicInstance:
    def test_walkthrough_instance(self, ex6):
        ib, source, target = gen_acyclic_instance(ex6)
        g = ib.ground
        assert g.label(source) == "_c1" and g.label(target) == "_c4"
        mod = {
            "_c1 2 -> _c2", "_c1 3 -> _c2", "_c1 4 -> _c2",
            "_c2 1 -> _c3", "_c2 2 -> _c3", "_c2 3 -> _c3",
            "_c3 1 -> _c4", "_c3 3 -> _c4", "_c3 5 -> _c4",
        }
        conf = {
            "1 2 -> _c4", "1 3 -> _c4", "1 5 -> _c4", "2 3 -> _c4",
            "2 4 -> _c4", "3 4 -> _c4", "3 5 -> _c4",
        }
        assert {i.format() for i in ib} == mod | conf

    def test_single_clause(self):
        cnf = parse_cnf("vars: x y z\nx y z\n")
        ib, _, _ = gen_acyclic_instance(cnf)
        assert sum(1 for i in ib if "_c1" in i.format()) == 3
        assert len(ib) == 6  # 3 clause moves plus 3 conflict pairs

    def test_witness_d_generator(self, ex6):
        ib, source, target = gen_acyclic_instance(ex6)
        ctx = ClosureContext.from_ib(ib)
        witness = ib.ground.set_of(["1", "4", "_c1"])
        assert is_d_generator(ctx, witness, target)

    def test_conflict_pairs_deduplicated(self, ex6):
        assert len(conflict_pairs(ex6)) == 7


class TestLowerBoundedInstance:
    def test_walkthrough_instance(self, ex6):
        ib, a, b = gen_lower_bounded_instance(ex6)
        g = ib.ground
        assert g.label(a) == "_a" and g.label(b) == "_b"
        got = {i.format() for i in ib}
        assert "_c1 _c2 _c3 -> _b" in got
        assert {"_c1 -> _a", "_c2 -> _a", "_c3 -> _a"} <= got
        assert {"2 _a -> _c1", "3 _a -> _c1", "4 _a -> _c1"} <= got
        assert {"1 2 -> _b", "3 5 -> _b"} <= got
        assert len(got) == 10 + 7 + 3

    def test_single_clause(self):
        cnf = parse_cnf("vars: x y z\nx y z\n")
        ib, _, _ = gen_lower_bounded_instance(cnf)
        formats = {i.format() for i in ib}
        moves = {f"x _a -> _c1", "y _a -> _c1", "z _a -> _c1"}
        assert moves <= formats
        assert "_c1 -> _b" in formats  # the collector C -> b, binary when m = 1
        assert "_c1 -> _a" in formats  # the designated binary part
        assert len(ib) == 3 + 1 + 3 + 1  # moves, collector, conflicts, binary

    def test_witness_d_generator(self, ex6):
        ib, a, b = gen_lower_bounded_instance(ex6)
        ctx = ClosureContext.from_ib(ib)
        witness = ib.ground.set_of(["1", "4", "_a"])
        assert is_d_generator(ctx, witness, b)


class TestOneInThree:
    def test_walkthrough_assignments(self, ex6):
        got = labelsets(one_in_three_assignments(ex6))
        assert "14" in got
        assert got == {"3", "14", "25"}

    def test_every_returned_set_satisfies_definition(self):
        rng = random.Random(43)
        for _ in range(25):
            cnf = random_cnf(rng, rng.randint(3, 7), rng.randint(1, 5))
            for t in one_in_three_assignments(cnf):
                assert all((t.bits & clause.bits).bit_count() == 1 for clause in cnf.clauses)

    def test_unsatisfiable_instance_gives_empty_list(self):
        cnf = parse_cnf("vars: x y z w\nx y z\nx y w\nx z w\ny z w\n")
        got = one_in_three_assignments(cnf)
        # Independent check: no subset hits all four clauses exactly once.
        n = len(cnf.variables)
        masks = [c.bits for c in cnf.clauses]
        brute = [
            m
            for m in range(1 << n)
            if all((m & cm).bit_count() == 1 for cm in masks)
        ]
        assert [t.bits for t in got] == brute == []


def minimal_generator_characterization(cnf):
    """Independent statement of gen(c_{m+1}): conflict pairs plus the minimal
    conflict-free 1-in-3 assignments of each clause suffix, tagged c_i."""
    n = len(cnf.variables)
    m = len(cnf.clauses)
    conflicts = conflict_pairs(cnf)
    expected = set()
    offset = m + 1  # variables sit after the clause elements in the gadget
    for pair in conflicts:
        expected.add(sum(1 << (offset + v) for v in iter_bits(pair)))
    for i in range(m):
        suffix = [c.bits for c in cnf.clauses[i:]]
        hits = [
            t
            for t in range(1 << n)
            if all((t & cm).bit_count() == 1 for cm in suffix)
            and not any(pair & ~t == 0 for pair in conflicts)
        ]
        minimal = [t for t in hits if not any(h != t and h & ~t == 0 for h in hits)]
        for t in minimal:
            expected.add(
                (1 << i) | sum(1 << (offset + v) for v in iter_bits(t))
            )
    return expected


class TestVerification:
    def test_walkthrough_both_reductions(self, ex6):
        for which in ("acyclic", "lower_bounded"):
            report = verify_reduction(ex6, which)
            assert report.ok
            assert report.d_holds and report.assignment_exists

    def test_unsatisfiable_instance_both_sides_false(self):
        cnf = parse_cnf("vars: x y z w\nx y z\nx y w\nx z w\ny z w\n")
        for which in ("acyclic", "lower_bounded"):
            report = verify_reduction(cnf, which)
            assert report.ok
            assert not report.d_holds and not report.assignment_exists

    def test_generator_characterization_on_acyclic_gadget(self):
        rng = random.Random(47)
        for _ in range(15):
            cnf = random_cnf(rng, rng.randint(3, 6), rng.randint(1, 4))
            ib, _, target = gen_acyclic_instance(cnf)
            brute = BruteForce(ib)
            got = set(brute.minimal_generator_masks(target))
            assert got == minimal_generator_characterization(cnf)

    def test_lower_bounded_terminal_elements(self, ex6):
        ib, a, b = gen_lower_bounded_instance(ex6)
        brute = BruteForce(ib)
        rel = brute.d_relation()
        n_vars = len(ex6.variables)
        assert not any(c == a for c, _ in rel.arcs)
        assert not any(c < n_vars for c, _ in rel.arcs)

    def test_random_instances_quick(self):
        rng = random.Random(53)
        for _ in range(20):
            cnf = random_cnf(rng, rng.randint(3, 7), rng.randint(1, 5))
            assert verify_reduction(cnf, "acyclic").ok
            assert verify_reduction(cnf, "lower_bounded").ok

    def test_unknown_reduction(self, ex6):
        with pytest.raises(ValueError):
            verify_reduction(ex6, "nope")
