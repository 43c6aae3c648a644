"""Generators for the two 1-in-3-SAT reduction instances and their checker.

Both reductions turn a positive 3-CNF into an implicational base whose
D-relation answers the question "does the target D the source?" exactly when
the formula has a 1-in-3 assignment.  ``verify_reduction`` replays the
biconditional with both sides brute-forced, plus the structural claims each
construction promises.  Gadget elements live in the reserved ``_`` namespace
so they never collide with variable labels.
"""
from __future__ import annotations

from collections import namedtuple

from .closure import ClosureContext, is_standard
from .errors import GroundTooLarge, ParseError
from .lattice import implication_graph_acyclic, longest_path
from .model import (
    ElementSet,
    GroundSet,
    ImplicationalBase,
    _content_lines,
)
from .oracle import ORACLE_MAX_GROUND, BruteForce

MAX_CNF_VARS = 16


class PositiveCnf(namedtuple("PositiveCnf", "variables clauses")):
    """A positive 3-CNF: clauses (a tuple of ElementSets) are 3-element
    subsets of the variables (a GroundSet)."""

    __slots__ = ()

    def __new__(cls, variables: GroundSet, clauses: tuple[ElementSet, ...]):
        if not clauses:
            raise ValueError("a positive 3-CNF needs at least one clause")
        for clause in clauses:
            if clause.ground != variables:
                raise ValueError("clause over a different variable set")
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} must have exactly 3 variables")
        return super().__new__(cls, variables, clauses)


def parse_cnf(text: str, *, max_vars: int = MAX_CNF_VARS) -> PositiveCnf:
    """Parse ``vars: <label>+`` then one clause of exactly 3 labels per line."""
    lines = _content_lines(text)
    if not lines or lines[0][0] != "vars:":
        raise ParseError("first line must start with 'vars:'")
    labels = lines[0][1:]
    if not labels:
        raise ParseError("vars line declares no variables")
    if len(labels) > max_vars:
        raise GroundTooLarge(f"{len(labels)} variables exceeds maximum {max_vars}")
    if any(label.startswith("_") for label in labels):
        raise ParseError("variable labels may not start with '_' (reserved)")
    variables = GroundSet(labels)
    clauses = []
    for tokens in lines[1:]:
        if len(tokens) != 3 or len(set(tokens)) != 3:
            raise ParseError(f"clause {' '.join(tokens)!r} must have 3 distinct variables")
        clauses.append(variables.set_of(tokens))
    if not clauses:
        raise ParseError("no clauses")
    return PositiveCnf(variables, tuple(clauses))


def serialize_cnf(cnf: PositiveCnf) -> str:
    out = ["vars: " + " ".join(cnf.variables.names)]
    out.extend(" ".join(clause.labels()) for clause in cnf.clauses)
    return "\n".join(out) + "\n"


def random_cnf(rng: random.Random, n_vars: int, n_clauses: int) -> PositiveCnf:
    """Uniform random positive 3-CNF on ``v1..vn`` (clauses may repeat)."""
    if n_vars < 3:
        raise ValueError("need at least 3 variables")
    variables = GroundSet([f"v{i + 1}" for i in range(n_vars)])
    clauses = []
    for _ in range(n_clauses):
        picks = rng.sample(range(n_vars), 3)
        clauses.append(ElementSet(variables, sum(1 << p for p in picks)))
    return PositiveCnf(variables, tuple(clauses))


def conflict_pairs(cnf: PositiveCnf) -> list[int]:
    """Bitmasks of the variable pairs appearing together in some clause."""
    pairs: set[int] = set()
    for clause in cnf.clauses:
        members = list(clause)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                pairs.add(1 << u | 1 << v)
    return sorted(pairs)


def gen_acyclic_instance(cnf: PositiveCnf) -> tuple[ImplicationalBase, int, int]:
    """Acyclic reduction: ground C union V, premises of size 2, no binary
    implications.  Returns (base, source c_1, target c_{m+1})."""
    m = len(cnf.clauses)
    clause_labels = [f"_c{i + 1}" for i in range(m + 1)]
    ground = GroundSet(tuple(clause_labels) + cnf.variables.names)
    offset = m + 1  # a variable's bit in the gadget is its bit shifted by this
    pairs: list[tuple[int, int]] = []
    for i, clause in enumerate(cnf.clauses):
        for v in clause:
            pairs.append((1 << i | 1 << (offset + v), i + 1))
    target = m
    pairs.extend((pair << offset, target) for pair in conflict_pairs(cnf))
    return ImplicationalBase.build(ground, pairs), 0, target


def gen_lower_bounded_instance(cnf: PositiveCnf) -> tuple[ImplicationalBase, int, int]:
    """Lower-bounded reduction: ground V union C union {a, b}.  Returns
    (base, a, b); the question is whether b D a."""
    m = len(cnf.clauses)
    n = len(cnf.variables)
    clause_labels = [f"_c{j + 1}" for j in range(m)]
    ground = GroundSet(cnf.variables.names + tuple(clause_labels) + ("_a", "_b"))
    a = n + m
    b = n + m + 1
    all_clauses = sum(1 << (n + j) for j in range(m))
    pairs: list[tuple[int, int]] = []
    for j, clause in enumerate(cnf.clauses):
        for v in clause:
            pairs.append((1 << a | 1 << v, n + j))
    pairs.append((all_clauses, b))
    for pair in conflict_pairs(cnf):
        pairs.append((pair, b))
    for j in range(m):
        pairs.append((1 << (n + j), a))
    return ImplicationalBase.build(ground, pairs), a, b


def one_in_three_assignments(
    cnf: PositiveCnf, *, max_vars: int = MAX_CNF_VARS
) -> list[ElementSet]:
    """All T with exactly one variable of every clause, by exhaustive search."""
    n = len(cnf.variables)
    if n > max_vars:
        raise GroundTooLarge(f"{n} variables exceeds maximum {max_vars}")
    clause_masks = [clause.bits for clause in cnf.clauses]
    out = []
    for mask in range(1 << n):
        if all((mask & cm).bit_count() == 1 for cm in clause_masks):
            out.append(ElementSet(cnf.variables, mask))
    return out


class ReductionReport(
    namedtuple("ReductionReport", "reduction d_holds assignment_exists checks")
):
    __slots__ = ()

    @property
    def biconditional(self) -> bool:
        return self.d_holds == self.assignment_exists

    @property
    def structure_ok(self) -> bool:
        return all(self.checks.values())

    @property
    def ok(self) -> bool:
        return self.biconditional and self.structure_ok


def verify_reduction(
    cnf: PositiveCnf,
    which: str,
    *,
    max_ground: int = ORACLE_MAX_GROUND,
) -> ReductionReport:
    """Brute-check the biconditional and the structural claims of a reduction.

    ``which`` is ``"acyclic"`` (premises of size 2, acyclic implication graph,
    question c_{m+1} D c_1) or ``"lower_bounded"`` (standard system, acyclic
    D-relation with paths of length at most 2, question b D a).
    """
    assignment_exists = bool(one_in_three_assignments(cnf))
    if which == "acyclic":
        ib, source, target = gen_acyclic_instance(cnf)
    elif which == "lower_bounded":
        ib, source, target = gen_lower_bounded_instance(cnf)
    else:
        raise ValueError(f"unknown reduction {which!r}")
    ctx = ClosureContext.from_ib(ib)
    brute = BruteForce(ctx, max_ground=max_ground)
    d_holds = any(g >> source & 1 for g in brute.d_generator_masks(target))
    if which == "acyclic":
        checks = {
            "premises_of_size_2": all(len(i.premise) == 2 for i in ib),
            "no_binary_implications": not any(i.is_binary for i in ib),
            "implication_graph_acyclic": implication_graph_acyclic(ib),
        }
    else:
        d_rel = brute.d_relation()
        depth = longest_path(len(ib.ground), d_rel.arcs)
        var_range = range(len(cnf.variables))
        checks = {
            "standard": is_standard(ctx)[0],
            "d_relation_acyclic": depth is not None,
            "d_paths_at_most_2": depth is not None and depth <= 2,
            "d_out_of_a_empty": not any(c == source for c, _ in d_rel.arcs),
            "d_out_of_vars_empty": not any(c in var_range for c, _ in d_rel.arcs),
        }
    return ReductionReport(which, d_holds, assignment_exists, checks)
