"""Seeded inputs for the benchmark workloads and their reference checks.

Each workload is a fixed corpus of closure systems (drawn from a fixed
per-workload seed, so the corpus is part of the workload's definition) that
every run presents afresh: ``--seed`` renames every element and shuffles the
lines of each file.  The same seed always gives the same files.  Keeping the
systems fixed and varying only their presentation is what lets a run's
medians repeat across seeds: the cost of a freshly drawn random system
varies by a factor of ten.

The CLI only ever sees the generated text.  The expected rows are computed
here, in the benchmark process, by a route independent of the one under test:

* ``ib-lb`` / ``ib-random`` (``dbase dbase --from ib``): the Mi route on the
  system's meet-irreducibles, ``meet_irreducibles(ctx, max_ground=n)``.
* ``mi-gap`` (``--from mi``): the closed form, rows a_i -> b_i plus
  b_1 ... b_n -> c.
* ``mi-random`` (``--from mi``): every non-binary row passes
  ``is_d_generator`` on ``ClosureContext.from_mi``, the binary rows equal
  ``binary_part``, and no row repeats.  Those checks cannot see a missing
  row, so the rows must also equal those of the in-process Mi route; the
  IB route, run on the 28-element output, takes minutes per system.

Rows are compared as multisets of (premise labels, conclusion) pairs, never
by their order or by the order of labels inside a premise.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from dbase import (
    ClosureContext,
    GroundSet,
    ImplicationalBase,
    SetFamily,
    binary_part,
    gen_lower_bounded_instance,
    is_d_generator,
    is_standard,
    iter_d_base_from_mi,
    meet_irreducibles,
    random_cnf,
)

Row = tuple[frozenset, str]

# Sizes: one invocation takes about 0.2 to 2.5 s, so that a run of the
# benchmark holds at least three whole passes over a corpus.
LB_VARS, LB_CLAUSES = 9, 7
RANDOM_IB_N, RANDOM_IB_M = 20, 40
GAP_N = 12
RANDOM_MI_N, RANDOM_MI_SETS, RANDOM_MI_DENSITY = 28, 40, 0.85


def parse_row(line: str) -> Row | None:
    """``"x y -> z"`` as ({x, y}, z); None for anything malformed."""
    lhs, sep, rhs = line.partition(" -> ")
    premise = lhs.split()
    if not sep or not premise or len(rhs.split()) != 1:
        return None
    return frozenset(premise), rhs.strip()


def row_of(imp) -> Row:
    names = imp.premise.ground.names
    return frozenset(names[i] for i in imp.premise), names[imp.conclusion]


@dataclass
class Instance:
    """One CLI input file and what its output must be.

    ``expected`` is the exact multiset of rows; when ``family`` is set (only
    mi-random), each row is also checked on its own against it.
    """

    name: str
    source: str  # the value passed to ``--from``
    text: str
    expected: Counter
    family: SetFamily | None = None
    binary: frozenset = frozenset()

    def check(self, lines: list[str]) -> bool:
        """Whether ``lines``, the CLI's stdout rows, are exactly the D-base."""
        rows = [parse_row(line) for line in lines]
        if None in rows:
            return False
        counts = Counter(rows)
        if counts != self.expected:
            return False
        return self.family is None or _check_mi_rows(self.family, self.binary, counts)


def _check_mi_rows(family: SetFamily, binary: frozenset, counts: Counter) -> bool:
    if any(k > 1 for k in counts.values()):
        return False
    index = family.ground.index
    ctx = ClosureContext.from_mi(family)
    got_binary = set()
    for premise, concl in counts:
        if concl not in index or concl in premise or not premise <= index.keys():
            return False
        if len(premise) == 1:
            got_binary.add((premise, concl))
        elif not is_d_generator(ctx, family.ground.set_of(premise), index[concl]):
            return False
    return got_binary == binary


# -- presentation ---------------------------------------------------------------


class Relabel:
    """A seeded presentation of a ground set: fresh names, shuffled lines.

    Positions and the relative order of names stay as they are, since both
    steer which D-generator the Min procedure picks: permuting them changes
    one system's traversal cost by up to a sixth, which would drown a
    run-to-run comparison.
    """

    def __init__(self, ground: GroundSet, rng: random.Random):
        n = len(ground)
        fresh = sorted(rng.sample(range(10**4), n))
        ranked = sorted(ground.names)
        self.name = {old: f"x{num:04d}" for old, num in zip(ranked, fresh)}
        self.ground = GroundSet(self.name[old] for old in ground.names)
        self.rng = rng

    def ib_text(self, ib: ImplicationalBase) -> str:
        lines = [
            " ".join(self.name[ib.ground.names[i]] for i in imp.premise)
            + " -> "
            + self.name[ib.ground.names[imp.conclusion]]
            for imp in ib
        ]
        self.rng.shuffle(lines)
        return "\n".join(["ground: " + " ".join(self.ground.names)] + lines) + "\n"

    def family(self, family: SetFamily) -> SetFamily:
        masks = family.bit_list()
        self.rng.shuffle(masks)
        return SetFamily.from_bits(self.ground, masks)

    def rows(self, rows: Counter) -> Counter:
        return Counter(
            {(frozenset(self.name[p] for p in prem), self.name[c]): k
             for (prem, c), k in rows.items()}
        )


def family_text(family: SetFamily) -> str:
    """A set-family file listing the members in the family's own order."""
    lines = [" ".join(es.labels()) or "." for es in family]
    return "\n".join(["ground: " + " ".join(family.ground.names)] + lines) + "\n"


# -- system generators ----------------------------------------------------------


def random_ib(rng: random.Random, n: int, m: int) -> ImplicationalBase:
    """m unit implications over 1..n with premise sizes drawn from {1,1,2,2,3}."""
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = []
    for _ in range(m):
        premise = rng.sample(range(n), rng.choice((1, 1, 2, 2, 3)))
        rest = [x for x in range(n) if x not in premise]
        pairs.append((sum(1 << i for i in premise), rng.choice(rest)))
    return ImplicationalBase.build(ground, pairs)


def random_standard_ib(rng: random.Random, n: int, m: int) -> ImplicationalBase:
    """``random_ib`` redrawn until the system is standard."""
    while True:
        ib = random_ib(rng, n, m)
        if is_standard(ClosureContext.from_ib(ib))[0]:
            return ib


def gap_mi(n: int) -> SetFamily:
    """Closed-form Mi of gap(n): U - {a_i}, U - {a_i, b_i}, U - {a_i, b_i, c}.

    The system's D-base is a_i -> b_i plus b_1 ... b_n -> c, while Berge
    multiplication keeps 2^n + 1 transversals on the way to the last row.
    """
    names = [f"a{i + 1}" for i in range(n)] + [f"b{i + 1}" for i in range(n)] + ["c"]
    ground = GroundSet(names)
    full = ground.full_mask
    c = 1 << 2 * n
    masks = []
    for i in range(n):
        a, b = 1 << i, 1 << n + i
        masks += [full & ~a, full & ~(a | b), full & ~(a | b | c)]
    return SetFamily.from_bits(ground, masks)


def gap_rows(n: int) -> Counter:
    rows = [(frozenset({f"a{i + 1}"}), f"b{i + 1}") for i in range(n)]
    rows.append((frozenset(f"b{i + 1}" for i in range(n)), "c"))
    return Counter(rows)


def meet_irreducible_members(masks: list[int], full: int) -> list[int]:
    """Members that differ from the meet of their strict supersets in the
    family (the meet of no set is the whole ground, so the ground drops)."""
    distinct = sorted(set(masks))
    kept = []
    for m in distinct:
        meet = full
        for k in distinct:
            if k != m and m & ~k == 0:
                meet &= k
        if meet != m:
            kept.append(m)
    return kept


def random_mi(rng: random.Random, n: int, sets: int, density: float) -> SetFamily:
    """A standard family of meet-irreducibles: ``sets`` random subsets of an
    n-element ground, each element kept with probability ``density``, reduced
    to their meet-irreducible members; redrawn until standard."""
    ground = GroundSet([f"e{i + 1}" for i in range(n)])
    while True:
        masks = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for _ in range(sets)
        ]
        family = SetFamily.from_bits(
            ground, meet_irreducible_members(masks, ground.full_mask)
        )
        if is_standard(ClosureContext.from_mi(family))[0]:
            return family


# -- workloads ------------------------------------------------------------------


def _ib_instance(name: str, ib: ImplicationalBase, rng: random.Random) -> Instance:
    mi = meet_irreducibles(ClosureContext.from_ib(ib), max_ground=len(ib.ground))
    expected = Counter(row_of(imp) for imp in iter_d_base_from_mi(mi))
    relabel = Relabel(ib.ground, rng)
    return Instance(name, "ib", relabel.ib_text(ib), relabel.rows(expected))


def ib_lb(i: int, rng: random.Random) -> Instance:
    cnf = random_cnf(random.Random(f"ib-lb:{i}"), LB_VARS, LB_CLAUSES)
    ib, _, _ = gen_lower_bounded_instance(cnf)
    return _ib_instance(f"lb{i}", ib, rng)


def ib_random(i: int, rng: random.Random) -> Instance:
    ib = random_standard_ib(random.Random(f"ib-random:{i}"), RANDOM_IB_N, RANDOM_IB_M)
    return _ib_instance(f"ib{i}", ib, rng)


def mi_gap(i: int, rng: random.Random) -> Instance:
    family = gap_mi(GAP_N)
    relabel = Relabel(family.ground, rng)
    return Instance(f"gap{i}", "mi", family_text(relabel.family(family)),
                    relabel.rows(gap_rows(GAP_N)))


def mi_random(i: int, rng: random.Random) -> Instance:
    family = random_mi(
        random.Random(f"mi-random:{i}"), RANDOM_MI_N, RANDOM_MI_SETS, RANDOM_MI_DENSITY
    )
    family = Relabel(family.ground, rng).family(family)
    binary = frozenset(row_of(imp) for imp in binary_part(ClosureContext.from_mi(family)))
    expected = Counter(row_of(imp) for imp in iter_d_base_from_mi(family))
    return Instance(f"mi{i}", "mi", family_text(family), expected,
                    family=family, binary=binary)


# name -> (instance generator, corpus size); one pass over a corpus takes
# about 2 to 7 s.  mi-gap's presentations all cost the same, so one suffices.
WORKLOADS = {
    "ib-lb": (ib_lb, 3),
    "ib-random": (ib_random, 6),
    "mi-gap": (mi_gap, 1),
    "mi-random": (mi_random, 4),
}


def make_pool(workload: str, seed: int) -> list[Instance]:
    """The workload's corpus as presented for ``seed``; a pure function."""
    gen, count = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [gen(i, rng) for i in range(count)]
