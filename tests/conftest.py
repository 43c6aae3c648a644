"""Shared fixtures: the worked systems used throughout, plus random generators."""
from __future__ import annotations

import random
from collections import deque

import pytest

from dbase import (
    ClosureContext,
    ElementSet,
    GroundSet,
    ImplicationalBase,
    SetFamily,
    is_standard,
    meet_irreducibles,
    neighbors,
    parse_ib,
    parse_set_family,
    reduced_context,
)
from dbase.lattice import closed_set_masks

# The running system of the worked examples: a 6-element closure system given
# as an IB (EX2), as its meet-irreducibles (EX1), with canonical direct base
# EX3 and D-base EX4.
EX2_IB = """\
ground: 1 2 3 4 5 6
2 -> 4
6 -> 5
2 4 5 -> 6
3 4 -> 1 2 5
3 5 -> 6
4 5 -> 6
"""

EX1_MI = """\
ground: 1 2 3 4 5 6
3 5 6
1 3
1 5
1 3 5 6
1 4 5 6
1 2 4
2 4 5 6
1 2 4 5 6
"""

EX3_CDB = """\
ground: 1 2 3 4 5 6
2 -> 4
6 -> 5
2 3 -> 1
2 3 -> 5
2 3 -> 6
2 5 -> 6
3 4 -> 1
3 4 -> 2
3 4 -> 5
3 4 -> 6
3 5 -> 6
4 5 -> 6
"""

EX4_DBASE = """\
ground: 1 2 3 4 5 6
2 -> 4
6 -> 5
3 4 -> 1
3 4 -> 2
3 4 -> 5
3 4 -> 6
3 5 -> 6
4 5 -> 6
"""

# The distributive system used by the dualization examples.
EX5_IB = """\
ground: 1 2 3 4 5
3 -> 2
2 -> 1
3 -> 1
5 -> 4
"""

# The 5-element system whose D-base and meet-irreducibles drive the
# from-meet-irreducibles route.
EX8_DBASE = """\
ground: 1 2 3 4 5
3 -> 2
4 -> 2
2 5 -> 1
3 4 -> 1
1 5 -> 2
1 4 -> 3
1 5 -> 3
2 5 -> 3
1 3 -> 4
2 5 -> 4
1 5 -> 4
3 4 -> 5
1 3 -> 5
1 4 -> 5
"""

EX8_MI = """\
ground: 1 2 3 4 5
1
1 2
2 3
2 4
5
"""

# The 8-element system of the solution-graph walkthrough.
EX9_IB = """\
ground: 1 2 3 4 5 6 7 8
4 -> 3
3 -> 2
2 -> 1
1 5 -> 2
1 6 -> 2
2 7 -> 3
2 8 -> 3
3 6 -> 4
3 7 -> 4
"""

# The 3-clause positive CNF of the reduction walkthroughs.
EX6_CNF = """\
vars: 1 2 3 4 5
2 3 4
1 2 3
1 3 5
"""


def gap_ib_text(n: int) -> str:
    """The family with an n+1 implication D-base but 2^n + n minimal-generator rows."""
    a = [f"a{i + 1}" for i in range(n)]
    b = [f"b{i + 1}" for i in range(n)]
    lines = ["ground: " + " ".join(a + b + ["c"])]
    lines.extend(f"{a[i]} -> {b[i]}" for i in range(n))
    lines.append(" ".join(b) + " -> c")
    return "\n".join(lines) + "\n"


def gap_mi_text(n: int) -> str:
    """Closed-form Mi of gap(n): U - {a_i}, U - {a_i b_i}, U - {a_i b_i c}."""
    a = [f"a{i + 1}" for i in range(n)]
    b = [f"b{i + 1}" for i in range(n)]
    names = a + b + ["c"]
    lines = ["ground: " + " ".join(names)]
    for i in range(n):
        for drop in ({a[i]}, {a[i], b[i]}, {a[i], b[i], "c"}):
            lines.append(" ".join(x for x in names if x not in drop) or ".")
    return "\n".join(lines) + "\n"


def labelset(es: ElementSet) -> str:
    return "".join(es.labels())


def labelsets(sets) -> set[str]:
    return {labelset(s) for s in sets}


def random_ib(rng: random.Random, n: int, m: int) -> ImplicationalBase:
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = []
    for _ in range(m):
        k = rng.choice((1, 1, 2, 2, 3))
        if k >= n:
            k = max(1, n - 1)
        premise = rng.sample(range(n), k)
        rest = [x for x in range(n) if x not in premise]
        pairs.append((sum(1 << i for i in premise), rng.choice(rest)))
    return ImplicationalBase.build(ground, pairs)


def random_standard_ib(
    rng: random.Random, max_n: int = 8, max_m: int = 12
) -> ImplicationalBase:
    while True:
        n = rng.randint(3, max_n)
        m = rng.randint(0, max_m)
        ib = random_ib(rng, n, m)
        if is_standard(ClosureContext.from_ib(ib))[0]:
            return ib


def random_standard_mi(rng: random.Random, max_n: int = 9) -> SetFamily:
    """Mi(cs) of a random standard closure system on 2..max_n elements: the
    meet-irreducibles of the system a few random sets generate."""
    while True:
        n = rng.randint(2, max_n)
        ground = GroundSet([str(i + 1) for i in range(n)])
        density = rng.choice((0.3, 0.5, 0.7))
        masks = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for _ in range(rng.randint(1, 2 * n))
        ]
        ctx = ClosureContext.from_mi(SetFamily.from_bits(ground, masks))
        if is_standard(ctx)[0]:
            return meet_irreducibles(ctx)


def random_mi(rng: random.Random, n: int, sets: int, density: float) -> SetFamily:
    """The bench's ``mi-random`` generator: ``sets`` random subsets of an
    n-element ground, each element kept with probability ``density``,
    reduced to their meet-irreducible members; redrawn until standard, at
    most 1,000 times, as some sizes are almost never standard."""
    ground = GroundSet([f"e{i + 1}" for i in range(n)])
    draws = 1000
    for _ in range(draws):
        masks = [
            sum(1 << i for i in range(n) if rng.random() < density)
            for _ in range(sets)
        ]
        distinct = sorted(set(masks))
        kept = []
        for m in distinct:
            meet = ground.full_mask
            for k in distinct:
                if k != m and m & ~k == 0:
                    meet &= k
            if meet != m:
                kept.append(m)
        family = SetFamily.from_bits(ground, kept)
        if is_standard(ClosureContext.from_mi(family))[0]:
            return family
    raise ValueError(
        f"no standard family in {draws} draws of {sets} sets over "
        f"{n} elements at density {density}"
    )


def random_binary_ib(rng: random.Random, n: int, m: int) -> ImplicationalBase:
    ground = GroundSet([str(i + 1) for i in range(n)])
    pairs = []
    for _ in range(m):
        a, c = rng.sample(range(n), 2)
        pairs.append((1 << a, c))
    return ImplicationalBase.build(ground, pairs)


def dual_pair_ok(
    binary_ib: ImplicationalBase, b_plus: SetFamily, b_minus: SetFamily
) -> bool:
    """Duality by definition: the filter of B- and the ideal of B+ partition cs^b."""
    ctx = ClosureContext.from_ib(binary_ib)
    downs = b_plus.bit_list()
    ups = b_minus.bit_list()
    for mask in closed_set_masks(ctx):
        in_ideal = any(mask & ~b == 0 for b in downs)
        in_filter = any(b & ~mask == 0 for b in ups)
        if in_ideal == in_filter:
            return False
    return True


def up_dual_by_enumeration(
    binary_ib: ImplicationalBase, b_minus: SetFamily
) -> SetFamily:
    """The antichain whose dual is B-: maximal closed sets containing no member."""
    ctx = ClosureContext.from_ib(binary_ib)
    ups = b_minus.bit_list()
    avoiding = [
        mask
        for mask in closed_set_masks(ctx)
        if not any(b & ~mask == 0 for b in ups)
    ]
    maximal = [
        m for m in avoiding if not any(m != k and m & ~k == 0 for k in avoiding)
    ]
    return SetFamily.from_bits(binary_ib.ground, maximal).canonicalize()


class DuplicateDetector:
    """Stream wrapper asserting nothing is yielded twice."""

    def __init__(self, stream, key=lambda item: item):
        self.stream = stream
        self.key = key
        self.seen = set()

    def __iter__(self):
        for item in self.stream:
            k = self.key(item)
            assert k not in self.seen, f"duplicate emission: {item!r}"
            self.seen.add(k)
            yield item


def bfs_d_generators_from(ib: ImplicationalBase, c: int, seed: ElementSet, order="size-label"):
    """Reachable D-generators within one target's solution graph, from a seed."""
    from dbase import build_reduced_base

    rb = build_reduced_base(ib, c, order=order)
    ctx_c = reduced_context(rb)
    visited = {seed.bits}
    queue = deque([seed])
    while queue:
        node = queue.popleft()
        for nxt in neighbors(rb, ctx_c, node):
            if nxt.bits not in visited:
                visited.add(nxt.bits)
                queue.append(nxt)
    return {ElementSet(ib.ground, b) for b in visited}


@pytest.fixture
def ex2_ib():
    return parse_ib(EX2_IB)


@pytest.fixture
def ex2_ctx(ex2_ib):
    return ClosureContext.from_ib(ex2_ib)


@pytest.fixture
def ex1_mi():
    return parse_set_family(EX1_MI)


@pytest.fixture
def ex5_ib():
    return parse_ib(EX5_IB)


@pytest.fixture
def ex8_ib():
    return parse_ib(EX8_DBASE)


@pytest.fixture
def ex8_mi():
    return parse_set_family(EX8_MI)


@pytest.fixture
def ex9_ib():
    return parse_ib(EX9_IB)
