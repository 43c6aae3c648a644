"""Closed-set enumeration, meet-irreducibles, arrows, and the two relations.

Everything here except ``meet_irreducibles_distributive`` walks the closed-set
lattice and is gated by a desk-scale ground size limit.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .closure import ClosureContext
from .errors import GroundTooLarge
from .model import (
    ElementSet,
    ImplicationalBase,
    Relation,
    SetFamily,
    iter_bits,
)

DESK_MAX_GROUND = 20


def _require_desk_scale(n: int, max_ground: int) -> None:
    if n > max_ground:
        raise GroundTooLarge(f"{n} elements exceeds desk-scale maximum {max_ground}")


def closed_set_masks(ctx: ClosureContext) -> Iterator[int]:
    """All closed sets as bitmasks, in lectic order (NextClosure)."""
    n = len(ctx.ground)
    current = ctx.close_bits(0)
    yield current
    full = ctx.full_mask
    while current != full:
        work = current
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work &= ~bit
            else:
                candidate = ctx.close_bits(work | bit)
                if not (candidate & ~work) & (bit - 1):
                    current = candidate
                    break
        else:
            return
        yield current


def enumerate_closed_sets(
    ctx: ClosureContext, *, max_ground: int = DESK_MAX_GROUND
) -> Iterator[ElementSet]:
    """Every closed set exactly once, in lectic order."""
    _require_desk_scale(len(ctx.ground), max_ground)
    for mask in closed_set_masks(ctx):
        yield ElementSet(ctx.ground, mask)


def _minimal_masks(masks: list[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not any(kept & ~m == 0 for kept in out):
            out.append(m)
    return out


def meet_irreducibles(
    ctx: ClosureContext, *, max_ground: int = DESK_MAX_GROUND
) -> SetFamily:
    """Mi(cs): the closed sets other than U with exactly one upper cover."""
    _require_desk_scale(len(ctx.ground), max_ground)
    full = ctx.full_mask
    mis: list[int] = []
    for mask in closed_set_masks(ctx):
        if mask == full:
            continue
        # M is meet-irreducible exactly when the meet of its one-element
        # extensions cl(M + a) is not M: a unique upper cover lies inside
        # every extension, and two distinct upper covers meet in M.
        meet = full
        for a in iter_bits(full & ~mask):
            meet &= ctx.close_bits(mask | 1 << a)
        if meet != mask:
            mis.append(mask)
    return SetFamily.from_bits(ctx.ground, mis).canonicalize()


def meet_irreducibles_distributive(binary_ib: ImplicationalBase) -> SetFamily:
    """Mi of a distributive system from a binary base, by the direct formula
    Mi(cs) = {{c | a not in cl(c)} | a in U}."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    masks = [ctx.full_mask & ~ctx.containers(a) for a in range(len(binary_ib.ground))]
    return SetFamily.from_bits(binary_ib.ground, masks).canonicalize()


def up_arrow(mi: SetFamily, a: int) -> SetFamily:
    """Maximal members of the family omitting ``a`` (the M with a up-arrow M)."""
    # The maximal members are the complements of the minimal complements.
    full = mi.ground.full_mask
    omitted = [full & ~m for m in mi.bit_list() if not m >> a & 1]
    maximal = [full & ~m for m in _minimal_masks(omitted)]
    return SetFamily.from_bits(mi.ground, maximal).canonicalize()


def down_arrow(mi: SetFamily, a: int, ctx: ClosureContext) -> SetFamily:
    """Members omitting ``a`` but containing cl(a) minus a (M down-arrow a)."""
    body = ctx.singleton_closure(a) & ~(1 << a)
    hits = [m for m in mi.bit_list() if not m >> a & 1 and body & ~m == 0]
    return SetFamily.from_bits(mi.ground, hits).canonicalize()


def delta_relation(mi: SetFamily) -> Relation:
    """c delta a: some meet-irreducible M has c up-arrow M and a outside M."""
    full = mi.ground.full_mask
    arcs = set()
    for c in range(len(mi.ground)):
        for m in up_arrow(mi, c).bit_list():
            for a in iter_bits(full & ~m & ~(1 << c)):
                arcs.add((c, a))
    return Relation(mi.ground, arcs)


def d_relation(mi: SetFamily, ctx: ClosureContext) -> Relation:
    """c D a: some meet-irreducible M has c up-arrow M down-arrow a."""
    n = len(mi.ground)
    downs = [set(down_arrow(mi, a, ctx).bit_list()) for a in range(n)]
    arcs = set()
    for c in range(n):
        ups = up_arrow(mi, c).bit_list()
        arcs.update((c, a) for a in range(n) if a != c and not downs[a].isdisjoint(ups))
    return Relation(mi.ground, arcs)


def longest_path(n: int, arcs: Iterable[tuple[int, int]]) -> int | None:
    """Number of arcs on a longest path of the digraph on ``range(n)``, or
    None if it has a cycle: Kahn's topological order with a depth per node."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        succ[u].append(v)
        indeg[v] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    depth = [0] * n
    for u in order:  # grows while it is read
        for v in succ[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < n:
        return None
    return max(depth, default=0)


def implication_graph_acyclic(ib: ImplicationalBase) -> bool:
    """Acyclicity of G(Sigma): arcs a -> c for a in a premise concluding c."""
    arcs = {(a, imp.conclusion) for imp in ib for a in imp.premise}
    return longest_path(len(ib.ground), arcs) is not None


Classification = namedtuple(
    "Classification", "is_acyclic is_lower_bounded graph_acyclic"
)


def classify(
    ib: ImplicationalBase, *, max_ground: int = DESK_MAX_GROUND
) -> Classification:
    """Acyclicity of delta and D (computed from Mi at desk scale) plus G(Sigma)."""
    ctx = ClosureContext.from_ib(ib)
    mi = meet_irreducibles(ctx, max_ground=max_ground)
    n = len(ib.ground)
    return Classification(
        is_acyclic=longest_path(n, delta_relation(mi).arcs) is not None,
        is_lower_bounded=longest_path(n, d_relation(mi, ctx).arcs) is not None,
        graph_acyclic=implication_graph_acyclic(ib),
    )
