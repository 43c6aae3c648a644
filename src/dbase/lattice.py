"""Closed-set enumeration, meet-irreducibles, arrows, and the two relations.

Everything here except ``meet_irreducibles_distributive`` walks the closed-set
lattice and is gated by a desk-scale ground size limit.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
        found = False
        work = current
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if work & bit:
                work &= ~bit
            else:
                candidate = ctx.close_bits(work | bit)
                if not (candidate & ~work) & (bit - 1):
                    current = candidate
                    found = True
                    break
        if not found:
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


def _maximal_masks(masks: list[int]) -> list[int]:
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if not any(m & ~kept == 0 for kept in out):
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
        # Upper covers are the minimal closures obtained by one-element jumps.
        above = [ctx.close_bits(mask | 1 << a) for a in iter_bits(full & ~mask)]
        if len(_minimal_masks(above)) == 1:
            mis.append(mask)
    return SetFamily.from_bits(ctx.ground, mis).canonicalize()


def meet_irreducibles_distributive(binary_ib: ImplicationalBase) -> SetFamily:
    """Mi of a distributive system from a binary base, by the direct formula
    Mi(cs) = {{c | a not in cl(c)} | a in U}."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    n = len(binary_ib.ground)
    masks = []
    for a in range(n):
        masks.append(
            sum(1 << c for c in range(n) if not ctx.singleton_closure(c) >> a & 1)
        )
    return SetFamily.from_bits(binary_ib.ground, masks).canonicalize()


def up_arrow(mi: SetFamily, a: int) -> SetFamily:
    """Maximal members of the family omitting ``a`` (the M with a up-arrow M)."""
    omitting = [m for m in mi.bit_list() if not m >> a & 1]
    return SetFamily.from_bits(mi.ground, _maximal_masks(omitting)).canonicalize()


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
    arcs = set()
    for c in range(len(mi.ground)):
        ups = up_arrow(mi, c).bit_list()
        for a in range(len(mi.ground)):
            if a == c:
                continue
            body = ctx.singleton_closure(a) & ~(1 << a)
            if any(not m >> a & 1 and body & ~m == 0 for m in ups):
                arcs.add((c, a))
    return Relation(mi.ground, arcs)


def _digraph_has_cycle(n: int, succ: list[list[int]]) -> bool:
    color = [0] * n  # 0 unseen, 1 on stack, 2 done
    for start in range(n):
        if color[start]:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        color[start] = 1
        while stack:
            node, i = stack.pop()
            if i < len(succ[node]):
                stack.append((node, i + 1))
                nxt = succ[node][i]
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
            else:
                color[node] = 2
    return False


def _relation_has_cycle(rel: Relation) -> bool:
    n = len(rel.ground)
    succ: list[list[int]] = [[] for _ in range(n)]
    for c, a in rel.arcs:
        succ[c].append(a)
    return _digraph_has_cycle(n, succ)


def implication_graph_acyclic(ib: ImplicationalBase) -> bool:
    """Acyclicity of G(Sigma): arcs a -> c for a in a premise concluding c."""
    n = len(ib.ground)
    succ: list[set[int]] = [set() for _ in range(n)]
    for imp in ib:
        for a in imp.premise:
            succ[a].add(imp.conclusion)
    return not _digraph_has_cycle(n, [sorted(s) for s in succ])


@dataclass(frozen=True)
class Classification:
    is_acyclic: bool
    is_lower_bounded: bool
    graph_acyclic: bool


def classify(
    ib: ImplicationalBase, *, max_ground: int = DESK_MAX_GROUND
) -> Classification:
    """Acyclicity of delta and D (computed from Mi at desk scale) plus G(Sigma)."""
    ctx = ClosureContext.from_ib(ib)
    mi = meet_irreducibles(ctx, max_ground=max_ground)
    return Classification(
        is_acyclic=not _relation_has_cycle(delta_relation(mi)),
        is_lower_bounded=not _relation_has_cycle(d_relation(mi, ctx)),
        graph_acyclic=implication_graph_acyclic(ib),
    )
