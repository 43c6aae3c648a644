"""Closed-set enumeration, meet-irreducibles, arrows, and the two relations.

``meet_irreducibles`` walks the closed-set lattice, gated by a desk-scale
ground size; the arrows and relations read Mi alone.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator

from .closure import ClosureContext
from .errors import GroundTooLarge
from .model import (
    ImplicationalBase,
    Relation,
    SetFamily,
    _index_order_key,
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


def meet_irreducibles_distributive(
    binary_ib: ImplicationalBase, ctx: ClosureContext | None = None
) -> SetFamily:
    """Mi of a distributive system from a binary base, by the direct formula
    Mi(cs) = {{c | a not in cl(c)} | a in U}.

    Without ``ctx`` the base is checked to be binary and a context is built
    from it; a caller already holding both may pass the base's context.
    """
    if ctx is None:
        binary_ib.require_binary()
        ctx = ClosureContext.from_ib(binary_ib)
    masks = [ctx.full_mask & ~ctx.containers(a) for a in range(len(binary_ib.ground))]
    return SetFamily.from_bits(binary_ib.ground, masks).canonicalize()


def _up_arrows(mi: SetFamily) -> list[list[int]]:
    """Every element's up-arrows: entry c lists the maximal members of the
    family omitting c, in canonical order, read off one upper-cover table.

    The table pairs each distinct member M, in canonical order, with the
    elements outside M but inside M*, the meet of the members strictly above
    M (the ground when there are none).  M is maximal among the members
    omitting c exactly when every member above it holds c, so these are the
    c with c up-arrow M (Ganter & Wille, Formal Concept Analysis, 1999).
    """
    masks = sorted(set(mi.masks), key=_index_order_key)
    full = mi.ground.full_mask
    table = []
    for m in masks:
        star = full
        for o in masks:
            if m & ~o == 0 and o != m:
                star &= o
        table.append((m, star & ~m))
    return [
        [m for m, arrows in table if arrows >> c & 1] for c in range(len(mi.ground))
    ]


def up_arrow(mi: SetFamily, a: int) -> SetFamily:
    """Maximal members of the family omitting ``a`` (the M with a up-arrow M)."""
    return SetFamily.from_bits(mi.ground, _up_arrows(mi)[a])


def down_arrow(mi: SetFamily, a: int) -> SetFamily:
    """Members omitting ``a`` but containing cl(a) minus a (M down-arrow a);
    cl(a) is the meet of the members holding a."""
    masks = mi.masks
    body = mi.ground.full_mask & ~(1 << a)
    for m in masks:
        if m >> a & 1:
            body &= m
    hits = [m for m in masks if not m >> a & 1 and body & ~m == 0]
    return SetFamily.from_bits(mi.ground, hits).canonicalize()


def delta_relation(mi: SetFamily) -> Relation:
    """c delta a: some meet-irreducible M has c up-arrow M and a outside M."""
    full = mi.ground.full_mask
    arcs = set()
    for c, ups in enumerate(_up_arrows(mi)):
        for m in ups:
            for a in iter_bits(full & ~m & ~(1 << c)):
                arcs.add((c, a))
    return Relation(mi.ground, arcs)


def d_relation(mi: SetFamily) -> Relation:
    """c D a: some meet-irreducible M has c up-arrow M down-arrow a."""
    n = len(mi.ground)
    downs = [set(down_arrow(mi, a).masks) for a in range(n)]
    arcs = set()
    for c, ups in enumerate(_up_arrows(mi)):
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
    mi = meet_irreducibles(ClosureContext.from_ib(ib), max_ground=max_ground)
    n = len(ib.ground)
    return Classification(
        is_acyclic=longest_path(n, delta_relation(mi).arcs) is not None,
        is_lower_bounded=longest_path(n, d_relation(mi).arcs) is not None,
        graph_acyclic=implication_graph_acyclic(ib),
    )
