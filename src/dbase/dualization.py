"""D-base from meet-irreducible elements via dualization in (cs^b, subset).

For each target c, the maximal meet-irreducibles omitting c form an antichain
whose dual in the distributive lattice cs^b consists of cl^b(c) plus the
cl^b-closures of the D-generators of c.  In a standard system cl^b(c) is the
one member holding c and every member is cl^b of its cl^b-minimal elements,
so each D-generator is read straight off the dual, unchecked.

The dualizer is a depth-first search over cl^b-closed sets in the style of
MMCS (Murakami and Uno, Discrete Applied Math. 2014).  Every edge, the
complement of a member of B+, is an up-set, and a closed set is the union of
the singleton closures of its tops, one element per cl^b-class: so a closed
set meets an edge exactly when a top does, and it is a minimal one meeting
every edge exactly when each top has a private edge, one the set meets only
inside that top's class.  Each level of the search adds one top and keeps
the branch only while every top keeps a private edge, so each minimal
transversal comes out once and nothing else does.  No family is stored: the
explicit stack holds one frame per top, at most |U| of them.

One run of the Mi route builds the Mi context, checks standardness, takes
the binary part and reads every element's up-arrows off one upper-cover
table, once; then it makes one dualization per element on that same
context: its singleton closures are those of cs^b, so its cl^b is the
closure of the binary part.  B+ is checked closed on each member's
complement, which for up-arrows is small.  An element's rows come out of
its one dualization together, and the CLI writes them in one batch.
Both reduction directions are provided; the embedding gadget marks its
fresh element with the reserved label ``_d``.
"""
from __future__ import annotations

from .closure import ClosureContext, binary_part
# Unused here, but perfbench's tracer wraps dbase.dualization.is_standard.
from .closure import is_standard  # noqa: F401
# Unused here, but perfbench's tracer wraps dbase.dualization.min_spanning_set.
from .closure import min_spanning_set  # noqa: F401
from .errors import MalformedGadget
from .lattice import _minimal_masks, _up_arrows, meet_irreducibles_distributive
# Unused here, but perfbench's tracer wraps dbase.dualization.up_arrow.
from .lattice import up_arrow  # noqa: F401
from .model import (
    RESERVED_DUAL_LABEL,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    SetFamily,
    _index_order_key,
    check_antichain_of_closed,
    iter_bits,
)
from .traversal import _require_standard


def _minimal_transversals(ctx: ClosureContext, edges: list[int]) -> list[int]:
    """The minimal cl^b-closed sets meeting every edge, each once, by a
    depth-first search over closed sets; every edge must be the complement
    of a closed set.

    Call y a top of a closed set T when no other member of T outside y's
    class holds y in its singleton closure; a class is the elements whose
    singleton closures hold each other, and only its lowest element, its
    representative, is ever taken as a top.  T is the union of cl^b(y) over
    its tops.  An edge F, the complement of a closed set, is an up-set:
    cl^b(y) meets F exactly when y lies in F.  So T meets F exactly when a
    top does, and T is minimal exactly when every top y has a private edge,
    one that T meets only inside y's class: removing that class leaves a
    closed set, and any smaller closed set misses some top's whole class.
    Both tests are masks over the edges: ``hit[y]`` holds the edges holding
    y, and ``own[y]`` those of them holding nothing strictly below y.  A top
    y added to T has as private edges those of ``own[y]`` that T left
    uncovered, and each earlier top keeps those of its private edges that
    miss y; an element with no ``own`` edge is never a candidate.

    Each level adds one top, drawn from the uncovered edge with the fewest
    candidates; the branch survives only while the new top, tested first
    as that costs one mask, and every earlier top keep a private edge.
    A branch's candidates lose the containers of its top, so no top lies
    below another, and later siblings lose the top, so no set comes out
    twice.  Every minimal transversal is reached: its tops form such a
    chain of branches, as a subset of its tops keeps every private edge.
    No family is stored: the explicit stack holds one frame per top, so
    its depth is at most the number of tops, and the ground's size is not
    bounded by the recursion limit.
    """
    if not edges:
        return [0]
    singleton_closure = ctx.singleton_closure
    containers = ctx.containers
    reps = ctx.representatives
    n = len(ctx.ground)
    hit = [0] * n
    own = [0] * n
    useful = 0
    for i, edge in enumerate(edges):
        bit = 1 << i
        for y in iter_bits(edge & reps):
            hit[y] |= bit
            if not edge & singleton_closure(y) & ~containers(y):
                own[y] |= bit
                useful |= 1 << y

    def frame(closed: int, uncovered: int, privates: list[int], cand: int) -> list:
        # A node's frame: its set, uncovered edges, the private edges of its
        # tops, its candidates, and the branches left to try, the candidates
        # in the uncovered edge with the fewest of them (each edge's lie in
        # cand, so cand bounds them all).
        branches = cand
        for i in iter_bits(uncovered):
            fewer = edges[i] & cand
            if fewer.bit_count() < branches.bit_count():
                branches = fewer
                if fewer.bit_count() < 2:
                    break
        return [closed, uncovered, privates, cand, branches]

    found: list[int] = []
    stack = [frame(0, (1 << len(edges)) - 1, [], useful)]
    while stack:
        node = stack[-1]
        closed, uncovered, privates, cand, branches = node
        if not branches:
            stack.pop()
            continue
        low = branches & -branches
        node[3] = cand ^ low
        node[4] = branches ^ low
        y = low.bit_length() - 1
        mine = own[y] & uncovered
        if not mine:
            continue
        covers = hit[y]
        kept = [p & ~covers for p in privates]
        if not all(kept):
            continue
        kept.append(mine)
        closed |= singleton_closure(y)
        uncovered &= ~covers
        if uncovered:
            stack.append(frame(closed, uncovered, kept, cand & ~containers(y)))
        else:
            found.append(closed)
    return found


def _is_binary_closed(ctx: ClosureContext, bits: int) -> bool:
    # cl^b(m) is the union of the singleton closures of m's elements, so m is
    # cl^b-closed iff no element y outside m lies in one, that is, iff no
    # container of y is in m.  A member of B+ misses few elements.
    return not any(ctx.containers(y) & bits for y in iter_bits(ctx.full_mask & ~bits))


def _checked_b_plus(b_plus: SetFamily, ctx: ClosureContext) -> tuple[int, ...]:
    # The masks of B+, checked to be an antichain of cl^b-closed sets over
    # ctx's ground: the one check of dualize_distributive and embed_dualization.
    return check_antichain_of_closed(b_plus, ctx.ground, lambda m: _is_binary_closed(ctx, m))


def dualize_distributive(
    binary_ib: ImplicationalBase,
    b_plus: SetFamily,
    ctx: ClosureContext | None = None,
) -> SetFamily:
    """The unique antichain dual to ``b_plus`` in the distributive lattice of
    ``binary_ib``: the minimal closed sets contained in no member of B+.

    Without ``ctx`` the base is checked to be binary and a context is built
    from it.  A caller that already holds a context whose cl^b is the closure
    of ``binary_ib`` (the Mi context of a run, for the run's binary part) may
    pass it; ``binary_ib`` is then trusted to be binary and only the context
    is used.  Either way B+ is checked to be an antichain of cl^b-closed
    sets, which for a binary base are its closed sets, since an empty
    premise is not binary.  The dual is an antichain, so it is sorted into
    canonical order with nothing to drop.
    """
    if ctx is None:
        binary_ib.require_binary()
        ctx = ClosureContext.from_ib(binary_ib)
    uppers = _checked_b_plus(b_plus, ctx)
    edges = [ctx.full_mask & ~m for m in uppers]
    dual = sorted(_minimal_transversals(ctx, edges), key=_index_order_key)
    return SetFamily.from_bits(binary_ib.ground, dual)


def _mi_context(mi: SetFamily) -> tuple[ClosureContext, ImplicationalBase]:
    # The Mi context, checked standard, and its binary part.
    ctx = ClosureContext.from_mi(mi)
    _require_standard(ctx)
    return ctx, binary_part(ctx)


def _d_generator_masks(
    ctx: ClosureContext, bp: ImplicationalBase, ups: list[int], c: int
) -> list[int]:
    # genD(c) as masks, sorted by closure mask, from the dual of the
    # up-arrows ``ups`` of c, read off unchecked, as the Mi context ``ctx``
    # (whose cl^b is that of cs^b) is standard:
    # (1) cl^b(c) is the one dual member holding c.  It lies in no member of
    #     c-up, so some dual member X lies below it; X omitting c would lie in
    #     the closed set cl(c) - c, a meet of members one of which omits c, so
    #     below a member of c-up.  Any member holding c contains cl^b(c), so
    #     by minimality equals it.
    # (2) Each member is cl^b of its minimal elements.  b in cl(a) - a with a
    #     in cl(b) would put a in the closed set cl(a) - a, so "x in cl(y)" is
    #     a partial order, and a member, a union of singleton closures, is a
    #     down-set of it: the down-closure of its top (minimal) elements.
    dual = dualize_distributive(bp, SetFamily.from_bits(ctx.ground, ups), ctx)
    return [ctx.minimal_elements(m) for m in sorted(dual.masks) if not m >> c & 1]


def d_generators_from_mi(mi: SetFamily, c: int) -> list[ElementSet]:
    """genD(c) from the meet-irreducible elements, via one dualization.

    Dualize the up-arrows of c inside cs^b, drop the member cl^b(c) (the only
    one containing c), and map every remaining closure to its minimal
    elements, its unique minimal spanning set.  Both steps go unchecked, as
    the checked standardness implies them.  Empty exactly when c is join-prime.
    """
    mi.ground.require_target(c)
    ctx, bp = _mi_context(mi)
    kernels = _d_generator_masks(ctx, bp, _up_arrows(mi)[c], c)
    return [ElementSet(mi.ground, k) for k in kernels]


def d_base_from_mi(mi: SetFamily) -> ImplicationalBase:
    """The D-base of a standard closure system given by Mi(cs)."""
    return ImplicationalBase(mi.ground, list(iter_d_base_from_mi(mi))).canonicalize()


def iter_d_base_from_mi(mi: SetFamily):
    """Streaming variant: binary part first, then per-element dualizations."""
    for batch in _d_base_batches_from_mi(mi):
        yield from batch


def _d_base_batches_from_mi(mi: SetFamily):
    # The rows of iter_d_base_from_mi, each nonempty batch as soon as it is
    # found: the binary part, then each element's rows, which come out of
    # one dualization together.  The Mi context, the standardness check, the
    # binary part and every element's up-arrows are computed once per run.
    # Distinct closures have distinct minimal spanning sets, so no
    # (D-generator, target) pair comes out twice.
    ctx, bp = _mi_context(mi)
    arrows = _up_arrows(mi)
    if bp.implications:
        yield bp.implications
    for c, ups in enumerate(arrows):
        kernels = _d_generator_masks(ctx, bp, ups, c)
        if kernels:
            yield [Implication(ElementSet(mi.ground, k), c) for k in kernels]


def embed_dualization(binary_ib: ImplicationalBase, b_plus: SetFamily) -> SetFamily:
    """Meet-irreducibles of the gadget system over U plus the fresh element:
    Mi(cs') = B+ union {M union {_d} | M in Mi(cs)}.  B+ is checked as
    :func:`dualize_distributive` checks it."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    mi = meet_irreducibles_distributive(binary_ib, ctx)
    uppers = _checked_b_plus(b_plus, ctx)
    ground2 = GroundSet(binary_ib.ground.names + (RESERVED_DUAL_LABEL,))
    dbit = 1 << len(binary_ib.ground)
    masks = list(uppers) + [m | dbit for m in mi.masks]
    return SetFamily.from_bits(ground2, masks).canonicalize()


def recover_dual_from_dbase(
    dbase_prime: ImplicationalBase, mi_prime: SetFamily
) -> SetFamily:
    """Recover B- from the gadget's D-base and meet-irreducibles.

    ``dbase_prime`` must be the whole D-base of the gadget, binary rows
    included.  B- is the set of minimal closures cl'(P), less the fresh
    element, over the rows P -> fresh element.  The D-basis is ordered
    direct, so a minimal closed set X whose closure gains the fresh element
    gains it from one row whose premise lies in X, and X is that premise's
    closure.
    """
    ground2 = dbase_prime.ground
    if ground2 != mi_prime.ground:
        raise MalformedGadget("D-base and meet-irreducibles use different grounds")
    if RESERVED_DUAL_LABEL not in ground2.index:
        raise MalformedGadget(f"missing the reserved element {RESERVED_DUAL_LABEL!r}")
    d = ground2.position(RESERVED_DUAL_LABEL)
    dbit = 1 << d
    ctx = ClosureContext.from_mi(mi_prime)
    closures = [ctx.close_bits(i.premise.bits) for i in dbase_prime if i.conclusion == d]
    recovered = _minimal_masks([m & ~dbit for m in closures])
    names = tuple(n for n in ground2.names if n != RESERVED_DUAL_LABEL)
    ground = GroundSet(names)
    low = dbit - 1
    remapped = [(m & low) | ((m >> 1) & ~low) for m in recovered]
    return SetFamily.from_bits(ground, remapped).canonicalize()
