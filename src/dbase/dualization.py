"""D-base from meet-irreducible elements via dualization in (cs^b, subset).

For each target c, the maximal meet-irreducibles omitting c form an antichain
whose dual in the distributive lattice cs^b consists of cl^b(c) plus the
cl^b-closures of the D-generators of c.  In a standard system cl^b(c) is the
one member holding c and every member is cl^b of its cl^b-minimal elements,
so each D-generator is read straight off the dual, unchecked.

The dualizer is Berge multiplication carried out on the lattice: the
minimal closed sets meeting every complement of B+ are grown one edge at a
time, each transversal that misses the edge multiplied by the singleton
closures cl^b(b) of the edge's elements.  cl^b is a union of singleton
closures, so every product is closed and the family stays an antichain of
closed sets; only the new products need absorbing.  A product's part in the
edge is its multiplier's, and a set inside the product has its part in the
edge inside that one, so each product is tested only against the members
whose part in the edge lies inside its own.  Equal parts would not do: a
product may lie inside another whose multiplier's part is larger.

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

from .closure import ClosureContext, binary_part, is_standard
# Unused here, but perfbench's tracer wraps dbase.dualization.min_spanning_set.
from .closure import min_spanning_set  # noqa: F401
from .errors import MalformedGadget, NotStandard
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


def _minimal_transversals(ctx: ClosureContext, edges: list[int]) -> list[int]:
    """The minimal cl^b-closed sets meeting every edge, by Berge
    multiplication over closed sets.

    A closed set meeting the edges so far contains some member T of the
    family; if T misses the next edge E, it also holds cl^b(b) for some b in
    E, so it contains the product T | cl^b(b), which is closed.  Members
    meeting E are kept unchecked: a kept K containing a product would
    strictly contain T, and the family is an antichain.  Products are
    absorbed against the kept members and each other, smallest first.

    As T misses E, a product's part in E is that of its multiplier,
    cl^b(b) & E, and a set inside the product has its part in E inside that
    part.  So a product is tested only against the kept members and accepted
    products whose part in E lies inside its own: one candidate list per
    distinct part, at most |E| lists per edge.  The test is inclusion of the
    parts, not their equality: a product q inside p may have a multiplier
    whose part is smaller than p's.  When at most one member misses E there
    are at most |E| products, no more than the lists would number, so they
    are scanned against every candidate instead.
    """
    family = [0]
    for edge in edges:
        kept = [t for t in family if t & edge]
        missing = [t for t in family if not t & edge]
        singles = [ctx.singleton_closure(b) for b in iter_bits(edge)]
        products = sorted({t | s for t in missing for s in singles}, key=int.bit_count)
        fresh: list[int] = []
        if len(missing) <= 1:
            for p in products:
                if not any(k & ~p == 0 for k in kept) and not any(
                    q & ~p == 0 for q in fresh
                ):
                    fresh.append(p)
        else:
            parts = {s & edge for s in singles}
            # part -> the kept members, then the accepted products, inside it
            inside = {v: [k for k in kept if k & edge & ~v == 0] for v in parts}
            # part -> the candidate lists of the parts holding it
            holders = {w: [inside[v] for v in parts if w & ~v == 0] for w in parts}
            for p in products:
                part = p & edge
                if not any(c & ~p == 0 for c in inside[part]):
                    fresh.append(p)
                    for candidates in holders[part]:
                        candidates.append(p)
        family = kept + fresh
    return family


def _is_binary_closed(ctx: ClosureContext, bits: int) -> bool:
    # cl^b(m) is the union of the singleton closures of m's elements, so m is
    # cl^b-closed iff no element y outside m lies in one, that is, iff no
    # container of y is in m.  A member of B+ misses few elements.
    return not any(ctx.containers(y) & bits for y in iter_bits(ctx.full_mask & ~bits))


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
    uppers = check_antichain_of_closed(
        b_plus, ctx.ground, lambda m: _is_binary_closed(ctx, m)
    )
    edges = [ctx.full_mask & ~m for m in uppers]
    dual = sorted(_minimal_transversals(ctx, edges), key=_index_order_key)
    return SetFamily.from_bits(binary_ib.ground, dual)


def _mi_context(mi: SetFamily) -> tuple[ClosureContext, ImplicationalBase]:
    # The Mi context, checked standard, and its binary part.
    ctx = ClosureContext.from_mi(mi)
    std, witness = is_standard(ctx)
    if not std:
        raise NotStandard(
            f"cl({mi.ground.label(witness)}) minus itself is not closed"
        )
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
    return [ctx.minimal_elements(m) for m in sorted(dual.bit_list()) if not m >> c & 1]


def d_generators_from_mi(mi: SetFamily, c: int) -> list[ElementSet]:
    """genD(c) from the meet-irreducible elements, via one dualization.

    Dualize the up-arrows of c inside cs^b, drop the member cl^b(c) (the only
    one containing c), and map every remaining closure to its minimal
    elements, its unique minimal spanning set.  Both steps go unchecked, as
    the checked standardness implies them.  Empty exactly when c is join-prime.
    """
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
    Mi(cs') = B+ union {M union {_d} | M in Mi(cs)}."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    mi = meet_irreducibles_distributive(binary_ib, ctx)
    uppers = check_antichain_of_closed(
        b_plus, ctx.ground, lambda m: ctx.close_bits(m) == m
    )
    ground2 = GroundSet(binary_ib.ground.names + (RESERVED_DUAL_LABEL,))
    dbit = 1 << len(binary_ib.ground)
    masks = list(uppers) + [m | dbit for m in mi.bit_list()]
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
