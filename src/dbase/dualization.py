"""D-base from meet-irreducible elements via dualization in (cs^b, subset).

For each target c, the maximal meet-irreducibles omitting c form an antichain
whose dual in the distributive lattice cs^b consists of cl^b(c) plus the
cl^b-closures of the D-generators of c.  In cs^b the unique minimal spanning
set of a closed set is its set of cl^b-minimal elements, so each D-generator
is read straight off its closure.

The dualizer is Berge multiplication carried out on the lattice: the
minimal closed sets meeting every complement of B+ are grown one edge at a
time, each transversal that misses the edge multiplied by the singleton
closures cl^b(b) of the edge's elements.  cl^b is a union of singleton
closures, so every product is closed and the family stays an antichain of
closed sets; only the new products need absorbing.  One run of the Mi route
builds the Mi context, checks standardness and takes the binary part once,
then makes one dualization per element on that same context: the Mi
context's singleton closures are those of cs^b, so its cl^b is the closure
of the binary part and no context is built per element.  Both reduction
directions are provided; the embedding gadget marks its fresh element with
the reserved label ``_d``.
"""
from __future__ import annotations

from .closure import ClosureContext, binary_part, is_standard
# Unused here (spanning sets are read off cl^b directly), but perfbench's
# traced run wraps ``dbase.dualization.min_spanning_set``.
from .closure import min_spanning_set  # noqa: F401
from .errors import MalformedGadget, NotSpanning, NotStandard
from .lattice import _minimal_masks, meet_irreducibles_distributive, up_arrow
from .model import (
    RESERVED_DUAL_LABEL,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    SetFamily,
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
    """
    family = [0]
    for edge in edges:
        if edge == 0:
            return []
        kept = [t for t in family if t & edge]
        singles = [ctx.singleton_closure(b) for b in iter_bits(edge)]
        products = {t | s for t in family if not t & edge for s in singles}
        fresh: list[int] = []
        for p in sorted(products, key=int.bit_count):
            if not any(k & ~p == 0 for k in kept) and not any(
                q & ~p == 0 for q in fresh
            ):
                fresh.append(p)
        family = kept + fresh
    return family


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
    premise is not binary.
    """
    if ctx is None:
        binary_ib.require_binary()
        ctx = ClosureContext.from_ib(binary_ib)
    uppers = check_antichain_of_closed(b_plus, ctx.ground, ctx.close_binary_bits)
    edges = [ctx.full_mask & ~m for m in uppers]
    return SetFamily.from_bits(
        binary_ib.ground, _minimal_transversals(ctx, edges)
    ).canonicalize()


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
    ctx: ClosureContext, bp: ImplicationalBase, mi: SetFamily, c: int
) -> list[int]:
    # genD(c) as masks, sorted by closure mask; ``ctx`` is the Mi context,
    # whose singleton closures are those of cs^b, so the dualizer runs on it.
    dual = dualize_distributive(bp, up_arrow(mi, c), ctx)
    cbit = 1 << c
    rest = [m for m in dual.bit_list() if not m & cbit]
    if len(rest) != len(dual) - 1:
        raise NotStandard(
            f"dual antichain of {mi.ground.label(c)!r} lacks the closure of the element"
        )
    out = []
    for m in sorted(rest):
        # The minimal spanning set of a closed F in cs^b: its minimal elements.
        kernel = ctx.minimal_elements(m)
        if ctx.close_binary_bits(kernel) != m:
            raise NotSpanning(
                f"minimal elements of {ElementSet(mi.ground, m)!r} do not span it"
            )
        out.append(kernel)
    return out


def d_generators_from_mi(mi: SetFamily, c: int) -> list[ElementSet]:
    """genD(c) from the meet-irreducible elements, via one dualization.

    Dualize the up-arrows of c inside cs^b, drop the member cl^b(c) (the only
    one containing c), and map every remaining closure to its unique minimal
    spanning set.  Empty exactly when c is join-prime.
    """
    ctx, bp = _mi_context(mi)
    masks = _d_generator_masks(ctx, bp, mi, c)
    return [ElementSet(mi.ground, k) for k in masks]


def d_base_from_mi(mi: SetFamily) -> ImplicationalBase:
    """The D-base of a standard closure system given by Mi(cs)."""
    return ImplicationalBase(mi.ground, list(iter_d_base_from_mi(mi))).canonicalize()


def iter_d_base_from_mi(mi: SetFamily):
    """Streaming variant: binary part first, then per-element dualizations.

    The Mi context, the standardness check and the binary part are computed
    once per run.  Distinct closures have distinct minimal spanning sets, so
    no (D-generator, target) pair comes out twice.
    """
    ctx, bp = _mi_context(mi)
    yield from bp
    for c in range(len(mi.ground)):
        for kernel in _d_generator_masks(ctx, bp, mi, c):
            yield Implication(ElementSet(mi.ground, kernel), c)


def embed_dualization(binary_ib: ImplicationalBase, b_plus: SetFamily) -> SetFamily:
    """Meet-irreducibles of the gadget system over U plus the fresh element:
    Mi(cs') = B+ union {M union {_d} | M in Mi(cs)}."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    uppers = check_antichain_of_closed(b_plus, ctx.ground, ctx.close_bits)
    mi = meet_irreducibles_distributive(binary_ib)
    ground2 = GroundSet(binary_ib.ground.names + (RESERVED_DUAL_LABEL,))
    dbit = 1 << len(binary_ib.ground)
    masks = list(uppers) + [m | dbit for m in mi.bit_list()]
    return SetFamily.from_bits(ground2, masks).canonicalize()


def recover_dual_from_dbase(
    dbase_prime: ImplicationalBase, mi_prime: SetFamily
) -> SetFamily:
    """Recover B- from the gadget's D-base and meet-irreducibles.

    Closures of the non-binary premises concluding the fresh element give most
    of B-; the rest are closures of the cl'^b-minimal elements a with the
    fresh element in cl'(a) not covered by any such premise.
    """
    ground2 = dbase_prime.ground
    if ground2 != mi_prime.ground:
        raise MalformedGadget("D-base and meet-irreducibles use different grounds")
    if RESERVED_DUAL_LABEL not in ground2.index:
        raise MalformedGadget(f"missing the reserved element {RESERVED_DUAL_LABEL!r}")
    d = ground2.position(RESERVED_DUAL_LABEL)
    dbit = 1 << d
    ctx = ClosureContext.from_mi(mi_prime)
    keys = [
        imp.premise.bits
        for imp in dbase_prime
        if imp.conclusion == d and not imp.is_binary
    ]
    if any(k & dbit for k in keys):
        raise MalformedGadget("a premise concluding the fresh element contains it")
    recovered = {ctx.close_bits(k) & ~dbit for k in keys}
    candidates = [
        a
        for a in range(len(ground2))
        if a != d
        and ctx.singleton_closure(a) & dbit
        and all(k & ~ctx.singleton_closure(a) for k in keys)
    ]
    minimal_closures = _minimal_masks([ctx.singleton_closure(a) for a in candidates])
    recovered.update(m & ~dbit for m in minimal_closures)
    names = tuple(n for n in ground2.names if n != RESERVED_DUAL_LABEL)
    ground = GroundSet(names)
    low = dbit - 1
    remapped = [(m & low) | ((m >> 1) & ~low) for m in sorted(recovered)]
    return SetFamily.from_bits(ground, remapped).canonicalize()
