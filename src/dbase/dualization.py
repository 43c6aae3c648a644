"""D-base from meet-irreducible elements via dualization in (cs^b, subset).

For each target c, the maximal meet-irreducibles omitting c form an antichain
whose dual in the distributive lattice cs^b consists of cl^b(c) plus the
cl^b-closures of the D-generators of c; mapping each of those closures back
to its unique minimal spanning set yields genD(c).  The dualizer itself is an
exact desk-scale routine: minimal hypergraph transversals of the complements
(Berge multiplication with absorption), closed under cl^b and filtered to
inclusion-minimal closures.  Both reduction directions are provided; the
embedding gadget marks its fresh element with the reserved label ``_d``.
"""
from __future__ import annotations

from .closure import ClosureContext, binary_part, is_standard, min_spanning_set
from .errors import (
    MalformedGadget,
    NotAntichain,
    NotClosed,
    NotStandard,
)
from .lattice import _minimal_masks, meet_irreducibles_distributive, up_arrow
from .model import (
    RESERVED_DUAL_LABEL,
    ElementSet,
    GroundSet,
    Implication,
    ImplicationalBase,
    SetFamily,
    iter_bits,
)


def up_antichain(mi: SetFamily, c: int) -> SetFamily:
    """The antichain {M in Mi | c up-arrow M} (maximal members omitting c)."""
    return up_arrow(mi, c)


def _check_antichain_of_closed(ctx: ClosureContext, b_plus: SetFamily) -> list[int]:
    masks = b_plus.bit_list()
    for m in masks:
        if ctx.close_bits(m) != m:
            raise NotClosed(f"{ElementSet(ctx.ground, m)!r} is not closed")
    for i, m in enumerate(masks):
        for k in masks[i + 1 :]:
            if m & ~k == 0 or k & ~m == 0:
                raise NotAntichain(
                    f"{ElementSet(ctx.ground, m)!r} and {ElementSet(ctx.ground, k)!r} are comparable"
                )
    return masks


def _minimal_transversals(edges: list[int]) -> list[int]:
    """Berge multiplication with absorption; edges and transversals are masks."""
    transversals = [0]
    for edge in edges:
        if edge == 0:
            return []
        nxt = [t for t in transversals if t & edge]
        for t in transversals:
            if t & edge:
                continue
            nxt.extend(t | 1 << b for b in iter_bits(edge))
        transversals = _minimal_masks(nxt)
    return transversals


def dualize_distributive(binary_ib: ImplicationalBase, b_plus: SetFamily) -> SetFamily:
    """The unique antichain dual to ``b_plus`` in the distributive lattice of
    ``binary_ib``: the minimal closed sets contained in no member of B+."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    uppers = _check_antichain_of_closed(ctx, b_plus)
    full = ctx.full_mask
    edges = [full & ~m for m in uppers]
    closures = {ctx.close_bits(t) for t in _minimal_transversals(edges)}
    return SetFamily.from_bits(
        binary_ib.ground, _minimal_masks(list(closures))
    ).canonicalize()


def _binary_base_from_mi(mi: SetFamily) -> ImplicationalBase:
    return binary_part(ClosureContext.from_mi(mi))


def d_generators_from_mi(mi: SetFamily, c: int) -> list[ElementSet]:
    """genD(c) from the meet-irreducible elements, via one dualization.

    Dualize the up-arrows of c inside cs^b, drop the member cl^b(c) (the only
    one containing c), and map every remaining closure to its unique minimal
    spanning set.  Empty exactly when c is join-prime.
    """
    ctx = ClosureContext.from_mi(mi)
    bp = binary_part(ctx)
    dual = dualize_distributive(bp, up_antichain(mi, c))
    ctx_b = ClosureContext.from_ib(bp)
    cbit = 1 << c
    rest = [m for m in dual.bit_list() if not m & cbit]
    if len(rest) != len(dual) - 1:
        raise NotStandard(
            f"dual antichain of {mi.ground.label(c)!r} lacks the closure of the element"
        )
    return [
        min_spanning_set(ctx_b, ElementSet(mi.ground, m)) for m in sorted(rest)
    ]


def d_base_from_mi(mi: SetFamily) -> ImplicationalBase:
    """The D-base of a standard closure system given by Mi(cs)."""
    return ImplicationalBase(mi.ground, list(iter_d_base_from_mi(mi))).canonicalize()


def iter_d_base_from_mi(mi: SetFamily):
    """Streaming variant: binary part first, then per-element dualizations."""
    ctx = ClosureContext.from_mi(mi)
    std, witness = is_standard(ctx)
    if not std:
        raise NotStandard(
            f"cl({mi.ground.label(witness)}) minus itself is not closed"
        )
    emitted: set[tuple[int, int]] = set()
    for imp in binary_part(ctx):
        yield imp
    for c in range(len(mi.ground)):
        for aset in d_generators_from_mi(mi, c):
            key = (aset.bits, c)
            if key not in emitted:
                emitted.add(key)
                yield Implication(aset, c)


def embed_dualization(binary_ib: ImplicationalBase, b_plus: SetFamily) -> SetFamily:
    """Meet-irreducibles of the gadget system over U plus the fresh element:
    Mi(cs') = B+ union {M union {_d} | M in Mi(cs)}."""
    binary_ib.require_binary()
    ctx = ClosureContext.from_ib(binary_ib)
    uppers = _check_antichain_of_closed(ctx, b_plus)
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
