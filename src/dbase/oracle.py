"""Exhaustive-scan reference implementations used as ground truth.

Everything here enumerates all 2^|U| subsets and exists solely to cross-check
the real algorithms: the tests, the ``cdb``, ``oracle`` and ``verify-sat``
commands and ``gadgets.verify_reduction`` use it, neither D-base route does.
Closure tables are vectorized with numpy, imported only when a table is built
or scanned, and read a context only through its public surface.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .closure import ClosureContext
from .errors import GroundMismatch, GroundTooLarge
from .model import ElementSet, ImplicationalBase, Relation, SetFamily, iter_bits

ORACLE_MAX_GROUND = 16
# Hard ceiling whatever ``max_ground`` says: each of the three uint32 tables
# holds 2^n entries (64 MB at 24), and masks above 32 bits do not fit.
ORACLE_CEILING = 24


class BruteForce:
    """Full closure tables over all subsets, with generator scans on top."""

    def __init__(self, ctx: ClosureContext, *, max_ground: int = ORACLE_MAX_GROUND):
        import numpy as np
        n = len(ctx.ground)
        limit = min(max_ground, ORACLE_CEILING)
        if n > limit:
            raise GroundTooLarge(f"{n} elements exceeds oracle maximum {limit}")
        self.ctx = ctx
        self.n = n
        self.masks = np.arange(1 << n, dtype=np.uint32)
        self.cl = self._closure_table()
        self.clb = self._binary_closure_table()

    def _closure_table(self) -> np.ndarray:
        import numpy as np
        source, masks, full = self.ctx.source, self.masks, self.ctx.full_mask
        if isinstance(source, SetFamily):
            cl = np.full(len(masks), np.uint32(full), dtype=np.uint32)
            for m in source.bit_list():
                inside = (masks & np.uint32(~m & full)) == 0
                cl[inside] &= np.uint32(m)
            return cl
        # An empty premise is the mask 0, which every row contains.
        cl = masks.copy()
        imps = [
            (np.uint32(imp.premise.bits), np.uint32(1 << imp.conclusion))
            for imp in source
        ]
        changed = True
        while changed:
            changed = False
            for pbits, cbit in imps:
                fire = ((cl & pbits) == pbits) & ((cl & cbit) == 0)
                if fire.any():
                    cl[fire] |= cbit
                    changed = True
        return cl

    def _binary_closure_table(self) -> np.ndarray:
        import numpy as np
        clb = np.zeros(len(self.masks), dtype=np.uint32)
        for a in range(self.n):
            abit = np.uint32(1 << a)
            clb[(self.masks & abit) != 0] |= np.uint32(self.ctx.singleton_closure(a))
        return clb

    def minimal_generator_masks(self, c: int) -> list[int]:
        """Non-trivial minimal generators of c by exhaustive scan."""
        import numpy as np
        cbit = np.uint32(1 << c)
        cand = ((self.cl & cbit) != 0) & ((self.masks & cbit) == 0)
        idx = np.flatnonzero(cand).astype(np.uint32)
        keep = np.ones(len(idx), dtype=bool)
        for a in range(self.n):
            abit = np.uint32(1 << a)
            with_a = (idx & abit) != 0
            reduced = idx[with_a] ^ abit
            keep[with_a] &= (self.cl[reduced] & cbit) == 0
        return [int(m) for m in idx[keep]]

    def d_generator_masks(self, c: int) -> list[int]:
        """Minimal generators filtered by the cl^b-minimality definition."""
        gens = self.minimal_generator_masks(c)
        cbit = 1 << c
        out = []
        for a_mask in gens:
            closure_b = int(self.clb[a_mask])
            if closure_b & cbit:
                continue
            if any(g != a_mask and g & ~closure_b == 0 for g in gens):
                continue
            out.append(a_mask)
        return out

    def minimal_generators(self, c: int) -> list[ElementSet]:
        return [ElementSet(self.ctx.ground, m) for m in self.minimal_generator_masks(c)]

    def d_generators(self, c: int) -> list[ElementSet]:
        return [ElementSet(self.ctx.ground, m) for m in self.d_generator_masks(c)]

    def canonical_direct_base(self) -> ImplicationalBase:
        pairs = []
        for c in range(self.n):
            pairs.extend((m, c) for m in self.minimal_generator_masks(c))
        return ImplicationalBase.build(self.ctx.ground, pairs).canonicalize()

    def _binary_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for a in range(self.n):
            rest = self.ctx.singleton_closure(a) & ~(1 << a)
            pairs.extend((1 << a, c) for c in ElementSet(self.ctx.ground, rest))
        return pairs

    def d_base(self) -> ImplicationalBase:
        pairs = self._binary_pairs()
        for c in range(self.n):
            pairs.extend((m, c) for m in self.d_generator_masks(c))
        return ImplicationalBase.build(self.ctx.ground, pairs).canonicalize()

    def _relation(self, generator_masks: Callable[[int], list[int]]) -> Relation:
        # c R a whenever a lies in some generator of c.
        arcs = set()
        for c in range(self.n):
            for m in generator_masks(c):
                arcs.update((c, a) for a in iter_bits(m))
        return Relation(self.ctx.ground, arcs)

    def d_relation(self) -> Relation:
        return self._relation(self.d_generator_masks)

    def delta_relation(self) -> Relation:
        return self._relation(self.minimal_generator_masks)

    def closed_masks(self) -> list[int]:
        import numpy as np
        eq = np.flatnonzero(self.cl == self.masks)
        return [int(m) for m in eq]


def brute_minimal_generators(
    ctx: ClosureContext, c: int, *, max_ground: int = ORACLE_MAX_GROUND
) -> list[ElementSet]:
    return BruteForce(ctx, max_ground=max_ground).minimal_generators(c)


def brute_canonical_direct_base(
    ctx: ClosureContext, *, max_ground: int = ORACLE_MAX_GROUND
) -> ImplicationalBase:
    return BruteForce(ctx, max_ground=max_ground).canonical_direct_base()


def brute_d_generators(
    ctx: ClosureContext, c: int, *, max_ground: int = ORACLE_MAX_GROUND
) -> list[ElementSet]:
    return BruteForce(ctx, max_ground=max_ground).d_generators(c)


def brute_d_base(
    ctx: ClosureContext, *, max_ground: int = ORACLE_MAX_GROUND
) -> ImplicationalBase:
    return BruteForce(ctx, max_ground=max_ground).d_base()


def brute_d_relation(
    ctx: ClosureContext, *, max_ground: int = ORACLE_MAX_GROUND
) -> Relation:
    return BruteForce(ctx, max_ground=max_ground).d_relation()


def brute_dual(
    binary_ib: ImplicationalBase,
    b_plus: SetFamily,
    *,
    max_ground: int = ORACLE_MAX_GROUND,
) -> SetFamily:
    """Dual antichain by scanning every closed set of the binary system."""
    binary_ib.require_binary()
    if b_plus.ground != binary_ib.ground:
        raise GroundMismatch(
            f"antichain over {b_plus.ground!r}, base over {binary_ib.ground!r}"
        )
    ctx = ClosureContext.from_ib(binary_ib)
    brute = BruteForce(ctx, max_ground=max_ground)
    uppers = b_plus.bit_list()
    escaping = [
        m for m in brute.closed_masks() if all(m & ~b for b in uppers)
    ]
    minimal: list[int] = []
    for m in sorted(escaping, key=int.bit_count):
        if not any(k & ~m == 0 for k in minimal):
            minimal.append(m)
    return SetFamily.from_bits(binary_ib.ground, minimal).canonicalize()


def closure_rounds(ctx: ClosureContext, aset: ElementSet) -> Iterator[ElementSet]:
    """The chain A = C0, C1, ... up to cl(A): one round of firing per step.

    Only defined for implication-sourced contexts; this is the reference
    semantics ``ClosureContext.close`` and its ``chain`` must agree with.
    An empty premise fires in the first round.
    """
    source = ctx.source
    if not isinstance(source, ImplicationalBase):
        raise TypeError("closure_rounds requires an implication-sourced context")
    cur = aset.bits
    yield ElementSet(ctx.ground, cur)
    while True:
        nxt = cur
        for imp in source:
            if imp.premise.bits & ~cur == 0:
                nxt |= 1 << imp.conclusion
        if nxt == cur:
            return
        cur = nxt
        yield ElementSet(ctx.ground, cur)
