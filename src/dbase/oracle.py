"""Exhaustive-scan reference implementations used as ground truth.

Everything here enumerates all 2^|U| subsets and exists solely to cross-check
the real algorithms: the tests, the ``cdb``, ``oracle`` and ``verify-sat``
commands and ``gadgets.verify_reduction`` use it, neither D-base route does.
:class:`BruteForce` is the one entry point of the scans.  It takes the input,
an IB or a family, and imports nothing of the closure kernel it referees.
Its tables are vectorized with numpy, imported only when one is built.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .errors import GroundTooLarge
from .model import (
    ElementSet,
    ImplicationalBase,
    Relation,
    SetFamily,
    check_antichain_of_closed,
    iter_bits,
)

ORACLE_MAX_GROUND = 16
# Hard ceiling whatever ``max_ground`` says: each of the three uint32 tables
# holds 2^n entries (64 MB at 24), and masks above 32 bits do not fit.
ORACLE_CEILING = 24


def require_oracle_scale(n: int, max_ground: int) -> None:
    """Refuse a ground of ``n`` elements past ``max_ground`` or the ceiling."""
    limit = min(max_ground, ORACLE_CEILING)
    if n > limit:
        raise GroundTooLarge(f"{n} elements exceeds oracle maximum {limit}")


class BruteForce:
    """Full closure tables over all subsets, with generator scans on top.

    ``cl`` is computed from ``source``, and ``clb`` and the binary rows from
    the singleton rows of ``cl``.
    """

    def __init__(
        self,
        source: ImplicationalBase | SetFamily,
        *,
        max_ground: int = ORACLE_MAX_GROUND,
    ):
        import numpy as np
        n = len(source.ground)
        require_oracle_scale(n, max_ground)
        self.ground = source.ground
        self.n = n
        self.masks = np.arange(1 << n, dtype=np.uint32)
        self.cl = self._closure_table(source)
        self.clb = self._binary_closure_table()

    def _closure_table(self, source: ImplicationalBase | SetFamily) -> np.ndarray:
        import numpy as np
        masks, full = self.masks, self.ground.full_mask
        if isinstance(source, SetFamily):
            cl = np.full(len(masks), np.uint32(full), dtype=np.uint32)
            for m in source.masks:
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
            clb[(self.masks & abit) != 0] |= self.cl[1 << a]
        return clb

    def minimal_generator_masks(self, c: int) -> list[int]:
        """Non-trivial minimal generators of c by exhaustive scan."""
        self.ground.require_target(c)
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
        return [ElementSet(self.ground, m) for m in self.minimal_generator_masks(c)]

    def d_generators(self, c: int) -> list[ElementSet]:
        return [ElementSet(self.ground, m) for m in self.d_generator_masks(c)]

    def canonical_direct_base(self) -> ImplicationalBase:
        pairs = []
        for c in range(self.n):
            pairs.extend((m, c) for m in self.minimal_generator_masks(c))
        return ImplicationalBase.build(self.ground, pairs).canonicalize()

    def _binary_pairs(self) -> list[tuple[int, int]]:
        pairs = []
        for a in range(self.n):
            rest = int(self.cl[1 << a]) & ~(1 << a)
            pairs.extend((1 << a, c) for c in ElementSet(self.ground, rest))
        return pairs

    def d_base(self) -> ImplicationalBase:
        pairs = self._binary_pairs()
        for c in range(self.n):
            pairs.extend((m, c) for m in self.d_generator_masks(c))
        return ImplicationalBase.build(self.ground, pairs).canonicalize()

    def _relation(self, generator_masks: Callable[[int], list[int]]) -> Relation:
        # c R a whenever a lies in some generator of c.
        arcs = set()
        for c in range(self.n):
            for m in generator_masks(c):
                arcs.update((c, a) for a in iter_bits(m))
        return Relation(self.ground, arcs)

    def d_relation(self) -> Relation:
        return self._relation(self.d_generator_masks)

    def delta_relation(self) -> Relation:
        return self._relation(self.minimal_generator_masks)

    def closed_masks(self) -> list[int]:
        import numpy as np
        eq = np.flatnonzero(self.cl == self.masks)
        return [int(m) for m in eq]


def brute_dual(
    binary_ib: ImplicationalBase,
    b_plus: SetFamily,
    *,
    max_ground: int = ORACLE_MAX_GROUND,
) -> SetFamily:
    """Dual antichain by scanning every closed set of the binary system.

    B+ must be an antichain of closed sets, decided from the oracle's own
    closure table."""
    binary_ib.require_binary()
    brute = BruteForce(binary_ib, max_ground=max_ground)
    uppers = check_antichain_of_closed(
        b_plus, binary_ib.ground, lambda m: int(brute.cl[m]) == m
    )
    escaping = [
        m for m in brute.closed_masks() if all(m & ~b for b in uppers)
    ]
    minimal: list[int] = []
    for m in sorted(escaping, key=int.bit_count):
        if not any(k & ~m == 0 for k in minimal):
            minimal.append(m)
    return SetFamily.from_bits(binary_ib.ground, minimal).canonicalize()


def closure_rounds(ib: ImplicationalBase, aset: ElementSet) -> Iterator[ElementSet]:
    """The chain A = C0, C1, ... up to cl(A): one round of firing per step.

    The reference semantics the closure kernel's ``chain`` must agree with.
    An empty premise fires in the first round.
    """
    cur = aset.bits
    yield ElementSet(ib.ground, cur)
    while True:
        nxt = cur
        for imp in ib:
            if imp.premise.bits & ~cur == 0:
                nxt |= 1 << imp.conclusion
        if nxt == cur:
            return
        cur = nxt
        yield ElementSet(ib.ground, cur)
