"""The closure operators cl and cl^b, standardness, and extreme elements.

A :class:`ClosureContext` wraps one closure system given either by an
implicational base (closures by forward chaining) or by an intersection
generating family of closed sets such as the meet-irreducible elements
(closures by intersecting supersets, the whole ground when none exists).
Singleton closures are cached eagerly, so ``close_binary`` never re-chains.
"""
from __future__ import annotations

from .errors import NotSpanning
from .model import ElementSet, ImplicationalBase, SetFamily, iter_bits

_IB = "ib"
_MI = "mi"


class ClosureContext:
    """Closure operators for one finite closure system.

    Immutable after construction; ``close`` and ``close_binary`` are pure and
    safe for concurrent use.
    """

    __slots__ = (
        "ground",
        "source",
        "mode",
        "_concls",
        "_sizes",
        "_watch",
        "_seed_bits",
        "_mi_masks",
        "_singles",
        "_containers",
    )

    def __init__(self, source: ImplicationalBase | SetFamily):
        if isinstance(source, ImplicationalBase):
            self.mode = _IB
            self._init_ib(source)
        elif isinstance(source, SetFamily):
            self.mode = _MI
            self._mi_masks = tuple(source.bit_list())
        else:
            raise TypeError("source must be an ImplicationalBase or a SetFamily")
        self.ground = source.ground
        self.source = source
        n = len(self.ground)
        self._singles = [self.close_bits(1 << a) for a in range(n)]
        containers = [0] * n
        for y in range(n):
            for x in iter_bits(self._singles[y]):
                containers[x] |= 1 << y
        self._containers = containers

    @classmethod
    def from_ib(cls, ib: ImplicationalBase) -> "ClosureContext":
        return cls(ib)

    @classmethod
    def from_mi(cls, family: SetFamily) -> "ClosureContext":
        return cls(family)

    def _init_ib(self, ib: ImplicationalBase) -> None:
        n = len(ib.ground)
        concls: list[int] = []
        sizes: list[int] = []
        watch: list[list[int]] = [[] for _ in range(n)]
        seed = 0
        for imp in ib:
            pbits = imp.premise.bits
            if pbits == 0:
                seed |= 1 << imp.conclusion
                continue
            j = len(concls)
            concls.append(imp.conclusion)
            sizes.append(pbits.bit_count())
            for e in iter_bits(pbits):
                watch[e].append(j)
        self._concls = concls
        self._sizes = sizes
        self._watch = [tuple(w) for w in watch]
        self._seed_bits = seed

    def close_bits(self, bits: int) -> int:
        """cl of a raw bitmask."""
        if self.mode == _MI:
            out = -1
            for m in self._mi_masks:
                if bits & ~m == 0:
                    out &= m
            full = self.source.ground.full_mask
            return full if out == -1 else out
        # Counting forward chaining: each implication fires at most once.
        closed = bits | self._seed_bits
        counts = list(self._sizes)
        watch = self._watch
        concls = self._concls
        stack = list(iter_bits(closed))
        while stack:
            e = stack.pop()
            for j in watch[e]:
                counts[j] -= 1
                if counts[j] == 0:
                    c = concls[j]
                    if not closed >> c & 1:
                        closed |= 1 << c
                        stack.append(c)
        return closed

    def close_binary_bits(self, bits: int) -> int:
        """cl^b of a raw bitmask: union of cached singleton closures."""
        out = 0
        singles = self._singles
        for a in iter_bits(bits):
            out |= singles[a]
        return out

    def close(self, aset: ElementSet) -> ElementSet:
        if aset.ground != self.ground:
            raise ValueError("set over a different ground set")
        return ElementSet(self.ground, self.close_bits(aset.bits))

    def close_binary(self, aset: ElementSet) -> ElementSet:
        if aset.ground != self.ground:
            raise ValueError("set over a different ground set")
        return ElementSet(self.ground, self.close_binary_bits(aset.bits))

    def singleton_closure(self, a: int) -> int:
        """cl({a}) as a bitmask, from the eager cache."""
        return self._singles[a]

    def containers(self, x: int) -> int:
        """Bitmask of the elements y with x in cl(y) (includes x itself)."""
        return self._containers[x]

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask


def binary_part(ctx: ClosureContext) -> ImplicationalBase:
    """All valid non-trivial binary implications of the closure system."""
    ground = ctx.ground
    pairs = []
    for a in range(len(ground)):
        for c in iter_bits(ctx.singleton_closure(a) & ~(1 << a)):
            pairs.append((1 << a, c))
    return ImplicationalBase.build(ground, pairs).canonicalize()


def binary_context(ctx: ClosureContext) -> ClosureContext:
    """Context whose ``close`` is cl^b of ``ctx`` (the system of its binary part)."""
    return ClosureContext.from_ib(binary_part(ctx))


def is_standard(ctx: ClosureContext) -> tuple[bool, int | None]:
    """Whether cl(a) minus a is closed for every a; returns a violator if not."""
    for a in range(len(ctx.ground)):
        reduced = ctx.singleton_closure(a) & ~(1 << a)
        if ctx.close_bits(reduced) != reduced:
            return False, a
    return True, None


def extreme_elements(ctx: ClosureContext, fset: ElementSet) -> ElementSet:
    """Elements a of F with a not in cl(F minus a)."""
    bits = fset.bits
    out = 0
    for a in iter_bits(bits):
        if not ctx.close_bits(bits & ~(1 << a)) >> a & 1:
            out |= 1 << a
    return ElementSet(ctx.ground, out)


def min_spanning_set(ctx: ClosureContext, fset: ElementSet) -> ElementSet:
    """Unique minimal spanning set of cl(F) in a convex geometry context.

    Returns the extreme elements of cl(F); raises :class:`NotSpanning` when
    they fail to span cl(F), which signals that the context's system is not a
    convex geometry for this input.
    """
    closed = ctx.close_bits(fset.bits)
    kernel = extreme_elements(ctx, ElementSet(ctx.ground, closed))
    if ctx.close_bits(kernel.bits) != closed:
        raise NotSpanning(f"extreme elements of {fset!r} do not span its closure")
    return kernel

