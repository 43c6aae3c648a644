"""The closure operators cl and cl^b, standardness, and extreme elements.

A :class:`ClosureContext` wraps one closure system given either by an
implicational base (closures by :func:`chain`, the one chaining loop) or by
an intersection generating family of closed sets such as the meet-irreducible
elements (closures by intersecting supersets, the whole ground when none
exists).  Singleton closures are cached eagerly, and so are per-byte tables
of their unions (see :class:`ClosureContext`), the one cl^b kernel:
``close_binary_bits``, ``minimal_elements`` and the B+ closedness test read
one entry per byte and never re-chain.
"""
from __future__ import annotations

from operator import or_

from .errors import NotSpanning
from .model import ElementSet, ImplicationalBase, SetFamily, _byte_tables, iter_bits

_IB = "ib"
_MI = "mi"


def chain(x: int, rules: tuple[tuple[int, int], ...], cover: int) -> int:
    """Forward chaining: fire every rule (premise bits, mask) whose premise
    lies in ``x``, adding its mask, until nothing changes or ``x`` covers
    ``cover``.  Returns ``x`` as it then stands."""
    grown = x & cover != cover
    while grown:
        grown = False
        for premise, mask in rules:
            if premise & x == premise and mask & ~x:
                x |= mask
                if x & cover == cover:
                    return x
                grown = True
    return x


class ClosureContext:
    """Closure operators for one finite closure system.

    Immutable after construction; ``close`` and ``close_binary`` are pure and
    safe for concurrent use.  ``_below`` holds the ``_byte_tables`` of the
    strict singleton closures: entry v is the union of cl(y) minus y over
    the members y of v, so cl^b(bits) is ``bits`` OR-ed with one entry per
    byte.  In IB mode ``rules`` holds a pair (premise bits, cl^b of its
    conclusions) per premise that is not a singleton, where that leaves
    cl^b(premise); an empty premise is one such rule and fires at once.  A
    cl^b-closed set respects every singleton premise, so chaining it over
    ``rules`` reaches its closure.  In Mi mode ``rules`` is empty.
    """

    __slots__ = (
        "ground",
        "source",
        "mode",
        "rules",
        "_mi_masks",
        "_singles",
        "_containers",
        "_representatives",
        "_below",
    )

    def __init__(self, source: ImplicationalBase | SetFamily):
        self.ground = source.ground
        self.source = source
        n = len(self.ground)
        if isinstance(source, ImplicationalBase):
            self.mode = _IB
            grouped: dict[int, int] = {}
            for imp in source:
                pbits = imp.premise.bits
                grouped[pbits] = grouped.get(pbits, 0) | 1 << imp.conclusion
            raw = tuple(grouped.items())
            self._singles = [chain(1 << a, raw, self.full_mask) for a in range(n)]
        elif isinstance(source, SetFamily):
            self.mode = _MI
            self._mi_masks = source.masks
            self._singles = [self.close_bits(1 << a) for a in range(n)]
            raw = ()
        else:
            raise TypeError("source must be an ImplicationalBase or a SetFamily")
        strict = [s & ~(1 << y) for y, s in enumerate(self._singles)]
        self._below = _byte_tables(strict, or_, 0)
        clb = self.close_binary_bits
        self.rules = tuple(
            (pbits, clb(concls))
            for pbits, concls in raw
            if pbits.bit_count() != 1 and clb(concls) & ~clb(pbits)
        )
        containers = [0] * n
        for y in range(n):
            for x in iter_bits(self._singles[y]):
                containers[x] |= 1 << y
        self._containers = containers
        reps = 0
        for y in range(n):
            cls = self._singles[y] & containers[y]
            if cls & -cls == 1 << y:
                reps |= 1 << y
        self._representatives = reps

    @classmethod
    def from_ib(cls, ib: ImplicationalBase) -> "ClosureContext":
        if not isinstance(ib, ImplicationalBase):
            raise TypeError("from_ib needs an ImplicationalBase")
        return cls(ib)

    @classmethod
    def from_mi(cls, family: SetFamily) -> "ClosureContext":
        if not isinstance(family, SetFamily):
            raise TypeError("from_mi needs a SetFamily")
        return cls(family)

    def close_bits(self, bits: int) -> int:
        """cl of a raw bitmask."""
        if self.mode == _MI:
            out = self.ground.full_mask
            for m in self._mi_masks:
                if bits & ~m == 0:
                    out &= m
            return out
        return chain(self.close_binary_bits(bits), self.rules, self.full_mask)

    def close_binary_bits(self, bits: int) -> int:
        """cl^b of a raw bitmask: ``bits`` OR-ed with one ``_below`` entry
        per byte up to its highest set one."""
        out = bits
        chunks = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        for table, byte in zip(self._below, chunks):
            out |= table[byte]
        return out

    def require_ground(self, aset: ElementSet) -> None:
        """Raise ``ValueError`` unless ``aset`` lies over this ground."""
        if aset.ground != self.ground:
            raise ValueError("set over a different ground set")

    def close(self, aset: ElementSet) -> ElementSet:
        self.require_ground(aset)
        return ElementSet(self.ground, self.close_bits(aset.bits))

    def close_binary(self, aset: ElementSet) -> ElementSet:
        self.require_ground(aset)
        return ElementSet(self.ground, self.close_binary_bits(aset.bits))

    def singleton_closure(self, a: int) -> int:
        """cl({a}) as a bitmask, from the eager cache."""
        return self._singles[a]

    def containers(self, x: int) -> int:
        """Bitmask of the elements y with x in cl(y) (includes x itself)."""
        return self._containers[x]

    @property
    def representatives(self) -> int:
        """Bitmask of the lowest element of each cl^b-class, the elements
        sharing one singleton closure; in a standard system every class is a
        singleton, so this is the whole ground."""
        return self._representatives

    def minimal_elements(self, bits: int) -> int:
        """Members of ``bits`` that no other member's singleton closure holds;
        for a cl^b-closed set of a standard system, its minimal spanning set
        under cl^b.  x is such a member iff it lies in no cl(y) minus y for y
        in ``bits``, and the union of those is read off ``_below`` as
        ``close_binary_bits`` reads it."""
        below = 0
        chunks = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        for table, byte in zip(self._below, chunks):
            below |= table[byte]
        return bits & ~below

    @property
    def full_mask(self) -> int:
        return self.ground.full_mask


def binary_part(ctx: ClosureContext) -> ImplicationalBase:
    """All valid non-trivial binary implications of the closure system, in
    canonical order: by premise element, then conclusion."""
    ground = ctx.ground
    pairs = []
    for a in range(len(ground)):
        for c in iter_bits(ctx.singleton_closure(a) & ~(1 << a)):
            pairs.append((1 << a, c))
    return ImplicationalBase.build(ground, pairs)


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

