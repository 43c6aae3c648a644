"""D-base enumeration from an implicational base by solution-graph traversal.

For a target element c, the D-generators of c are exactly the D-minimal keys
of the reduced base (U_c, Sigma_c).  The solution graph on them is traversed
breadth-first, with transitions obtained by substituting a premise of Sigma_c
into the binary closure of the current generator and re-minimizing greedily
(the Min procedure).  The whole D-base enumeration overlays those graphs and
restarts from a fresh Min(U_c) whenever a target's component is untouched,
which yields every implication exactly once with polynomial delay.  The
visited set may grow exponentially; ``max_states`` caps it.

The traversal never materializes Sigma_c: every closure runs in the one
context of the input, where "X generates U_c" reads "c in cl(X)" (proof in
:class:`_SolutionGraph`), and the transitions are read off Sigma directly.
:func:`build_reduced_base` and :func:`reduced_context` remain as the
paper-level construction that the tests check the traversal against; run
through :func:`min_reduce` and :func:`neighbors`, they drive the same Min
and transition code.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .closure import ClosureContext, binary_part, is_standard
from .errors import (
    NoDGenerators,
    NotDGenerator,
    NotSpanning,
    NotStandard,
    StateLimitExceeded,
    TargetInSet,
)
from .model import ElementSet, Implication, ImplicationalBase, iter_bits

ORDER_POLICIES = ("size-label", "natural")


def _require_standard(ctx: ClosureContext) -> None:
    std, witness = is_standard(ctx)
    if not std:
        raise NotStandard(
            f"cl({ctx.ground.label(witness)}) minus itself is not closed"
        )


def _is_key(ctx: ClosureContext, bits: int, cover: int) -> bool:
    # D-minimal key: cl(bits) covers ``cover`` and no element of bits can be
    # dropped from cl^b(bits) without losing that.
    if ctx.close_bits(bits) & cover != cover:
        return False
    clb = ctx.close_binary_bits(bits)
    for a in iter_bits(bits):
        if ctx.close_bits(clb & ~(1 << a)) & cover == cover:
            return False
    return True


def is_d_generator(ctx: ClosureContext, aset: ElementSet, c: int) -> bool:
    """Test A in genD(c) with at most 2|U| closure calls.

    Characterization: c in cl(A) and, for every a in A, c not in
    cl(cl^b(A) minus a).
    """
    if aset.bits >> c & 1:
        raise TargetInSet(f"target {ctx.ground.label(c)!r} belongs to the set")
    return _is_key(ctx, aset.bits, 1 << c)


def restricted_universe(ctx: ClosureContext, c: int) -> ElementSet:
    """U_c: the elements whose singleton closure avoids c."""
    bits = 0
    for a in range(len(ctx.ground)):
        if not ctx.singleton_closure(a) >> c & 1:
            bits |= 1 << a
    return ElementSet(ctx.ground, bits)


def has_d_generators(ctx: ClosureContext, c: int) -> bool:
    """True iff U_c is not closed, i.e. c in cl(U_c)."""
    return ctx.close_bits(restricted_universe(ctx, c).bits) >> c & 1 == 1


def element_order(ctx: ClosureContext, policy: str = "size-label") -> tuple[int, ...]:
    """Global linear order used by Min.

    ``size-label`` sorts by (|cl^b(a)|, label), a linear extension of the
    cl^b-containment order in standard systems.  ``natural`` is declaration
    order; it may not extend cl^b-containment, which only changes which
    D-generator Min picks, never the enumerated set.
    """
    if policy not in ORDER_POLICIES:
        raise ValueError(f"unknown order policy {policy!r}")
    names = ctx.ground.names
    if policy == "natural":
        return tuple(range(len(names)))
    return tuple(
        sorted(
            range(len(names)),
            key=lambda a: (ctx.singleton_closure(a).bit_count(), names[a]),
        )
    )


def _reduced_pairs(
    ib: ImplicationalBase, ctx: ClosureContext, ubits: int
) -> Iterator[tuple[int, int]]:
    # Sigma_c as (premise bits, conclusion) pairs, in the order of Sigma.
    for imp in ib:
        pbits = imp.premise.bits
        if pbits & ~ubits:
            continue
        if ubits >> imp.conclusion & 1:
            yield pbits, imp.conclusion
        else:
            for b in iter_bits(ubits & ~ctx.close_binary_bits(pbits)):
                yield pbits, b


@dataclass(frozen=True)
class ReducedBase:
    """The restriction (U_c, Sigma_c) used to enumerate genD(c)."""

    target: int
    universe: ElementSet
    base: ImplicationalBase
    ordering: tuple[int, ...]


def build_reduced_base(
    ib: ImplicationalBase,
    c: int,
    *,
    order: str = "size-label",
    ctx: ClosureContext | None = None,
) -> ReducedBase:
    """Construct Sigma_c = Sigma_1 union Sigma_2 over U_c.

    Sigma_1 keeps the implications living inside U_c; Sigma_2 rewrites each
    A -> d with A inside U_c but d outside into A -> b for every
    b in U_c minus cl^b(A).
    """
    ctx = ctx or ClosureContext.from_ib(ib)
    _require_standard(ctx)
    if not has_d_generators(ctx, c):
        raise NoDGenerators(f"{ib.ground.label(c)!r} has no D-generators")
    universe = restricted_universe(ctx, c)
    ubits = universe.bits
    base = ImplicationalBase.build(ib.ground, _reduced_pairs(ib, ctx, ubits))
    ordering = tuple(a for a in element_order(ctx, order) if ubits >> a & 1)
    return ReducedBase(target=c, universe=universe, base=base, ordering=ordering)


def reduced_context(rb: ReducedBase) -> ClosureContext:
    """Closure context of (U_c, Sigma_c); its cl^b equals the original cl^b
    on subsets of U_c."""
    return ClosureContext.from_ib(rb.base)


class _SolutionGraph:
    """One target's solution graph: Min, candidate windows and a Min memo.

    A set X inside U_c spans when cl(X) covers ``cover``.  Run on the input's
    own context, ``cover`` is {c}; run on the context of (U_c, Sigma_c), it
    is U_c.  The two readings agree, so the traversal never builds Sigma_c.

    Let c admit D-generators, i.e. c in cl(U_c), and write cl_c for the
    closure of Sigma_c.  Facts, for X inside U_c:

    1. cl(a) lies in U_c for every a in U_c: for x in cl(a), cl(x) lies in
       cl(a), which avoids c.  So U_c is closed under cl^b.
    2. Sigma_2 has no binary implication: a premise {a} inside U_c forces
       only elements of cl(a), which lie in U_c by 1, so no A -> d with
       |A| = 1 leaves U_c.  Hence the non-binary part of Sigma_c, read off
       Sigma, is every A -> d inside U_c with |A| != 1 plus every
       expansion A -> b of an A -> d that leaves U_c.
    3. If c is not in cl(X), then cl_c(X) = cl(X).  Any d in cl(X) outside
       U_c has c in cl(d), inside cl(X); so cl(X) lies in U_c.  Chaining X
       under Sigma then only fires implications of Sigma_1, so cl(X) lies
       in cl_c(X).  Conversely cl(X) is Sigma_c-closed: it respects
       Sigma_1, which is valid, and holds no premise of Sigma_2, whose
       source A -> d would put d, outside U_c, into cl(X); so cl_c(X) lies
       in cl(X).  In particular cl_c(a) = cl(a) for a in U_c, so
       cl_c^b = cl^b on subsets of U_c, and ``containers`` agree there.
    4. Key equivalence: cl_c(X) = U_c iff c in cl(X).  If c is not in
       cl(X) but cl_c(X) = U_c, then by 3 cl(X) = U_c and c in cl(U_c) =
       cl(X), a contradiction.  If c is in cl(X), chain X under Sigma and
       stop at the first firing A -> d with d outside U_c (one exists, c
       being outside U_c).  Everything derived before it came from Sigma_1,
       so A lies in Y = cl_c(X), which lies in U_c as every conclusion of
       Sigma_c does.  Y contains cl^b(A) (by 3, as cl_c^b) and, through
       Sigma_2, every b in U_c minus cl^b(A); so Y = U_c.

    By 1 and 3 the windows and Min's extremality tests are the same in both
    contexts, and by 2 the transitions come straight from Sigma.  Windows
    obey cl^b(X union Y) = cl^b(X) | cl^b(Y), so each one is a single OR
    against a per-conclusion base; duplicates collapse before any Min work,
    and Min results are memoized by window across the whole traversal.
    """

    __slots__ = ("ctx", "universe", "cover", "ordering", "transitions", "memo")

    def __init__(
        self,
        ctx: ClosureContext,
        universe: int,
        cover: int,
        ordering: tuple[int, ...],
        pairs: Iterable[tuple[int, int]],
    ):
        self.ctx = ctx
        self.universe = universe
        self.cover = cover
        self.ordering = ordering
        groups: dict[int, set[int]] = {}
        for pbits, d in pairs:
            if pbits.bit_count() != 1:
                groups.setdefault(d, set()).add(ctx.close_binary_bits(pbits))
        self.transitions = [
            (ctx.singleton_closure(d), tuple(clbs)) for d, clbs in groups.items()
        ]
        self.memo: dict[int, int | None] = {}

    @classmethod
    def of_target(cls, ctx: ClosureContext, c: int, order: str) -> "_SolutionGraph":
        """The graph of genD(c), run on the input's own context."""
        ubits = restricted_universe(ctx, c).bits
        ordering = tuple(a for a in element_order(ctx, order) if ubits >> a & 1)
        return cls(ctx, ubits, 1 << c, ordering, _reduced_pairs(ctx.source, ctx, ubits))

    @classmethod
    def of_reduced(cls, rb: ReducedBase, ctx_c: ClosureContext) -> "_SolutionGraph":
        """The same graph, run on the context of (U_c, Sigma_c)."""
        ubits = rb.universe.bits
        pairs = ((imp.premise.bits, imp.conclusion) for imp in rb.base)
        return cls(ctx_c, ubits, ubits, rb.ordering, pairs)

    def spans(self, bits: int) -> bool:
        return self.ctx.close_bits(bits) & self.cover == self.cover

    def min_reduce(self, fbits: int) -> int:
        """Greedy Min on a cl^b-closed spanning set; returns D-generator bits.

        An element that once fails the removability test stays unremovable
        (closures only shrink as the set does), so each element is
        closure-tested at most once: at most 2|U| closure calls per reduction.
        """
        ctx = self.ctx
        close, cover = ctx.close_bits, self.cover
        cur = fbits
        dead = 0
        while True:
            for x in self.ordering:
                bx = 1 << x
                if not cur & bx or dead & bx:
                    continue
                if ctx.containers(x) & cur != bx:
                    continue  # not extreme in the current set; may become so
                if close(cur & ~bx) & cover == cover:
                    cur &= ~bx
                    break
                dead |= bx
            else:
                break
        # The kernel: members that no other member's singleton closure holds.
        kernel = 0
        for x in iter_bits(cur):
            if ctx.containers(x) & cur == 1 << x:
                kernel |= 1 << x
        return kernel

    def neighbor_bits(self, abits: int) -> set[int]:
        ctx = self.ctx
        clb_a = ctx.close_binary_bits(abits)
        windows: set[int] = set()
        for cl_d, premise_closures in self.transitions:
            base = ctx.close_binary_bits(clb_a & ~cl_d)
            for clbp in premise_closures:
                windows.add(base | clbp)
        out: set[int] = set()
        memo = self.memo
        for window in windows:
            if window in memo:
                reduced = memo[window]
            else:
                reduced = self.min_reduce(window) if self.spans(window) else None
                memo[window] = reduced
            if reduced is not None:
                out.add(reduced)
        return out


def min_reduce(rb: ReducedBase, ctx_c: ClosureContext, fset: ElementSet) -> ElementSet:
    """Min procedure: repeatedly drop the first removable extreme element of
    the current cl_c^b-closed set (first in the fixed ordering, removable
    when the remainder still generates U_c), then return the minimal spanning
    set of what is left, a D-generator of the target."""
    fbits = fset.bits
    if ctx_c.close_binary_bits(fbits) != fbits:
        raise NotSpanning(f"{fset!r} is not closed under the reduced binary part")
    if ctx_c.close_bits(fbits) != rb.universe.bits:
        raise NotSpanning(f"{fset!r} does not generate the restricted universe")
    graph = _SolutionGraph.of_reduced(rb, ctx_c)
    return ElementSet(rb.base.ground, graph.min_reduce(fbits))


def neighbors(rb: ReducedBase, ctx_c: ClosureContext, aset: ElementSet) -> list[ElementSet]:
    """Transition function N(A): one Min-reduced candidate per non-binary
    implication B -> d of Sigma_c, from cl_c^b((cl_c^b(A) minus cl_c^b(d))
    union B); deduplicated."""
    ubits = rb.universe.bits
    if aset.bits & ~ubits or not _is_key(ctx_c, aset.bits, ubits):
        raise NotDGenerator(f"{aset!r} is not a D-generator of the target")
    graph = _SolutionGraph.of_reduced(rb, ctx_c)
    ground = rb.base.ground
    return [ElementSet(ground, b) for b in sorted(graph.neighbor_bits(aset.bits))]


def enumerate_d_generators(
    ib: ImplicationalBase, c: int, *, order: str = "size-label"
) -> Iterator[ElementSet]:
    """All D-generators of c, each exactly once (BFS over the solution graph)."""
    ctx = ClosureContext.from_ib(ib)
    _require_standard(ctx)
    if not has_d_generators(ctx, c):
        return
    graph = _SolutionGraph.of_target(ctx, c, order)
    start = graph.min_reduce(graph.universe)
    visited = {start}
    queue = deque([start])
    while queue:
        bits = queue.popleft()
        yield ElementSet(ib.ground, bits)
        for nxt in graph.neighbor_bits(bits):
            if nxt not in visited:
                visited.add(nxt)
                queue.append(nxt)


class _DBaseRun:
    """Shared state for one full D-base enumeration."""

    def __init__(self, ib: ImplicationalBase, order: str, max_states: int | None):
        self.ib = ib
        self.ctx = ClosureContext.from_ib(ib)
        _require_standard(self.ctx)
        self.order = order
        self.max_states = max_states
        self.pending = [
            c for c in range(len(ib.ground)) if has_d_generators(self.ctx, c)
        ]
        self.pending_set = set(self.pending)
        self.graphs: dict[int, _SolutionGraph] = {}
        self.visited: set[int] = set()

    def graph_for(self, c: int) -> _SolutionGraph:
        if c not in self.graphs:
            self.graphs[c] = _SolutionGraph.of_target(self.ctx, c, self.order)
        return self.graphs[c]

    def admit(self, bits: int) -> bool:
        """Add a state to the visited set; False if it was there already."""
        if bits in self.visited:
            return False
        if self.max_states is not None and len(self.visited) >= self.max_states:
            raise StateLimitExceeded(f"visited-set cap {self.max_states} reached")
        self.visited.add(bits)
        return True

    def targets_of(self, bits: int) -> list[int]:
        ctx = self.ctx
        aset = ElementSet(self.ib.ground, bits)
        closure = ctx.close_bits(bits)
        # If c is in cl(a) for some a in A, then c lies in cl^b(A) minus x for
        # every x in A (c is not in A), so A is no D-generator of c.
        return [
            c
            for c in iter_bits(closure & ~bits)
            if c in self.pending_set
            and not bits & ctx.containers(c)
            and is_d_generator(ctx, aset, c)
        ]

    def run(self) -> Iterator[Implication]:
        ground = self.ib.ground
        for imp in binary_part(self.ctx):
            yield imp
        done: set[int] = set()
        for c in self.pending:
            if c in done:
                continue
            graph = self.graph_for(c)
            start = graph.min_reduce(graph.universe)
            if not self.admit(start):
                # The component holding genD(c) was fully explored already.
                done.add(c)
                continue
            queue = deque([start])
            while queue:
                bits = queue.popleft()
                targets = self.targets_of(bits)
                aset = ElementSet(ground, bits)
                for t in targets:
                    done.add(t)
                    yield Implication(aset, t)
                for t in targets:
                    for nxt in self.graph_for(t).neighbor_bits(bits):
                        if self.admit(nxt):
                            queue.append(nxt)


def iter_d_base(
    ib: ImplicationalBase,
    *,
    order: str = "size-label",
    max_states: int | None = None,
) -> Iterator[Implication]:
    """Stream the D-base: the full binary part first, then one implication
    A -> c per (D-generator, target) pair as the traversal visits A."""
    return _DBaseRun(ib, order, max_states).run()


def d_base(
    ib: ImplicationalBase,
    *,
    order: str = "size-label",
    max_states: int | None = None,
) -> ImplicationalBase:
    """The D-base as a canonical implicational base."""
    imps = list(iter_d_base(ib, order=order, max_states=max_states))
    return ImplicationalBase(ib.ground, imps).canonicalize()
