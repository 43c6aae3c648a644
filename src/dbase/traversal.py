"""D-base enumeration from an implicational base by solution-graph traversal.

For a target element c, the D-generators of c are exactly the D-minimal keys
of the reduced base (U_c, Sigma_c).  The solution graph on them is traversed
breadth-first, with transitions obtained by substituting a premise of Sigma_c
into the binary closure of the current generator and re-minimizing greedily
(the Min procedure); a transition whose conclusion's cl^b misses the
generator's is skipped, which loses no D-generator.  The targets go one at a
time in ground order, each with its own graph, BFS from Min(U_c) and visited
set.  That yields every implication exactly once with polynomial delay.  The
visited set may grow exponentially; ``max_states`` caps it.

The traversal never materializes Sigma_c: every closure runs in the one
context of the input, where "X generates U_c" reads "c in cl(X)" (proof in
:class:`_SolutionGraph`), and the transitions are read off Sigma directly.
What does not depend on the target is made once per run: Min's steps in the
element order, and Sigma with the cl^b of each premise.  Each target's graph
is cut out of these two tables by U_c with bit operations alone.
Nearly all the work is Min's removability tests, each one :func:`chain`
stopped at the target, so each graph remembers walk results and failed
tests (:meth:`_SolutionGraph.min_reduce`).
:func:`build_reduced_base` and :func:`reduced_context` remain as the
paper-level construction that the tests check the traversal against, and
:func:`min_reduce` and :func:`neighbors` run the paper's own Min and full
N(A) on it.  The reference shares ``_reduced_pairs``, the element order,
U_c, the D-generator test and the standardness check with the traversal;
its Min, N(A) and closures of Sigma_c are its own.
"""
from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable, Iterator

from .closure import ClosureContext, binary_part, chain, is_standard
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

# Sets Min's memo and failed tests may hold together before both are cleared.
# They only save work, so clearing changes no result; one target's graph is
# alive at a time, so this bounds a whole run.
MEMO_CAP = 1 << 18


def _require_standard(ctx: ClosureContext) -> None:
    # The one standardness check of both routes; the Mi route imports it.
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
    ctx.require_ground(aset)
    ctx.ground.require_target(c)
    if aset.bits >> c & 1:
        raise TargetInSet(f"target {ctx.ground.label(c)!r} belongs to the set")
    return _is_key(ctx, aset.bits, 1 << c)


def restricted_universe(ctx: ClosureContext, c: int) -> ElementSet:
    """U_c: the elements whose singleton closure avoids c."""
    ctx.ground.require_target(c)
    return ElementSet(ctx.ground, ctx.full_mask & ~ctx.containers(c))


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


def _min_steps(ctx: ClosureContext, order: str) -> tuple[tuple[int, int], ...]:
    # Min's steps (bit, containers) of every element, in the element order.
    return tuple((1 << x, ctx.containers(x)) for x in element_order(ctx, order))


def _premise_table(ctx: ClosureContext) -> tuple[tuple[int, int, int], ...]:
    # Sigma as (premise bits, cl^b(premise), conclusion), in the order of Sigma.
    clb = ctx.close_binary_bits
    return tuple(
        (imp.premise.bits, clb(imp.premise.bits), imp.conclusion) for imp in ctx.source
    )


def _reduced_pairs(
    sigma: tuple[tuple[int, int, int], ...], ubits: int
) -> Iterator[tuple[int, int, int]]:
    # Sigma_c as (premise bits, cl^b(premise), conclusion), in the order of
    # Sigma, read off ``_premise_table``.
    for pbits, clb, d in sigma:
        if pbits & ~ubits:
            continue
        if ubits >> d & 1:
            yield pbits, clb, d
        else:
            for b in iter_bits(ubits & ~clb):
                yield pbits, clb, b


class ReducedBase(namedtuple("ReducedBase", "target universe base ordering")):
    """The restriction (U_c, Sigma_c) used to enumerate genD(c): the target
    (int), U_c (ElementSet), Sigma_c (ImplicationalBase) and the Min order
    restricted to U_c (tuple of ints)."""

    __slots__ = ()


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
    pairs = _reduced_pairs(_premise_table(ctx), ubits)
    base = ImplicationalBase.build(ib.ground, ((p, d) for p, _, d in pairs))
    ordering = tuple(a for a in element_order(ctx, order) if ubits >> a & 1)
    return ReducedBase(target=c, universe=universe, base=base, ordering=ordering)


def reduced_context(rb: ReducedBase) -> ClosureContext:
    """Closure context of (U_c, Sigma_c); its cl^b equals the original cl^b
    on subsets of U_c."""
    return ClosureContext.from_ib(rb.base)


class _SolutionGraph:
    """One target's solution graph: Min, its memos and candidate windows.

    The graph runs on the input's own context, where a set X inside U_c
    spans when c is in cl(X).  That is the paper's cl_c(X) = U_c on the
    reduced base (fact 4), so the traversal never builds Sigma_c.

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
    5. Every window spans.  The window of a spanning A and a transition
       B -> d is W = cl^b((cl^b(A) minus cl^b(d)) union B).  If B -> d is
       valid (in Sigma_1), then B lies in W, so d and cl^b(d) lie in
       cl(W); hence cl^b(A) lies in cl(W), and so does cl(A), which holds
       c.  If B -> d is an expansion of a source B -> d' with d' outside
       U_c, then d' lies in cl(W), and so does c, which is in cl(d').  So
       windows go to Min untested.
    6. Min tests only cl^b-closed X inside U_c (windows and U_c are, and
       dropping an extreme element keeps a set so).  Such an X respects
       every one-element premise, and standardness rules out an empty
       premise (an empty -> d leaves cl(d) minus d unclosed), so chaining
       X over the context's rules, each firing a whole cl^b of conclusions,
       reaches cl(X).  ``rules`` keeps those with premise inside U_c: the
       others cannot fire while the chain stays in U_c, and a firing that
       leaves U_c adds some cl(d) with d outside U_c, which holds c.  So the
       chain reaches c iff c in cl(X), in any rule order: exit rules, whose
       mask holds c, go first.
    7. A transition B -> d whose cut cl^b(A) & cl^b(d) is empty may be
       dropped: BFS from any seed still reaches every D-generator.  Let G
       be the visited set at the end, closed under the kept transitions,
       and A' a D-generator outside G.  Take T inside U_c maximal among the
       cl^b-closed sets that hold cl^b(A') and hold cl^b(A) for no A in G
       (cl^b(A') is one, since cl^b(A) inside cl^b(A') forces A = A' by
       D-minimality).  T spans and is not U_c, so by 3 and 4 some non-binary
       B -> d of Sigma_c has B in T and d not.  By maximality the
       cl^b-closed T | cl^b(d) holds cl^b(A) for some A in G, so that cut is
       not empty, and the window lies in T.  It spans (5), so its Min is in
       G with cl^b inside T: a contradiction.

    By 1 and 3 the windows and Min's extremality tests are those of the
    reduced base, and by 2 the transitions come straight from Sigma.
    ``memo`` and ``fails`` (see :meth:`min_reduce`) last the target's whole
    traversal.

    From the run the graph gets the context and two tables that hold for
    every target: ``steps``, each element's (bit, containers) in the
    element order, and ``sigma``, each implication of Sigma as (premise
    bits, cl^b(premise), conclusion).  It keeps the steps inside U_c, the
    context's rules with premise inside U_c (exit rules first), and groups
    the non-singleton premises' cl^b in Sigma_c (``_reduced_pairs``) by
    conclusion, so that it computes no closure of its own.
    """

    __slots__ = (
        "ctx", "cbit", "universe", "steps", "rules", "transitions", "memo", "fails"
    )

    def __init__(
        self,
        ctx: ClosureContext,
        c: int,
        steps: tuple[tuple[int, int], ...],
        sigma: tuple[tuple[int, int, int], ...],
    ):
        universe = restricted_universe(ctx, c).bits
        self.ctx = ctx
        self.cbit = cbit = 1 << c
        self.universe = universe
        self.steps = tuple(step for step in steps if step[0] & universe)
        exits: list[tuple[int, int]] = []
        others: list[tuple[int, int]] = []
        for rule in ctx.rules:
            if rule[0] & ~universe == 0:
                (exits if rule[1] & cbit else others).append(rule)
        self.rules = (*exits, *others)
        groups: dict[int, set[int]] = {}
        for pbits, clb, d in _reduced_pairs(sigma, universe):
            if pbits.bit_count() != 1:
                groups.setdefault(d, set()).add(clb)
        self.transitions = [
            (ctx.singleton_closure(d), tuple(clbs)) for d, clbs in groups.items()
        ]
        self.memo: dict[int, int] = {}
        self.fails: set[int] = set()

    def min_reduce(self, fbits: int) -> int:
        """Greedy Min on a cl^b-closed spanning set; returns D-generator bits.

        Each step drops the first element of ``steps`` (bit, containers)
        that is extreme in the current set (no other member's singleton
        closure holds it) and removable (the rest still spans), then
        rescans from the front; the walk ends when nothing is removable,
        and returns the minimal elements of what is left.  An element that
        fails its test stays unremovable (closures only shrink as the set
        does), so each element is tested at most once.

        Every set the walk passes through goes into ``memo`` with the
        result, and a walk stops at its first memo hit.  This is exact, as
        the step taken from a set depends on that set alone (dead elements
        would fail again).  Every key spans (a walk starts at U_c or a
        window, fact 5, and each step passes a test), so a rest that is a
        key passes, one in ``fails`` fails, and only the others chain over
        ``rules`` (fact 6).  Both are cleared once they hold ``MEMO_CAP``
        sets together.
        """
        memo, fails = self.memo, self.fails
        kernel = memo.get(fbits)
        if kernel is not None:
            return kernel
        rules, cbit = self.rules, self.cbit
        cur = fbits
        walk = [cur]
        dead = 0
        while True:
            for bx, up in self.steps:
                if up & cur != bx or dead & bx:
                    continue  # absent, not extreme (may become so) or dead
                rest = cur ^ bx
                if rest in memo or (
                    rest not in fails and chain(rest, rules, cbit) & cbit
                ):
                    cur = rest
                    break
                fails.add(rest)
                dead |= bx
            else:
                kernel = self.ctx.minimal_elements(cur)
                break
            kernel = memo.get(cur)
            if kernel is not None:
                break
            walk.append(cur)
        if len(memo) + len(fails) >= MEMO_CAP:
            memo.clear()
            fails.clear()
        for bits in walk:
            memo[bits] = kernel
        return kernel

    def windows(self, abits: int) -> set[int]:
        """The distinct windows cl^b((cl^b(A) minus cl^b(d)) union B) of a
        spanning A, one per transition B -> d with a cut (fact 7); each
        spans (fact 5).  For S = cl^b(A), cl^b(S minus cl^b(d)) is S minus
        cl^b(d) plus each cut y whose ``containers`` meet S minus cl^b(d);
        OR-ing cl^b(B) completes the window, as cl^b distributes over
        union."""
        ctx = self.ctx
        containers = ctx.containers
        clb_a = ctx.close_binary_bits(abits)
        out: set[int] = set()
        for cl_d, premise_closures in self.transitions:
            cut = clb_a & cl_d
            if not cut:
                continue
            base = kept = clb_a ^ cut
            while cut:
                low = cut & -cut
                if containers(low.bit_length() - 1) & kept:
                    base |= low
                cut ^= low
            out.update(map(base.__or__, premise_closures))
        return out

    def traverse(self, max_states: int | None = None) -> Iterator[int]:
        """Breadth-first search from Min(U_c), yielding each D-generator of
        the target once; by fact 7 it reaches all of genD(c).  Admitting a
        state past ``max_states`` visited ones raises
        :class:`StateLimitExceeded`."""
        visited: set[int] = set()
        queue: deque[int] = deque()
        fresh: Iterable[int] = (self.min_reduce(self.universe),)
        while True:
            for bits in fresh:
                if bits in visited:
                    continue
                if max_states is not None and len(visited) >= max_states:
                    raise StateLimitExceeded(f"visited-set cap {max_states} reached")
                visited.add(bits)
                queue.append(bits)
            if not queue:
                return
            bits = queue.popleft()
            yield bits
            fresh = {self.min_reduce(w) for w in self.windows(bits)}


def min_reduce(rb: ReducedBase, ctx_c: ClosureContext, fset: ElementSet) -> ElementSet:
    """Min procedure: repeatedly drop the first removable extreme element of
    the current cl_c^b-closed set (first in the fixed ordering, removable
    when the remainder still generates U_c), then return the minimal spanning
    set of what is left, a D-generator of the target."""
    cur = fset.bits
    ubits = rb.universe.bits
    if ctx_c.close_binary_bits(cur) != cur:
        raise NotSpanning(f"{fset!r} is not closed under the reduced binary part")
    if ctx_c.close_bits(cur) != ubits:
        raise NotSpanning(f"{fset!r} does not generate the restricted universe")
    while True:
        for x in rb.ordering:
            bx = 1 << x
            if ctx_c.containers(x) & cur == bx and ctx_c.close_bits(cur & ~bx) == ubits:
                cur &= ~bx
                break
        else:
            return ElementSet(rb.base.ground, ctx_c.minimal_elements(cur))


def neighbors(rb: ReducedBase, ctx_c: ClosureContext, aset: ElementSet) -> list[ElementSet]:
    """Transition function N(A): one Min-reduced candidate per non-binary
    implication B -> d of Sigma_c, from cl_c^b((cl_c^b(A) minus cl_c^b(d))
    union B); deduplicated."""
    ubits = rb.universe.bits
    if aset.bits & ~ubits or not _is_key(ctx_c, aset.bits, ubits):
        raise NotDGenerator(f"{aset!r} is not a D-generator of the target")
    ground = rb.base.ground
    clb_a = ctx_c.close_binary_bits(aset.bits)
    out: set[int] = set()
    for imp in rb.base.nonbinary():
        clb_d = ctx_c.close_binary_bits(1 << imp.conclusion)
        window = ctx_c.close_binary_bits(clb_a & ~clb_d | imp.premise.bits)
        out.add(min_reduce(rb, ctx_c, ElementSet(ground, window)).bits)
    return [ElementSet(ground, b) for b in sorted(out)]


def enumerate_d_generators(
    ib: ImplicationalBase, c: int, *, order: str = "size-label"
) -> Iterator[ElementSet]:
    """All D-generators of c, each exactly once (BFS over the solution graph)."""
    ctx = ClosureContext.from_ib(ib)
    _require_standard(ctx)
    if not has_d_generators(ctx, c):
        return
    graph = _SolutionGraph(ctx, c, _min_steps(ctx, order), _premise_table(ctx))
    for bits in graph.traverse():
        yield ElementSet(ib.ground, bits)


def iter_d_base(
    ib: ImplicationalBase,
    *,
    order: str = "size-label",
    max_states: int | None = None,
) -> Iterator[Implication]:
    """Stream the D-base: the full binary part first, then target by target
    in ground order, one implication A -> c per D-generator A of c as c's
    traversal visits A.  ``max_states`` caps each target's visited set."""
    ctx = ClosureContext.from_ib(ib)
    _require_standard(ctx)
    steps, sigma = _min_steps(ctx, order), _premise_table(ctx)
    yield from binary_part(ctx)
    ground = ib.ground
    for c in range(len(ground)):
        if has_d_generators(ctx, c):
            # The graph, its memo and its visited set die with the loop.
            for bits in _SolutionGraph(ctx, c, steps, sigma).traverse(max_states):
                yield Implication(ElementSet(ground, bits), c)


def d_base(
    ib: ImplicationalBase,
    *,
    order: str = "size-label",
    max_states: int | None = None,
) -> ImplicationalBase:
    """The D-base as a canonical implicational base."""
    imps = list(iter_d_base(ib, order=order, max_states=max_states))
    return ImplicationalBase(ib.ground, imps).canonicalize()
