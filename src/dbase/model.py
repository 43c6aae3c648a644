"""Ground sets, bitset element sets, implications, set families and relations.

Elements are interned to dense 0-based indices at parse time; every algorithm
works on indices (int bitmasks), labels appear only at I/O boundaries.  All
types are immutable by convention: they are ``__slots__`` classes whose
attributes are set once in ``__init__`` and never reassigned, so instances are
safe to hash and to share across threads.  Nothing enforces it at run time.
``_byte_tables`` is the one builder of per-byte lookup tables, ``GroundSet``'s
labels and ``ClosureContext``'s cl^b, each built whole in the constructor.

Text formats
------------
IB file: first non-comment line ``ground: <label>+``, then one implication per
non-comment line ``<label>+ -> <label>+`` (multi-conclusion lines expand to
unit implications).  ``#`` starts a comment.  Set-family file: ground line,
then one set per line as whitespace-separated labels; a line holding the
single token ``.`` denotes the empty set (which can genuinely occur, e.g. as a
meet-irreducible of a chain).  Labels may not be empty, contain whitespace or
``->``, or equal ``.``; the label ``_d`` is reserved for the dualization
gadget and rejected in user input.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence

from .errors import (
    DuplicateGround,
    DuplicateSet,
    GroundMismatch,
    GroundTooLarge,
    NonBinaryImplication,
    NotAntichain,
    NotClosed,
    ParseError,
    UnknownElement,
)

DEFAULT_MAX_GROUND = 64
RESERVED_DUAL_LABEL = "_d"
EMPTY_SET_TOKEN = "."


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


_SET_BIT_FIRST = str.maketrans("01", "10")


def _index_order_key(bits: int) -> str:
    """A sort key that orders masks as ``tuple(iter_bits(bits))`` does.

    Character i stands for element i, ``0`` when it is present, so the first
    element in which two sets differ decides, the set holding it first, and
    a set whose elements begin another's sorts first.  Built by C-level
    string operations, with no Python loop over the bits.
    """
    return bin(bits)[:1:-1].translate(_SET_BIT_FIRST) if bits else ""


def _byte_tables(values: Sequence, join: Callable, empty) -> list[list]:
    """One table per chunk of 8 ``values``: entry v is ``empty`` joined with
    the values at v's set bits, lowest first."""
    tables = []
    for start in range(0, len(values), 8):
        table = [empty]
        for value in values[start : start + 8]:
            table += [join(entry, value) for entry in table]
        tables.append(table)
    return tables


class GroundSet:
    """Ordered universe of distinct element labels with dense indexing.

    ``labels_of`` prints a mask's labels from the ``_byte_tables`` of the
    labels, built in ``__init__``: entry v of a chunk's table is the labels
    of v's members joined by spaces, lowest first.  Equality and hashing
    read ``names`` alone, which the tables are a function of.
    """

    __slots__ = ("names", "index", "full_mask", "_label_tables")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        index: dict[str, int] = {}
        for pos, name in enumerate(names):
            if not name or name == EMPTY_SET_TOKEN:
                raise ParseError(f"invalid element label {name!r}")
            if "->" in name or any(ch.isspace() for ch in name):
                raise ParseError(f"invalid element label {name!r}")
            if name in index:
                raise DuplicateGround(f"duplicate element label {name!r}")
            index[name] = pos
        self.names = names
        self.index = index
        self.full_mask = (1 << len(names)) - 1
        self._label_tables = _byte_tables(
            names, lambda head, name: f"{head} {name}" if head else name, ""
        )

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"GroundSet({' '.join(self.names)})"

    def label(self, pos: int) -> str:
        return self.names[pos]

    def require_target(self, c: int) -> None:
        """Raise ``ValueError`` unless ``c`` indexes an element."""
        if not 0 <= c < len(self.names):
            raise ValueError(f"target {c} outside the ground set")

    def labels_of(self, bits: int) -> str:
        """The labels of the members of ``bits``, lowest first, joined by
        single spaces; the empty string for the empty set."""
        tables = self._label_tables
        # Only up to the highest set byte: zip stops at the shorter input.
        chunks = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        return " ".join([table[byte] for table, byte in zip(tables, chunks) if byte])

    def position(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownElement(f"unknown element {label!r}") from None

    def empty(self) -> "ElementSet":
        return ElementSet(self, 0)

    def full(self) -> "ElementSet":
        return ElementSet(self, self.full_mask)

    def set_of(self, labels: Iterable[str]) -> "ElementSet":
        bits = 0
        for label in labels:
            bits |= 1 << self.position(label)
        return ElementSet(self, bits)


class ElementSet:
    """Subset of a ground set backed by an int bitmask."""

    __slots__ = ("ground", "bits")

    def __init__(self, ground: GroundSet, bits: int):
        if bits & ~ground.full_mask:
            raise ValueError("bits outside the ground set")
        self.ground = ground
        self.bits = bits

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ground == other.ground and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.ground, self.bits))

    def __contains__(self, pos: int) -> bool:
        return self.bits >> pos & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def labels(self) -> tuple[str, ...]:
        return tuple(self.ground.names[i] for i in self)

    def __repr__(self) -> str:
        return "{%s}" % self.ground.labels_of(self.bits)


class Implication:
    """Unit implication: all of ``premise`` forces ``conclusion``."""

    __slots__ = ("premise", "conclusion")

    def __init__(self, premise: ElementSet, conclusion: int):
        # Range first: a negative conclusion must not reach the shift in
        # ``ElementSet.__contains__``.
        if not 0 <= conclusion < len(premise.ground):
            raise ValueError("conclusion outside the ground set")
        if conclusion in premise:
            raise ValueError("tautological implication")
        self.premise = premise
        self.conclusion = conclusion

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.premise == other.premise and self.conclusion == other.conclusion

    def __hash__(self) -> int:
        return hash((self.premise, self.conclusion))

    @property
    def is_binary(self) -> bool:
        return len(self.premise) == 1

    def sort_key(self) -> tuple:
        # Canonical order: binary first, each part by (sorted premise
        # indices, conclusion).
        return (not self.is_binary, _index_order_key(self.premise.bits), self.conclusion)

    def format(self) -> str:
        # An empty premise prints as "-> c", which the parser reads back.
        ground = self.premise.ground
        premise = ground.labels_of(self.premise.bits)
        conclusion = ground.names[self.conclusion]
        return f"{premise} -> {conclusion}" if premise else f"-> {conclusion}"

    def __repr__(self) -> str:
        return f"<{self.format()}>"


class ImplicationalBase:
    """Ordered, duplicate-free collection of unit implications."""

    __slots__ = ("ground", "implications")

    def __init__(self, ground: GroundSet, implications: Iterable[Implication]):
        seen: set[tuple[int, int]] = set()
        kept: list[Implication] = []
        for imp in implications:
            if imp.premise.ground != ground:
                raise ValueError("implication over a different ground set")
            key = (imp.premise.bits, imp.conclusion)
            if key not in seen:
                seen.add(key)
                kept.append(imp)
        self.ground = ground
        self.implications = tuple(kept)

    @classmethod
    def build(
        cls, ground: GroundSet, pairs: Iterable[tuple[int, int]]
    ) -> "ImplicationalBase":
        """Build from raw (premise bits, conclusion) pairs, dropping tautologies."""
        imps = [
            Implication(ElementSet(ground, bits), concl)
            for bits, concl in pairs
            if not bits >> concl & 1
        ]
        return cls(ground, imps)

    def __iter__(self) -> Iterator[Implication]:
        return iter(self.implications)

    def __len__(self) -> int:
        return len(self.implications)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ImplicationalBase)
            and self.ground == other.ground
            and self.implications == other.implications
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.implications))

    def __repr__(self) -> str:
        return f"ImplicationalBase({len(self.implications)} implications over {len(self.ground)} elements)"

    def binary(self) -> list[Implication]:
        return [imp for imp in self.implications if imp.is_binary]

    def nonbinary(self) -> list[Implication]:
        return [imp for imp in self.implications if not imp.is_binary]

    def require_binary(self) -> None:
        """Raise :class:`NonBinaryImplication` unless every premise is a singleton."""
        wide = self.nonbinary()
        if wide:
            raise NonBinaryImplication(f"non-binary implication {wide[0]!r}")

    def canonicalize(self) -> "ImplicationalBase":
        return ImplicationalBase(
            self.ground, sorted(self.implications, key=Implication.sort_key)
        )


class SetFamily:
    """Ordered listing of subsets of one ground set, held as masks."""

    __slots__ = ("ground", "masks")

    def __init__(self, ground: GroundSet, masks: Iterable[int]):
        masks = tuple(masks)
        if any(m & ~ground.full_mask for m in masks):
            raise ValueError("bits outside the ground set")
        self.ground = ground
        self.masks = masks

    @classmethod
    def from_bits(cls, ground: GroundSet, masks: Iterable[int]) -> "SetFamily":
        return cls(ground, masks)

    def bit_list(self) -> list[int]:
        return list(self.masks)

    def __iter__(self) -> Iterator[ElementSet]:
        return (ElementSet(self.ground, m) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SetFamily)
            and self.ground == other.ground
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.masks))

    def __repr__(self) -> str:
        return f"SetFamily({', '.join(repr(s) for s in self)})"

    def canonicalize(self) -> "SetFamily":
        masks = sorted(set(self.masks), key=_index_order_key)
        return SetFamily.from_bits(self.ground, masks)


def check_antichain_of_closed(
    b_plus: SetFamily, ground: GroundSet, is_closed: Callable[[int], bool]
) -> tuple[int, ...]:
    """The masks of ``b_plus`` once it is checked to lie over ``ground`` and
    to be an antichain of sets that ``is_closed`` accepts.

    Two distinct sets of one size are never comparable, so after one check
    for a repeated mask each member is compared only with the strictly
    larger ones: in a B+ of equal-sized members no pair is compared.
    """
    if b_plus.ground != ground:
        raise GroundMismatch(f"antichain over {b_plus.ground!r}, base over {ground!r}")
    masks = b_plus.masks
    for m in masks:
        if not is_closed(m):
            raise NotClosed(f"{ElementSet(ground, m)!r} is not closed")
    if len(masks) < 2:
        return masks
    if len(set(masks)) != len(masks):
        twice = next(m for m, count in Counter(masks).items() if count > 1)
        raise NotAntichain(f"{ElementSet(ground, twice)!r} is listed twice")
    by_size = sorted(masks, key=int.bit_count)
    sizes = [m.bit_count() for m in by_size]
    for m, size in zip(by_size, sizes):
        for k in by_size[bisect_right(sizes, size) :]:
            if m & ~k == 0:
                raise NotAntichain(
                    f"{ElementSet(ground, m)!r} and {ElementSet(ground, k)!r} are comparable"
                )
    return masks


class Relation:
    """Irreflexive binary relation over a ground set, stored as arcs (c, a)."""

    __slots__ = ("ground", "arcs")

    def __init__(self, ground: GroundSet, arcs: Iterable[tuple[int, int]]):
        arcs = frozenset(arcs)
        for c, a in arcs:
            if c == a:
                raise ValueError("relation must be irreflexive")
        self.ground = ground
        self.arcs = arcs

    def __len__(self) -> int:
        return len(self.arcs)

    def __contains__(self, arc: tuple[int, int]) -> bool:
        return arc in self.arcs

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Relation)
            and self.ground == other.ground
            and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.arcs))

    def pairs_sorted(self) -> list[tuple[int, int]]:
        return sorted(self.arcs)

    def __repr__(self) -> str:
        names = self.ground.names
        body = ", ".join(f"{names[c]}->{names[a]}" for c, a in self.pairs_sorted())
        return f"Relation({body})"


def _content_lines(text: str) -> list[list[str]]:
    """Tokenized non-empty lines with comments stripped."""
    lines = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            lines.append(tokens)
    return lines


def _parse_ground(
    lines: list[list[str]], max_ground: int
) -> tuple[GroundSet, list[list[str]]]:
    if not lines:
        raise ParseError("missing ground line")
    head = lines[0]
    if head[0] != "ground:":
        raise ParseError("first line must start with 'ground:'")
    labels = head[1:]
    if not labels:
        raise ParseError("ground line declares no elements")
    if len(labels) > max_ground:
        raise GroundTooLarge(f"{len(labels)} elements exceeds maximum {max_ground}")
    if RESERVED_DUAL_LABEL in labels:
        raise ParseError(f"label {RESERVED_DUAL_LABEL!r} is reserved")
    for tokens in lines[1:]:
        if tokens[0] == "ground:":
            raise DuplicateGround("more than one ground line")
    return GroundSet(labels), lines[1:]


def parse_ib(
    text: str,
    *,
    allow_empty_premise: bool = False,
    max_ground: int = DEFAULT_MAX_GROUND,
) -> ImplicationalBase:
    """Parse an implicational base; expands multi-conclusion lines to unit
    implications, drops tautologies and duplicates."""
    ground, body = _parse_ground(_content_lines(text), max_ground)
    pairs: list[tuple[int, int]] = []
    for tokens in body:
        arrows = [i for i, tok in enumerate(tokens) if tok == "->"]
        if any("->" in tok and tok != "->" for tok in tokens):
            raise ParseError(f"malformed arrow in line {' '.join(tokens)!r}")
        if len(arrows) != 1:
            raise ParseError(f"expected exactly one '->' in line {' '.join(tokens)!r}")
        split = arrows[0]
        premise_tokens, conclusion_tokens = tokens[:split], tokens[split + 1 :]
        if not premise_tokens and not allow_empty_premise:
            raise ParseError("empty premise (use allow_empty_premise to permit)")
        if not conclusion_tokens:
            raise ParseError(f"missing conclusion in line {' '.join(tokens)!r}")
        premise = 0
        for tok in premise_tokens:
            premise |= 1 << ground.position(tok)
        for tok in conclusion_tokens:
            pairs.append((premise, ground.position(tok)))
    return ImplicationalBase.build(ground, pairs)


def parse_set_family(
    text: str, *, max_ground: int = DEFAULT_MAX_GROUND
) -> SetFamily:
    """Parse a set family: one set per line; ``.`` denotes the empty set."""
    ground, body = _parse_ground(_content_lines(text), max_ground)
    masks: list[int] = []
    seen: set[int] = set()
    for tokens in body:
        if tokens == [EMPTY_SET_TOKEN]:
            bits = 0
        elif EMPTY_SET_TOKEN in tokens:
            raise ParseError("'.' must stand alone on its line")
        else:
            bits = 0
            for tok in tokens:
                bits |= 1 << ground.position(tok)
        if bits in seen:
            raise DuplicateSet(f"set {{{' '.join(tokens)}}} listed twice")
        seen.add(bits)
        masks.append(bits)
    return SetFamily.from_bits(ground, masks)


def serialize_ib(ib: ImplicationalBase) -> str:
    """Canonical text form: ground line, binary implications first."""
    out = ["ground: " + " ".join(ib.ground.names)]
    out.extend(imp.format() for imp in ib.canonicalize())
    return "\n".join(out) + "\n"


def serialize_set_family(family: SetFamily) -> str:
    """Canonical text form: ground line, members sorted by index tuple."""
    out = ["ground: " + " ".join(family.ground.names)]
    ground = family.ground
    for m in family.canonicalize().masks:
        out.append(ground.labels_of(m) if m else EMPTY_SET_TOKEN)
    return "\n".join(out) + "\n"


def serialize_relation(rel: Relation) -> str:
    """Edge list, one ``c -> a`` line per arc, sorted by indices."""
    names = rel.ground.names
    out = [f"{names[c]} -> {names[a]}" for c, a in rel.pairs_sorted()]
    return "\n".join(out) + ("\n" if out else "")
