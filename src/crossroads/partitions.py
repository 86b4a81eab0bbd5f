"""Set partitions of {1, ..., n} and the lonely/marriageable classification.

A set partition is *noncrossing* when no two blocks interleave: there are no
elements a < c < b < d with a, b in one block and c, d in another. Among the
noncrossing partitions, one containing two singleton blocks {i} and {j} whose
replacement by the pair block {i, j} leaves the partition noncrossing is a
*marriageable singles* partition; a noncrossing partition with no such pair
is a *lonely singles* partition.

The module provides the canonical :class:`Partition` value, the noncrossing
predicates (a linear scan and the quartic definitional oracle), the merge
test that states the definition, one classifier that reads the singleton
regions from a single scan, and six constructive maps that grow classified
partitions by one or two elements while preserving their class.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


class CeilingExceededError(ValueError):
    """Raised when an exhaustive operation is asked to exceed its ceiling."""


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n} in canonical form.

    Blocks are stored as ascending tuples, ordered by their minimum element.
    Construction canonicalizes and validates (only the enumeration walker
    skips both, through :meth:`_canonical`), so two partitions are equal
    exactly when they partition the same ground set the same way.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]
    _text = None  # slash form stored by _canonical; not a field, so ==, hash and repr ignore it

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        self._validate()

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...], text: str) -> "Partition":
        """A partition from the walker's blocks and their slash form, neither checked.

        The walker opens blocks in order of their minimum, grows them upward
        and covers 1..n; ``test_walker_partitions_are_canonical`` checks its
        output and text against ``Partition(n, blocks)`` through n = 10.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_text", text)
        return self

    def _validate(self) -> None:
        if self.n < 0:
            raise ValueError("ground set size must be nonnegative")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if type(x) is not int or x < 1 or x > self.n:
                    raise ValueError(f"element {x!r} outside 1..{self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise ValueError(f"missing elements {missing}")

    @classmethod
    def from_text(cls, text: str) -> "Partition":
        """Parse the slash form, e.g. ``1,2/3/4``; empty string is [0].

        Elements are ASCII digits without sign, space, underscore or leading
        zero, as :meth:`to_text` writes them. Rejects duplicates, gaps, and
        anything that is not a partition of a contiguous range 1..n.
        """
        if not text:
            return cls(0, ())
        blocks = []
        for part in text.split("/"):
            tokens = part.split(",")
            if not all(t.isascii() and t.isdigit() and t[0] != "0" for t in tokens):
                raise ValueError(f"malformed block {part!r} in partition text")
            blocks.append(list(map(int, tokens)))
        n = max(max(b) for b in blocks)
        return cls(n, blocks)

    def to_text(self) -> str:
        """Inverse of :meth:`from_text`."""
        if self._text is not None:
            return self._text
        return "/".join([",".join(map(str, b)) for b in self.blocks])

    @property
    def singletons(self) -> tuple[int, ...]:
        """Positions that form blocks of size one, ascending."""
        return tuple(b[0] for b in self.blocks if len(b) == 1)

    def __str__(self) -> str:
        return self.to_text() or "(empty)"


class Kind(enum.Enum):
    LONELY = "lonely"
    MARRIAGEABLE = "marriageable"


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying a noncrossing partition.

    ``witness`` is a mergeable singleton pair (i, j) with i < j, present
    exactly when the kind is marriageable; it is the lexicographically
    smallest such pair.
    """

    kind: Kind
    witness: "tuple[int, int] | None" = None

    @property
    def is_lonely(self) -> bool:
        return self.kind is Kind.LONELY


def _block_ends(p: Partition) -> "tuple[list[int], list[int], list[int]]":
    """Block index of each position 1..n, and the first and last element of each block."""
    block_of = [0] * (p.n + 1)
    for idx, block in enumerate(p.blocks):
        for x in block:
            block_of[x] = idx
    return block_of, [b[0] for b in p.blocks], [b[-1] for b in p.blocks]


def is_noncrossing(p: Partition) -> bool:
    """Linear-time noncrossing test via a single scan with a stack.

    Walking positions 1..n, a block must sit on top of the stack whenever it
    receives a further element; anything else certifies a crossing.
    """
    block_of, first, last = _block_ends(p)
    stack: list[int] = []
    for pos in range(1, p.n + 1):
        b = block_of[pos]
        if pos == first[b]:
            stack.append(b)
        elif not stack or stack[-1] != b:
            return False
        if pos == last[b]:
            stack.pop()
    return True


def is_noncrossing_definitional(p: Partition) -> bool:
    """Quartic oracle straight from the definition; kept for tests.

    Checks every pair of blocks for interleaved element pairs a < c < b < d.
    """
    multi = [b for b in p.blocks if len(b) >= 2]
    for bi, bj in combinations(multi, 2):
        for a, b in combinations(bi, 2):
            for c, d in combinations(bj, 2):
                if a < c < b < d or c < a < d < b:
                    return False
    return True


def nesting_forest(p: Partition) -> "dict[tuple[int, int] | None, tuple[int, ...]]":
    """Group the singletons of a noncrossing partition by region, in one scan.

    A region is ``(block index, gap index)``, the gap index counting the
    elements of the enclosing block to the singleton's left, or ``None`` for
    the top level; see :func:`classify`.
    """
    block_of, first, last = _block_ends(p)
    regions: dict[tuple[int, int] | None, list[int]] = {}
    placed = [0] * len(p.blocks)
    stack: list[int] = []
    for pos in range(1, p.n + 1):
        b = block_of[pos]
        if pos == first[b]:
            if pos == last[b]:
                key = (stack[-1], placed[stack[-1]]) if stack else None
                regions.setdefault(key, []).append(pos)
            stack.append(b)
        elif not stack or stack[-1] != b:
            raise ValueError("classification requires a noncrossing partition")
        placed[b] += 1
        if pos == last[b]:
            stack.pop()
    return {k: tuple(v) for k, v in regions.items()}


def merge_singletons(p: Partition, i: int, j: int) -> Partition:
    """Replace singleton blocks {i} and {j} with the pair block {i, j}.

    The result is re-canonicalized and may well be crossing; no noncrossing
    guarantee is made here.
    """
    _require_singleton_pair(p, i, j)
    blocks = [b for b in p.blocks if b not in ((i,), (j,))]
    blocks.append((i, j))
    return Partition(p.n, blocks)


def can_merge(p: Partition, i: int, j: int) -> bool:
    """True when merging singletons {i} and {j} keeps the partition noncrossing."""
    return is_noncrossing(merge_singletons(p, i, j))


def _require_singleton_pair(p: Partition, i: int, j: int) -> None:
    if i >= j:
        raise ValueError("expected i < j")
    for x in (i, j):
        if (x,) not in p.blocks:
            raise ValueError(f"{{{x}}} is not a singleton block")


def classify(p: Partition) -> Classification:
    """Classify a noncrossing partition from its singleton regions, in linear time.

    A region is the top level or one gap of one block (see
    :func:`nesting_forest`). Two singletons can be merged into a pair block
    without creating a crossing exactly when they share a region: any block
    with an element strictly between the two singletons and another element
    outside their span would cross the merged pair, and equal regions rule
    exactly that out. The region is finer than the enclosing block alone,
    because elements of that block also separate its gaps. So the partition
    is marriageable exactly when some region holds two or more singletons,
    and the witness, the lexicographically smallest mergeable pair, is the
    least first two members of such a region. Raises ValueError on a
    crossing partition.
    """
    pairs = [members[:2] for members in nesting_forest(p).values() if len(members) >= 2]
    if not pairs:
        return Classification(Kind.LONELY)
    return Classification(Kind.MARRIAGEABLE, min(pairs))


classify_fast = classify  # kept only because bench/tracer.py wraps this name


def _require_kind(p: Partition, kind: Kind, who: str) -> None:
    found = classify(p).kind
    if found is not kind:
        raise ValueError(f"{who} requires a {kind.value} partition, got {found.value}")


def grow_lonely(p: Partition) -> Partition:
    """Extend a lonely partition of [n] to a lonely partition of [n+1].

    The new element n+1 joins the block containing 1. On the empty partition
    the result is {{1}}, the only partition of [1]. Injective, and the
    partition {{1,...,n},{n+1}} is lonely but never produced, which is what
    makes the lonely sequence strictly increasing.
    """
    if p.n == 0:
        return Partition(1, ((1,),))
    _require_kind(p, Kind.LONELY, "grow_lonely")
    blocks = [b + (p.n + 1,) if b[0] == 1 else b for b in p.blocks]
    return Partition(p.n + 1, blocks)


def grow_marriageable(p: Partition) -> Partition:
    """Append the singleton {n+1} to a marriageable partition of [n]."""
    _require_kind(p, Kind.MARRIAGEABLE, "grow_marriageable")
    return Partition(p.n + 1, p.blocks + ((p.n + 1,),))


def add_singleton_pair(p: Partition) -> Partition:
    """Add singletons {n+1} and {n+2} to any noncrossing partition of [n].

    The two new top-level singletons are adjacent, so the result is always
    marriageable.
    """
    if not is_noncrossing(p):
        raise ValueError("add_singleton_pair requires a noncrossing partition")
    return Partition(p.n + 2, p.blocks + ((p.n + 1,), (p.n + 2,)))


def add_pair_block(p: Partition) -> Partition:
    """Add the pair block {n+1, n+2} to a marriageable partition of [n]."""
    _require_kind(p, Kind.MARRIAGEABLE, "add_pair_block")
    return Partition(p.n + 2, p.blocks + ((p.n + 1, p.n + 2),))


def absorb_into_first(p: Partition) -> Partition:
    """Join n+2 to the block containing 1 and add the singleton {n+1}.

    Requires a marriageable partition of [n] with n >= 1; the mergeable pair
    survives inside the stretched first block, so the result stays
    marriageable.
    """
    _require_kind(p, Kind.MARRIAGEABLE, "absorb_into_first")
    blocks = [b + (p.n + 2,) if b[0] == 1 else b for b in p.blocks]
    blocks.append((p.n + 1,))
    return Partition(p.n + 2, blocks)


def absorb_into_last(p: Partition) -> Partition:
    """Join n+1 to the block containing n and add the singleton {n+2}."""
    _require_kind(p, Kind.MARRIAGEABLE, "absorb_into_last")
    blocks = [b + (p.n + 1,) if p.n in b else b for b in p.blocks]
    blocks.append((p.n + 2,))
    return Partition(p.n + 2, blocks)
