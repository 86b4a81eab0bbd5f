"""Set partitions of {1, ..., n} and the lonely/marriageable classification.

A set partition is *noncrossing* when no two blocks interleave: there are no
elements a < c < b < d with a, b in one block and c, d in another. Among the
noncrossing partitions, one containing two singleton blocks {i} and {j} whose
replacement by the pair block {i, j} leaves the partition noncrossing is a
*marriageable singles* partition; a noncrossing partition with no such pair
is a *lonely singles* partition.

The module provides the canonical :class:`Partition` value, one linear scan
that decides nesting and groups the singletons by region (the noncrossing
test and the classifier both read it), and six constructive maps that grow
classified partitions by one or two elements while preserving their class.
The classifier returns the witness, the least mergeable singleton pair, or
None for a lonely partition: the witness is the whole classification.
It also holds :func:`check_size`, the one check of a ground-set size that
every entry point of the library runs.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


class CeilingExceededError(ValueError):
    """A ground-set size above an operation's ceiling, raised only by :func:`check_size`.

    The CLI exits 65 on it.
    """


def check_size(n: int, *, least: int = 0, ceiling: "int | None" = None, what: str = "") -> None:
    """Refuse a ground-set size: every entry point of the library checks its n here.

    Raises ValueError unless ``n`` is an int (bools refused) of at least
    ``least``, and CeilingExceededError, naming ``what``, when it is above
    ``ceiling``.
    """
    if type(n) is not int or n < least:
        raise ValueError("ground set size must be " + (f"at least {least}" if least else "nonnegative"))
    if ceiling is not None and n > ceiling:
        raise CeilingExceededError(f"{what} is capped at n={ceiling}, got {n}")


@dataclass(frozen=True)
class Partition:
    """A set partition of {1, ..., n} in canonical form.

    Blocks are stored as ascending tuples, ordered by their minimum element,
    and are the whole value: :meth:`to_text` joins them on each call.
    Construction canonicalizes and validates (only the enumeration walker's
    views and ``intersection.msl_to_partition`` skip both, through
    :meth:`_canonical`), so two partitions are equal exactly when they
    partition the same ground set the same way.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blocks = [tuple(b) for b in blocks]
        # checked before sorting, which would raise TypeError on mixed types
        if any(type(x) is not int for b in blocks for x in b):
            raise ValueError("elements must be ints")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        self._validate()

    @classmethod
    def _canonical(cls, n: int, blocks: "Iterable[tuple[int, ...]]") -> "Partition":
        """A partition from canonical blocks, unchecked; it keeps its own tuple, so a live list may be passed.

        Three callers, each guarded by a test that compares its output with
        ``Partition(n, blocks)``: ``enumeration.noncrossing_partitions`` and
        ``enumeration.classified_stream``, which pass the walker's live list
        of blocks, opened in order of their minimum, grown upward and covering
        1..n (``test_walker_partitions_are_canonical`` through n = 10 and
        ``test_walker_state_is_a_checked_partition_through_12``), and
        ``intersection.msl_to_partition``, which reads each orbit up from its
        least element (``test_msl_partitions_are_canonical``, through n = 10).
        """
        self = object.__new__(cls)
        self.__dict__.update(n=n, blocks=tuple(blocks))  # one write past the frozen __setattr__
        return self

    def _validate(self) -> None:
        check_size(self.n)
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x < 1 or x > self.n:
                    raise ValueError(f"element {x!r} outside 1..{self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != self.n:
            # from the elements given, not from 1..n: a short text may name a huge n
            least = next((i for i, x in enumerate(sorted(seen), 1) if i != x), len(seen) + 1)
            raise ValueError(f"missing {self.n - len(seen)} of the elements 1..{self.n}, the least {least}")

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


def _regions(p: Partition) -> "dict[tuple[int, int] | None, list[int]] | None":
    """The singletons of ``p`` grouped by region in one scan, or None when ``p`` crosses.

    Walking positions 1..n, the stack holds the region inside each open
    block, innermost last, as ``(block index, gap index)`` with the gap index
    counting the block's elements seen so far, above ``None``, the top level.
    A singleton joins the region on top. A further element of a block must
    find that block on top; anything else certifies a crossing.
    """
    blocks = p.blocks
    block_of: "list[int | None]" = [None] * (p.n + 1)  # None marks a singleton
    for b, block in enumerate(blocks):
        if len(block) > 1:
            for x in block:
                block_of[x] = b
    regions: dict[tuple[int, int] | None, list[int]] = {}
    stack: "list[tuple[int, int] | None]" = [None]
    for pos in range(1, p.n + 1):
        b = block_of[pos]
        if b is None:
            regions.setdefault(stack[-1], []).append(pos)
        elif pos == blocks[b][0]:
            stack.append((b, 1))
        elif stack[-1][0] != b:  # b is open, so the top is a block, not None
            return None
        elif pos == blocks[b][-1]:
            stack.pop()
        else:
            stack[-1] = (b, stack[-1][1] + 1)
    return regions


def is_noncrossing(p: Partition) -> bool:
    """Linear-time noncrossing test: the region scan completes."""
    return _regions(p) is not None


def nesting_forest(p: Partition) -> "dict[tuple[int, int] | None, tuple[int, ...]]":
    """Group the singletons of a noncrossing partition by region, in one scan.

    A region is ``(block index, gap index)``, the gap index counting the
    elements of the enclosing block to the singleton's left, or ``None`` for
    the top level; see :func:`classify`.
    """
    regions = _regions(p)
    if regions is None:
        raise ValueError("classification requires a noncrossing partition")
    return {k: tuple(v) for k, v in regions.items()}


def classify(p: Partition) -> "tuple[int, int] | None":
    """The witness of a noncrossing partition, its least mergeable singleton pair, or None when lonely.

    The witness is the whole classification: a partition is lonely exactly
    when no pair of its singletons can be merged, so ``classify(p) is None``
    reads the class. It is found from the singleton regions in linear time.

    A region is the top level or one gap of one block (see
    :func:`nesting_forest`). Two singletons can be merged into a pair block
    without creating a crossing exactly when they share a region: any block
    with an element strictly between the two singletons and another element
    outside their span would cross the merged pair, and equal regions rule
    exactly that out. The region is finer than the enclosing block alone,
    because elements of that block also separate its gaps. So the partition
    is marriageable exactly when some region holds two or more singletons,
    and the witness, the lexicographically smallest mergeable pair (i, j),
    i < j, is the least first two members of such a region. Raises
    ValueError on a crossing partition.
    """
    pairs = [members[:2] for members in nesting_forest(p).values() if len(members) >= 2]
    return min(pairs) if pairs else None


classify_fast = classify  # kept only because bench/tracer.py wraps this name


def _require_kind(p: Partition, kind: Kind, who: str) -> None:
    found = Kind.LONELY if classify(p) is None else Kind.MARRIAGEABLE
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
