"""Set partitions of {1, ..., n} and the lonely/marriageable classification.

A set partition is *noncrossing* when no two blocks interleave: there are no
elements a < c < b < d with a, b in one block and c, d in another. Among the
noncrossing partitions, one containing two singleton blocks {i} and {j} whose
replacement by the pair block {i, j} leaves the partition noncrossing is a
*marriageable singles* partition; a noncrossing partition with no such pair
is a *lonely singles* partition.

The module provides the canonical :class:`Partition` value, the one region
scan of both models, :func:`_u_turn_regions` over the exit permutation of
the lane bijection :func:`_exits`, which ``Msl``, ``is_absolute``,
:func:`is_noncrossing`, :func:`nesting_forest` and :func:`classify` all read.
The classifier returns the witness, the least mergeable singleton pair, or
None for a lonely partition: the witness is the whole classification.
It also holds :func:`check_size`, the one check of a ground-set size that
every entry point of the library runs.
"""
from __future__ import annotations

import enum
from typing import Iterable, Iterator


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


class _Record:
    """A frozen record whose fields, in order, are its ``__match_args__``, which its class also names as ``__slots__``.

    A subclass's ``__init__`` checks its fields, then sets them here. Equality
    (within one class), hashing and ``repr`` read them; copies and unpickled
    records are built by the constructor, so they are checked too.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self.__match_args__, self._values()))})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Partition(_Record):
    """A set partition of {1, ..., n} in canonical form.

    Blocks are stored as ascending tuples, ordered by their minimum element,
    and are the whole value: :meth:`to_text` joins them on each call.
    Construction canonicalizes and validates (only the enumeration walker's
    views and ``intersection.msl_to_partition`` skip both, through
    :meth:`_canonical`), so two partitions are equal exactly when they
    partition the same ground set the same way.
    """

    __slots__ = __match_args__ = ("n", "blocks")

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        blocks = [tuple(b) for b in blocks]
        # checked before sorting, which would raise TypeError on mixed types
        if any(type(x) is not int for b in blocks for x in b):
            raise ValueError("elements must be ints")
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0))
        check_size(n)
        seen: set[int] = set()
        for block in canon:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x < 1 or x > n:
                    raise ValueError(f"element {x!r} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} appears twice")
                seen.add(x)
        if len(seen) != n:
            # from the elements given, not from 1..n: a short text may name a huge n
            least = next((i for i, x in enumerate(sorted(seen), 1) if i != x), len(seen) + 1)
            raise ValueError(f"missing {n - len(seen)} of the elements 1..{n}, the least {least}")
        super().__init__(n, canon)

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
        object.__setattr__(self, "n", n)  # past the frozen __setattr__
        object.__setattr__(self, "blocks", tuple(blocks))
        return self

    def __eq__(self, other):  # spelled out: the lane round trip compares partitions by the thousand
        return self.n == other.n and self.blocks == other.blocks if other.__class__ is self.__class__ else NotImplemented

    __hash__ = _Record.__hash__  # a class that defines __eq__ alone is unhashable

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


def _u_turn_regions(exits: "Iterable[int]") -> "list[int] | None":
    """Each U-turn's region in entry order, or None when the chords cross.

    One parenthesis scan over E_1, X_1, ..., E_n, X_n; ``exits`` is a
    permutation, so nesting is being pairwise noncrossing. The stack holds
    the open lanes: a lane opened at an entry as its exit j, one opened at
    exit X_i as -i, and the top level as 0. X_i closes the top lane if that
    lane is i and otherwise opens -i; an entry whose exit x lies before it
    must close -x. The chords nest exactly when every close matches and only
    the top level is left. A U-turn opens and closes at once, so its region
    is the top of the stack, the id of the innermost lane around it.
    """
    open_lanes = [0]
    regions = []
    for entry, exit in enumerate(exits, 1):
        if exit > entry:  # E_entry opens a lane, and X_entry cannot close it: it opens -entry
            open_lanes.append(exit)
            open_lanes.append(-entry)
        elif exit == entry:
            regions.append(open_lanes[-1])
        elif open_lanes.pop() != -exit:
            return None
        elif open_lanes[-1] == entry:
            open_lanes.pop()
        else:
            open_lanes.append(-entry)
    return regions if len(open_lanes) == 1 else None


def _exits(n: int, blocks: "Iterable[tuple[int, ...]]") -> "list[int]":
    """The exit of each entry under the lane bijection, from ascending blocks covering 1..n.

    A block a_1 < ... < a_k contributes the long lane E_{a_1}>X_{a_k} and the
    return lanes E_{a_{t+1}}>X_{a_t}; a singleton contributes its U-turn.
    """
    exits = [0] * n
    for block in blocks:
        prev = block[-1]  # the long lane from the least element
        for entry in block:
            exits[entry - 1] = prev
            prev = entry
    return exits


def is_noncrossing(p: Partition) -> bool:
    """Linear-time noncrossing test: the partition's exits pass the region scan.

    Distinct partitions give distinct exits (their orbits are the blocks),
    and the C_n noncrossing partitions of [n] map onto the C_n nested lane
    sets, so a crossing partition's exits never pass.
    """
    return _u_turn_regions(_exits(p.n, p.blocks)) is not None


def _singleton_regions(p: Partition) -> "Iterator[tuple[int, int]]":
    """Each singleton of ``p``, ascending, with its U-turn's region id; ValueError when ``p`` crosses."""
    regions = _u_turn_regions(_exits(p.n, p.blocks))
    if regions is None:
        raise ValueError("classification requires a noncrossing partition")
    return zip(p.singletons, regions)


def nesting_forest(p: Partition) -> "dict[int | None, tuple[int, ...]]":
    """Group the singletons of a noncrossing partition by region, in one scan.

    The innermost lane around a singleton's U-turn is a return lane E_b>X_a,
    a the element before the singleton's gap, so its region id is -a: a
    region is keyed by that a, or by ``None`` for the top level; see
    :func:`classify`.
    """
    forest: "dict[int | None, list[int]]" = {}
    for s, r in _singleton_regions(p):
        forest.setdefault(-r or None, []).append(s)
    return {k: tuple(v) for k, v in forest.items()}


def classify(p: Partition) -> "tuple[int, int] | None":
    """The witness of a noncrossing partition, its least mergeable singleton pair, or None when lonely.

    The witness is the whole classification: a partition is lonely exactly
    when no pair of its singletons can be merged, so ``classify(p) is None``
    reads the class. It is found from the singleton regions in linear time.

    Under the lane bijection a singleton is a U-turn, and merging {i} and
    {j} is rewiring U-turns i and j into E_i>X_j, E_j>X_i, the lanes of the
    block {i, j}; so two singletons merge exactly when their U-turns share a
    region (``intersection.is_absolute``). The singletons come ascending, so
    the first of a region is its least, and the witness, the least pair
    (i, j), i < j, is the running minimum of (first, later) pairs. Raises
    ValueError on a crossing partition.
    """
    first: "dict[int, int]" = {}
    witness = None
    for s, r in _singleton_regions(p):
        f = first.setdefault(r, s)
        if f != s and (witness is None or (f, s) < witness):
            witness = (f, s)
    return witness


classify_fast = classify  # kept only because bench/tracer.py wraps this name
