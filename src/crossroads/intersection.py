"""The road-intersection model: lanes, maximal lane sets, absoluteness.

A standard road intersection of size n has entries E_1..E_n and exits
X_1..X_n alternating clockwise around a circle (E_i at position 2i-1, X_j at
position 2j). A lane is a chord from an entry to an exit; a lane from E_i to
X_i is a U-turn. Two lanes cross when their chords interleave or touch. A
maximal set of lanes (MSL) is a pairwise-noncrossing lane set to which no
further lane can be added; MSLs are in bijection with noncrossing partitions,
and an MSL is *absolute* when no two of its U-turns can be rewired into the
pair E_i>X_j, E_j>X_i to yield another MSL. Absolute MSLs correspond exactly
to the lonely partitions.

The MSLs are listed as the image of the partition walker under the bijection.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .enumeration import noncrossing_partitions
from .partitions import CeilingExceededError, Partition, is_noncrossing

MSL_CEILING = 7
"""Largest n accepted by enumerate_msl: the range over which the tests confirm
its output against the independent maximal-clique search over all n*n lanes."""


@dataclass(frozen=True)
class Lane:
    """A directed chord from entry ``entry`` to exit ``exit``."""

    entry: int
    exit: int

    @property
    def is_u_turn(self) -> bool:
        return self.entry == self.exit

    def chord(self) -> tuple[int, int]:
        """Endpoints on the 2n circle, ascending."""
        p, q = 2 * self.entry - 1, 2 * self.exit
        return (p, q) if p < q else (q, p)

    def __str__(self) -> str:
        return f"E{self.entry}>X{self.exit}"


def _nested(lanes: "Iterable[Lane]", n: int) -> bool:
    """Whether lanes ending once at each of the 2n positions nest like parentheses.

    For chords with distinct endpoints this is being pairwise noncrossing.
    """
    other = [0] * (2 * n + 1)
    for lane in lanes:
        p, q = lane.chord()
        other[p], other[q] = q, p
    open_ends = []
    for pos in range(1, 2 * n + 1):
        if other[pos] > pos:
            open_ends.append(other[pos])
        elif open_ends.pop() != pos:
            return False
    return True


@dataclass(frozen=True)
class Msl:
    """A maximal set of lanes on a size-n intersection.

    Validates on construction: exactly n lanes, every entry and every exit
    an int used exactly once, chords nested like parentheses (with distinct
    endpoints, that is pairwise noncrossing). These force maximality: any
    further lane would reuse an endpoint, and a common point is a crossing.
    """

    n: int
    lanes: frozenset

    def __init__(self, n: int, lanes: "Iterable[Lane]"):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lanes", frozenset(lanes))
        self._validate()

    def _validate(self) -> None:
        if self.n < 1:
            raise ValueError("intersection size must be positive")
        if len(self.lanes) != self.n:
            raise ValueError(f"an MSL of size {self.n} has exactly {self.n} lanes")
        entries = sorted(l.entry for l in self.lanes)
        exits = sorted(l.exit for l in self.lanes)
        if set(map(type, entries + exits)) != {int}:
            raise ValueError("entries and exits must be ints")
        if entries != list(range(1, self.n + 1)) or exits != list(range(1, self.n + 1)):
            raise ValueError("each entry and each exit must be used exactly once")
        if not _nested(self.lanes, self.n):
            raise ValueError("lanes cross")

    @property
    def u_turns(self) -> tuple[int, ...]:
        return tuple(sorted(l.entry for l in self.lanes if l.is_u_turn))

    def to_text(self) -> str:
        """Comma-separated ``Ei>Xj`` tokens, sorted by entry index."""
        return ",".join(str(l) for l in sorted(self.lanes, key=lambda l: l.entry))


def partition_to_msl(p: Partition) -> Msl:
    """Image of a noncrossing partition under the lane bijection.

    A block a_1 < ... < a_k contributes the long lane E_{a_1}>X_{a_k} and the
    return lanes E_{a_{t+1}}>X_{a_t}; a singleton contributes its U-turn.
    """
    if p.n < 1:
        raise ValueError("the intersection model needs n >= 1")
    if not is_noncrossing(p):
        raise ValueError("partition_to_msl requires a noncrossing partition")
    lanes = []
    for block in p.blocks:
        lanes.append(Lane(block[0], block[-1]))
        for t in range(len(block) - 1):
            lanes.append(Lane(block[t + 1], block[t]))
    return Msl(p.n, lanes)


def msl_to_partition(m: Msl) -> Partition:
    """Inverse bijection: blocks are the orbits of entry -> that lane's exit.

    The result is always noncrossing: a valid Msl is a noncrossing perfect
    matching of the 2n positions, there are C_n of those, and
    partition_to_msl maps the C_n noncrossing partitions onto them
    injectively, with this map as its inverse.
    """
    succ = {l.entry: l.exit for l in m.lanes}
    seen: set[int] = set()
    blocks = []
    for start in range(1, m.n + 1):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        nxt = succ[start]
        while nxt != start:
            orbit.append(nxt)
            seen.add(nxt)
            nxt = succ[nxt]
        blocks.append(sorted(orbit))
    return Partition(m.n, blocks)


def is_absolute(m: Msl) -> bool:
    """No pair of U-turns can be rewired into E_i>X_j, E_j>X_i and still be an MSL.

    The rewired set keeps one lane per entry and per exit, so it is an MSL
    exactly when it is pairwise noncrossing. The kept lanes are noncrossing
    already and the two new chords nest (for i < j, 2i-1 < 2i < 2j-1 < 2j).
    Kept U-turns join adjacent positions and cross neither; any other kept
    chord misses 2i and 2j-1, so it crosses E_j>X_i just when it crosses
    E_i>X_j: only (2i-1, 2j) is tested, O(n) per pair of U-turns.
    """
    chords = [l.chord() for l in m.lanes if not l.is_u_turn]
    for i, j in combinations(m.u_turns, 2):
        a, b = 2 * i - 1, 2 * j
        if not any((a < p < b) != (a < q < b) for p, q in chords):
            return False
    return True


def enumerate_msl(n: int) -> Iterator[Msl]:
    """Every MSL of the size-n intersection, sorted by their (entry, exit) pairs.

    The image of the noncrossing partitions of [n] under partition_to_msl.
    Capped by MSL_CEILING.
    """
    if n < 1:
        raise ValueError("intersection size must be positive")
    if n > MSL_CEILING:
        raise CeilingExceededError(
            f"enumerate_msl is capped at n={MSL_CEILING}, got {n}"
        )
    msls = [partition_to_msl(p) for p in noncrossing_partitions(n)]
    yield from sorted(msls, key=lambda m: sorted((l.entry, l.exit) for l in m.lanes))
