"""The road-intersection model: maximal lane sets and absoluteness.

A standard road intersection of size n has entries E_1..E_n and exits
X_1..X_n alternating clockwise around a circle (E_i at position 2i-1, X_j at
position 2j). A lane is a chord from an entry to an exit; a lane from E_i to
X_i is a U-turn. Two lanes cross when their chords interleave or touch. A
maximal set of lanes (MSL) is a pairwise-noncrossing lane set to which no
further lane can be added; it has one lane per entry, so it is held as the
exit of each entry. MSLs are in bijection with noncrossing partitions, and an
MSL is *absolute* when no two of its U-turns can be rewired into the pair
E_i>X_j, E_j>X_i to yield another MSL. Absolute MSLs correspond exactly to
the lonely partitions.

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


def _nested(exits: "tuple[int, ...]") -> bool:
    """Whether the chords (2i-1, 2*exits[i-1]) nest like parentheses.

    ``exits`` is a permutation, so each of the 2n positions ends exactly one
    chord, and nesting is being pairwise noncrossing.
    """
    other = [0] * (2 * len(exits) + 1)
    for entry, exit in enumerate(exits, 1):
        p, q = 2 * entry - 1, 2 * exit
        other[p], other[q] = q, p
    open_ends = []
    for pos in range(1, len(other)):
        if other[pos] > pos:
            open_ends.append(other[pos])
        elif open_ends.pop() != pos:
            return False
    return True


@dataclass(frozen=True)
class Msl:
    """A maximal set of lanes: the lane from E_i ends at X_{exits[i-1]}.

    Validates on construction: at least one lane, every exit an int, the
    exits a permutation of 1..n, and the chords nested like parentheses
    (with distinct endpoints, that is pairwise noncrossing). These force
    maximality: any further lane would reuse an endpoint, and a common point
    is a crossing.
    """

    exits: tuple[int, ...]

    def __init__(self, exits: Iterable[int]):
        exits = tuple(exits)
        object.__setattr__(self, "exits", exits)
        if not exits:
            raise ValueError("an MSL has at least one lane")
        if any(type(x) is not int for x in exits):
            raise ValueError("exits must be ints")
        if sorted(exits) != list(range(1, len(exits) + 1)):
            raise ValueError("the exits must be a permutation of 1..n")
        if not _nested(exits):
            raise ValueError("lanes cross")

    @property
    def n(self) -> int:
        return len(self.exits)

    @property
    def u_turns(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.exits, 1) if i == x)

    def to_text(self) -> str:
        """Comma-separated ``Ei>Xj`` tokens in entry order."""
        return ",".join(f"E{i}>X{x}" for i, x in enumerate(self.exits, 1))


def partition_to_msl(p: Partition) -> Msl:
    """Image of a noncrossing partition under the lane bijection.

    A block a_1 < ... < a_k contributes the long lane E_{a_1}>X_{a_k} and the
    return lanes E_{a_{t+1}}>X_{a_t}; a singleton contributes its U-turn.
    """
    if p.n < 1:
        raise ValueError("the intersection model needs n >= 1")
    if not is_noncrossing(p):
        raise ValueError("partition_to_msl requires a noncrossing partition")
    exits = [0] * p.n
    for block in p.blocks:
        for t, entry in enumerate(block):
            exits[entry - 1] = block[t - 1]  # t = 0 wraps to block[-1], the long lane
    return Msl(exits)


def msl_to_partition(m: Msl) -> Partition:
    """Inverse bijection: blocks are the orbits of entry -> that lane's exit.

    The result is always noncrossing: a valid Msl is a noncrossing perfect
    matching of the 2n positions, there are C_n of those, and
    partition_to_msl maps the C_n noncrossing partitions onto them
    injectively, with this map as its inverse.
    """
    seen = [False] * (m.n + 1)
    blocks = []
    for start in range(1, m.n + 1):
        orbit = []
        x = start
        while not seen[x]:
            seen[x] = True
            orbit.append(x)
            x = m.exits[x - 1]
        if orbit:
            blocks.append(orbit)
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
    chords = [(2 * i - 1, 2 * x) for i, x in enumerate(m.exits, 1) if i != x]
    for i, j in combinations(m.u_turns, 2):
        a, b = 2 * i - 1, 2 * j
        if not any((a < p < b) != (a < q < b) for p, q in chords):
            return False
    return True


def enumerate_msl(n: int) -> Iterator[Msl]:
    """Every MSL of the size-n intersection, sorted by their exits.

    The image of the noncrossing partitions of [n] under partition_to_msl.
    Capped by MSL_CEILING.
    """
    if n < 1:
        raise ValueError("intersection size must be positive")
    if n > MSL_CEILING:
        raise CeilingExceededError(
            f"enumerate_msl is capped at n={MSL_CEILING}, got {n}"
        )
    yield from sorted(map(partition_to_msl, noncrossing_partitions(n)), key=lambda m: m.exits)
