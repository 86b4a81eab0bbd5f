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

The one region scan of both models, ``partitions._u_turn_regions``, over the
entries taking E_i and then X_i, decides nesting and finds each U-turn's
region, the innermost lane around it: ``Msl`` validation reads the first,
:func:`is_absolute` the second, since two U-turns can be rewired exactly
when they share a region, and ``is_noncrossing``, ``nesting_forest`` and
``classify`` read them through the bijection ``partitions._exits``. That
scan is the one noncrossing check on the lane side: :func:`partition_to_msl`
leaves it to ``Msl``, and :func:`msl_to_partition` builds its canonical
partition without a second check. The MSLs are streamed as the image of the
partition walker under the bijection, in the walker's order. The
``intersection`` command takes its rows from the walker's state directly
(:func:`_lane_rows`), with no ``Msl`` and no lane scan: absolute is lonely,
which the walker decides.
The checked functions above stay the library's lane model.
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .enumeration import _walk, noncrossing_partitions
from .partitions import Partition, _exits, _Record, _u_turn_regions, check_size


class Msl(_Record):
    """A maximal set of lanes: the lane from E_i ends at X_{exits[i-1]}.

    Validates on construction: at least one lane, every exit an int, the
    exits a permutation of 1..n, and the chords nested like parentheses
    (with distinct endpoints, that is pairwise noncrossing). These force
    maximality: any further lane would reuse an endpoint, and a common point
    is a crossing.
    """

    __slots__ = __match_args__ = ("exits",)

    def __init__(self, exits: Iterable[int]):
        exits = tuple(exits)
        if not exits:
            raise ValueError("an MSL has at least one lane")
        if any(type(x) is not int for x in exits):
            raise ValueError("exits must be ints")
        if sorted(exits) != list(range(1, len(exits) + 1)):
            raise ValueError("the exits must be a permutation of 1..n")
        if _u_turn_regions(exits) is None:
            raise ValueError("lanes cross")
        object.__setattr__(self, "exits", exits)  # past the frozen __setattr__

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
    """Image of a noncrossing partition under the lane bijection (:func:`_exits`).

    The ``Msl`` scan is the one noncrossing check on the lane side, the scan
    ``is_noncrossing`` runs on the same exits: those of a crossing partition
    never pass it (see ``is_noncrossing``), and its ValueError is re-raised here.
    ``intersection``'s rows take their exits from the walker through the same
    :func:`_exits`, without an ``Msl``.
    """
    check_size(p.n, least=1)
    try:
        return Msl(_exits(p.n, p.blocks))
    except ValueError:
        raise ValueError("partition_to_msl requires a noncrossing partition") from None


def msl_to_partition(m: Msl) -> Partition:
    """Inverse bijection: blocks are the orbits of entry -> that lane's exit.

    An orbit is read from its least element, the one entry whose lane does
    not go back, down the return lanes to that lane's exit. The result is
    always noncrossing: a valid Msl is a noncrossing perfect matching of the
    2n positions, there are C_n of those, and partition_to_msl maps the C_n
    noncrossing partitions onto them injectively, with this map as its inverse.
    Blocks come out ascending and in order of their least element, so the
    partition is built without re-validation (``Partition._canonical``).
    """
    blocks = []
    for entry, x in enumerate(m.exits, 1):
        if x >= entry:  # the long lane or U-turn of the block whose least element is entry
            block = [x]
            while x != entry:
                x = m.exits[x - 1]
                block.append(x)
            block.reverse()
            blocks.append(tuple(block))
    return Partition._canonical(m.n, blocks)


def is_absolute(m: Msl) -> bool:
    """No pair of U-turns can be rewired into E_i>X_j, E_j>X_i and still be an MSL.

    The rewired set keeps one lane per entry and exit, so it is an MSL exactly
    when it is pairwise noncrossing. For i < j the new chords nest, kept
    U-turns cross neither, and any other kept chord misses 2i and 2j-1, so it
    crosses E_j>X_i just when it crosses E_i>X_j, the chord (2i-1, 2j): when
    it encloses one of the two U-turns but not the other. The chords around a
    U-turn form a chain, so such a chord exists exactly when the innermost
    ones differ: the MSL is absolute exactly when no two U-turns share a
    region. :func:`_u_turn_regions` names each region by the id of that
    innermost lane (its exit j, or -i for a lane opened at X_i, 0 for the top
    level), one id per lane, so equal ids are a shared region.
    """
    regions = _u_turn_regions(m.exits)
    return len(set(regions)) == len(regions)


def enumerate_msl(n: int) -> Iterator[Msl]:
    """Every MSL of the size-n intersection, streamed in the walker's order.

    The image of ``noncrossing_partitions(n)`` under partition_to_msl, one
    lane set per partition and nothing held back, so ``msl_to_partition``
    gives the walker's stream back item for item. Raises
    CeilingExceededError past ENUMERATE_CEILING, when the first item is drawn.
    """
    check_size(n, least=1)
    yield from map(partition_to_msl, noncrossing_partitions(n))


class _Tokens(dict):
    """The ``Ei>Xj`` tokens of one entry i by exit j, each made on first use.

    A stream that stops early, such as ``intersection --n 500 | head``, so
    makes a few tokens and not all n^2.
    """

    def __init__(self, entry: int):
        super().__init__()
        self.entry = entry

    def __missing__(self, exit: int) -> str:
        token = self[exit] = f"E{self.entry}>X{exit}"
        return token


def _lane_rows(n: int) -> "Iterator[tuple[str, bool, str]]":
    """``intersection``'s rows, read off the partition walker without an ``Msl``.

    The same stream as ``(m.to_text(), is_absolute(m),
    msl_to_partition(m).to_text())`` over ``enumerate_msl(n)``: the exits
    come from the walker's blocks (:func:`_exits`), the lane text from a
    :class:`_Tokens` table per entry, ``absolute`` from the walker's
    witness (an MSL is absolute exactly when its partition is lonely) and
    the partition column from the walker's text. Raises
    CeilingExceededError past ENUMERATE_CEILING, when the first row is drawn.
    """
    check_size(n, least=1)
    leaves = _walk(n, None)  # checks the ceiling before n token tables are made
    tokens = [_Tokens(entry) for entry in range(1, n + 1)]
    token = dict.__getitem__  # calls __missing__ on a dict subclass
    for blocks, texts, witness in leaves:
        yield ",".join(map(token, tokens, _exits(n, blocks))), witness is None, "/".join(texts)
