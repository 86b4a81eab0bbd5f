"""Independent routes: slow recounts from the definitions, run by the tests.

The CLI calls none of these and no other module imports this one. Each route
shares no code with the engine result it checks:

* ``classify_definitional`` checks ``classify`` with the definition itself:
  the first singleton pair that passes ``can_merge``, which merges the pair
  and rechecks the result with the quartic ``is_noncrossing_definitional``,
  so no region scan is read.
* ``oracle_tally`` (README route 1) checks ``tally``: all set partitions, the
  quartic filter, and ``classify_definitional``. Capped by ORACLE_CEILING.
* ``stream_tally`` (route 2) checks ``tally`` past the oracle's reach, with a
  flags-only walk over the four moves. Capped by STREAM_CEILING.
* ``nc_count_enumerated`` checks ``nc_count`` by counting the walker's
  partitions by blocks and singletons. Capped by ORACLE_CEILING.
* ``is_msl`` checks ``Msl`` and ``is_absolute``: the full lane-set definition,
  maximality included, from pairwise ``lanes_cross`` tests. A lane is an
  (entry, exit) pair, E_entry>X_exit.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .enumeration import Tally, noncrossing_partitions
from .formulas import catalan
from .partitions import Classification, Partition, check_size

ORACLE_CEILING = 10
"""Largest n accepted by the brute-force oracle over all set partitions."""

STREAM_CEILING = 14
"""Largest n accepted by stream_tally, the top published row: n = 14 takes about
3 s on a 2-vCPU host with CPython 3.11, and each further n about 3.6 times longer."""


def all_set_partitions(n: int) -> Iterator[Partition]:
    """Every set partition of [n], in restricted-growth-string order.

    Element k joins each existing block, in order of least element, and then
    opens a new block. This is the oracle substrate and deliberately brute
    force; n is capped by ORACLE_CEILING.
    """
    check_size(n, ceiling=ORACLE_CEILING, what="all_set_partitions")
    blocks: list[list[int]] = []

    def grow(k: int) -> Iterator[Partition]:
        if k > n:
            yield Partition(n, blocks)
            return
        for block in blocks:
            block.append(k)
            yield from grow(k + 1)
            block.pop()
        blocks.append([k])
        yield from grow(k + 1)
        blocks.pop()

    yield from grow(1)


def is_noncrossing_definitional(p: Partition) -> bool:
    """Quartic test straight from the definition: no two blocks hold a < c < b < d interleaved."""
    multi = [b for b in p.blocks if len(b) >= 2]
    for bi, bj in combinations(multi, 2):
        for a, b in combinations(bi, 2):
            for c, d in combinations(bj, 2):
                if a < c < b < d or c < a < d < b:
                    return False
    return True


def merge_singletons(p: Partition, i: int, j: int) -> Partition:
    """Replace singleton blocks {i} and {j} with the pair block {i, j}.

    The result is re-canonicalized and may well be crossing; no noncrossing
    guarantee is made here.
    """
    if i >= j:
        raise ValueError("expected i < j")
    for x in (i, j):
        if (x,) not in p.blocks:
            raise ValueError(f"{{{x}}} is not a singleton block")
    blocks = [b for b in p.blocks if b not in ((i,), (j,))]
    blocks.append((i, j))
    return Partition(p.n, blocks)


def can_merge(p: Partition, i: int, j: int) -> bool:
    """True when merging singletons {i} and {j} keeps the partition noncrossing, by the quartic test."""
    return is_noncrossing_definitional(merge_singletons(p, i, j))


def classify_definitional(p: Partition) -> Classification:
    """The definition as a classifier: the first singleton pair that passes :func:`can_merge`.

    Pairs are tried in lexicographic order, so the witness is the smallest
    mergeable pair, as ``classify`` promises.
    """
    for i, j in combinations(p.singletons, 2):
        if can_merge(p, i, j):
            return Classification((i, j))
    return Classification()


def oracle_tally(n: int) -> Tally:
    """Brute-force tally: all set partitions, the quartic filter, :func:`classify_definitional`.

    Slow by design; capped by ORACLE_CEILING through :func:`all_set_partitions`.
    """
    lonely = 0
    total = 0
    for p in all_set_partitions(n):
        if is_noncrossing_definitional(p):
            total += 1
            lonely += classify_definitional(p).is_lonely
    return Tally(n, lonely, total - lonely, total)


def stream_tally(n: int) -> Tally:
    """Count by walking the construction tree and classifying incrementally.

    The walk keeps a stack of flags, one for the top-level region at the
    bottom and one per open block above it, marking whether the region's
    current gap already holds a singleton. A singleton landing in a flagged
    region makes every completion of the current prefix marriageable. Costs
    one visit per noncrossing partition; capped by STREAM_CEILING.
    """
    check_size(n, ceiling=STREAM_CEILING, what="stream_tally")
    lonely = 0
    total = 0
    flags = [False]  # the top level, then the current-gap flag of each open block

    def walk(pos: int, married: bool) -> None:
        nonlocal lonely, total
        if pos > n:  # the room checks below leave no block open here
            total += 1
            lonely += not married
            return
        room = n - pos  # positions after this one
        depth = len(flags) - 1
        if depth:
            top = flags.pop()
            # append to the top block and close it
            walk(pos + 1, married)
            # append and keep open: a fresh gap starts
            if depth <= room:
                flags.append(False)
                walk(pos + 1, married)
                flags.pop()
            flags.append(top)
        if depth <= room:
            # a singleton in the current innermost region
            hit = flags[-1]
            flags[-1] = True
            walk(pos + 1, married or hit)
            flags[-1] = hit
        if depth < room:
            # open a new block
            flags.append(False)
            walk(pos + 1, married)
            flags.pop()

    walk(1, False)
    expected = catalan(n)
    if total != expected:
        raise AssertionError(f"stream visited {total} partitions, expected {expected}")
    return Tally(n, lonely, total - lonely, total)


def nc_count_enumerated(n: int, m: int, k: int) -> int:
    """Oracle twin of ``nc_count`` by exhaustive enumeration, any k."""
    check_size(n, ceiling=ORACLE_CEILING, what="nc_count_enumerated")
    count = 0
    for p in noncrossing_partitions(n):
        if len(p.blocks) == m and len(p.singletons) == k:
            count += 1
    return count


def _chord(lane: "tuple[int, int]", n: int) -> "list[int]":
    """Endpoints on the 2n circle of the lane (entry, exit), ascending."""
    entry, exit = lane
    if not (1 <= entry <= n and 1 <= exit <= n):
        raise ValueError(f"lane E{entry}>X{exit} outside intersection of size {n}")
    return sorted((2 * entry - 1, 2 * exit))


def lanes_cross(a: "tuple[int, int]", b: "tuple[int, int]", n: int) -> bool:
    """Whether two (entry, exit) lanes have a common point on the size-n intersection.

    A shared entry or exit counts as crossing, otherwise the chords cross
    exactly when one endpoint of b lies strictly inside a's arc and the
    other strictly outside.
    """
    p1, q1 = _chord(a, n)
    p2, q2 = _chord(b, n)
    if len({p1, q1, p2, q2}) < 4:
        return True
    return (p1 < p2 < q1) != (p1 < q2 < q1)


def is_msl(lanes: "Iterable[tuple[int, int]]", n: int) -> bool:
    """Full definition check for arbitrary sets of (entry, exit) lanes, maximality included."""
    lane_tuple = tuple({tuple(lane) for lane in lanes})
    for lane in lane_tuple:
        _chord(lane, n)
    if any(lanes_cross(a, b, n) for a, b in combinations(lane_tuple, 2)):
        return False
    # a lane already in the set shares its endpoints with itself, so it counts as crossing
    return all(
        any(lanes_cross((e, x), l, n) for l in lane_tuple)
        for e in range(1, n + 1) for x in range(1, n + 1)
    )
