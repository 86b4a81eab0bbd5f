"""Independent routes: slow recounts from the definitions, run by the tests.

The CLI calls none of these and no other module imports this one. Each route
shares no code with the engine result it checks:

* ``oracle_tally`` (README route 1) checks ``tally``: all set partitions, the
  quartic ``is_noncrossing_definitional`` filter, and the definition itself,
  lonely when no singleton pair passes ``can_merge`` (merge, then recheck).
  Capped by ORACLE_CEILING.
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
from .partitions import Partition, check_size, is_noncrossing

ORACLE_CEILING = 10
"""Largest n accepted by the brute-force oracle over all set partitions."""

STREAM_CEILING = 14
"""Largest n accepted by stream_tally, the top published row: n = 14 takes about
3 s on a 2-vCPU host with CPython 3.11, and each further n about 3.6 times longer."""


def all_set_partitions(n: int) -> Iterator[Partition]:
    """Every set partition of [n], in restricted-growth-string order.

    This is the oracle substrate and deliberately brute force; n is capped
    by ORACLE_CEILING.
    """
    check_size(n, ceiling=ORACLE_CEILING, what="all_set_partitions")
    if n == 0:
        yield Partition(0, ())
        return
    rgs = [0] * n
    maxes = [0] * n
    while True:
        nblocks = max(rgs) + 1
        blocks: list[list[int]] = [[] for _ in range(nblocks)]
        for pos, b in enumerate(rgs, start=1):
            blocks[b].append(pos)
        yield Partition(n, blocks)
        i = n - 1
        while i > 0 and rgs[i] == maxes[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        maxes[i] = max(maxes[i - 1], rgs[i])
        for k in range(i + 1, n):
            rgs[k] = 0
            maxes[k] = maxes[k - 1]


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
    _require_singleton_pair(p, i, j)
    blocks = [b for b in p.blocks if b not in ((i,), (j,))]
    blocks.append((i, j))
    return Partition(p.n, blocks)


def _require_singleton_pair(p: Partition, i: int, j: int) -> None:
    if i >= j:
        raise ValueError("expected i < j")
    for x in (i, j):
        if (x,) not in p.blocks:
            raise ValueError(f"{{{x}}} is not a singleton block")


def can_merge(p: Partition, i: int, j: int) -> bool:
    """True when merging singletons {i} and {j} keeps the partition noncrossing."""
    return is_noncrossing(merge_singletons(p, i, j))


def oracle_tally(n: int) -> Tally:
    """Brute-force tally: all set partitions, quartic filter, merge-and-recheck.

    A partition is lonely when no pair of its singletons passes :func:`can_merge`,
    the definition itself, so the recount does not use the region scan behind
    ``classify``. Slow by design; capped by ORACLE_CEILING through
    :func:`all_set_partitions`.
    """
    lonely = 0
    marriageable = 0
    for p in all_set_partitions(n):
        if not is_noncrossing_definitional(p):
            continue
        if not any(can_merge(p, i, j) for i, j in combinations(p.singletons, 2)):
            lonely += 1
        else:
            marriageable += 1
    return Tally(n, lonely, marriageable, lonely + marriageable)


def stream_tally(n: int) -> Tally:
    """Count by walking the construction tree and classifying incrementally.

    Alongside the stack of open blocks the walk keeps one flag per open
    block, marking whether the block's current gap already holds a
    singleton, plus one flag for the top-level region. A singleton landing
    in a flagged region makes every completion of the current prefix
    marriageable. Costs one visit per noncrossing partition; capped by
    STREAM_CEILING.
    """
    check_size(n, ceiling=STREAM_CEILING, what="stream_tally")
    lonely = 0
    total = 0
    # stack entries are current-gap flags of open blocks
    flags: list[bool] = []

    def walk(pos: int, root_flag: bool, married: bool) -> None:
        nonlocal lonely, total
        if pos > n:
            if not flags:
                total += 1
                if not married:
                    lonely += 1
            return
        remaining = n - pos + 1
        depth = len(flags)
        if depth:
            top = flags[-1]
            # append to the top block and close it
            flags.pop()
            walk(pos + 1, root_flag, married)
            # append and keep open: a fresh gap starts
            if depth <= remaining - 1:
                flags.append(False)
                walk(pos + 1, root_flag, married)
                flags.pop()
            flags.append(top)
        if depth <= remaining - 1:
            # a singleton in the current innermost region
            if depth:
                hit = flags[-1]
                flags[-1] = True
                walk(pos + 1, root_flag, married or hit)
                flags[-1] = hit
            else:
                walk(pos + 1, True, married or root_flag)
        if depth + 1 <= remaining - 1:
            # open a new block
            flags.append(False)
            walk(pos + 1, root_flag, married)
            flags.pop()

    walk(1, False, False)
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
