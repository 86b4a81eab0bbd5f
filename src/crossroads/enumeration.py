"""Generation and counting of noncrossing partitions.

Noncrossing partitions of [n] are built by a left-to-right scan that keeps a
stack of open blocks. At each position one of four moves applies:

* start a new block and keep it open,
* start a new block and close it at once (a singleton),
* append the position to the open block on top of the stack and keep it open,
* append the position to the top block and close that block.

Every noncrossing partition arises from exactly one move sequence, so one
walker over the moves generates each partition once, already canonical, and
classifies it on the way: a partition is marriageable exactly when two
singletons share a region (the top level or one gap of one block).
``noncrossing_partitions`` and ``classified_stream`` are thin views of it.

Counting visits no partition at all: the lonely numbers are the coefficients
of an algebraic generating function, and they obey a linear recurrence with
polynomial coefficients that yields them in O(n) exact steps. The test suite
certifies that recurrence against the generating function and cross-checks
it with a flags-only count over the same moves (``stream_tally``) and the
brute-force oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Iterator

from .formulas import catalan
from .partitions import (
    CeilingExceededError,
    Classification,
    Kind,
    Partition,
    can_merge,
    is_noncrossing_definitional,
)

ORACLE_CEILING = 10
"""Largest n accepted by the brute-force oracle over all set partitions."""

COUNT_CEILING = 2000
"""Largest n accepted by tally and tally_range. On a 2-vCPU host with CPython 3.11,
``count --n 2000`` takes about 0.3 s and ``bounds --max-n 2000`` about 6 s."""

ENUMERATE_CEILING = 500
"""Largest n accepted by noncrossing_partitions and classified_stream; the walker
nests one generator frame per position, past the default recursion limit near n = 990."""

_LONELY = Classification(Kind.LONELY)

_LONELY_START = (1, 1, 1, 4, 9)
"""L_0..L_4, from which the recurrence of :func:`_lonely_numbers` runs."""

_LONELY_RECURRENCE = (
    (6075, -4735, -5165, 4735, -910),
    (12150, -22900, 11177, -1055, -182),
    (83100, -204464, 172986, -60886, 7644),
    (287340, -617546, 466012, -148714, 17108),
    (331485, -657275, 459661, -135601, 14378),
    (124200, -233358, 154445, -42711, 4186),
)
"""Row k holds (a_k0, ..., a_k4), the coefficients of p_k(n) = sum_d a_kd n^d."""


@dataclass(frozen=True)
class Tally:
    """Counts for one ground-set size: lonely + marriageable = total."""

    n: int
    lonely: int
    marriageable: int
    total: int

    def __post_init__(self):
        if self.lonely + self.marriageable != self.total:
            raise ValueError("tally does not add up")


@dataclass(frozen=True)
class CountJob:
    """A counting request for the partitions of [n].

    ``workers`` is validated but has no effect: the recurrence runs in one
    process. It stays so that callers passing it keep working.
    """

    n: int
    workers: "int | None" = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be positive")


def all_set_partitions(n: int) -> Iterator[Partition]:
    """Every set partition of [n], in restricted-growth-string order.

    This is the oracle substrate and deliberately brute force; n is capped
    by ORACLE_CEILING.
    """
    if n > ORACLE_CEILING:
        raise CeilingExceededError(
            f"all_set_partitions is capped at n={ORACLE_CEILING}, got {n}"
        )
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


def _walk(n: int, kind: "Kind | None") -> "Iterator[tuple[Partition, Classification]]":
    """Every noncrossing partition of [n] with its classification, in walk order.

    Per open block the walk keeps the first singleton of the block's current
    gap (0 for none); ``root`` is that slot for the top level. A second
    singleton in a region gives the mergeable pair (first, pos), and the
    least pair found is the witness :func:`classify` returns. LONELY prunes
    every prefix holding a pair; MARRIAGEABLE skips the lonely leaves.
    Beside each block the walk keeps its text, so a leaf costs one tuple and
    one join; the partition is built unchecked by ``Partition._canonical``.
    """
    if n > ENUMERATE_CEILING:
        raise CeilingExceededError(
            f"enumeration is capped at n={ENUMERATE_CEILING}, got {n}"
        )
    names = [str(x) for x in range(n + 1)]
    blocks: list[tuple[int, ...]] = []
    texts: list[str] = []  # each block's text, e.g. "1,4,5"
    stack: list[int] = []  # indices of the open blocks, innermost last
    firsts: list[int] = []  # first singleton of each open block's current gap
    lonely_only = kind is Kind.LONELY
    marriageable_only = kind is Kind.MARRIAGEABLE

    def walk(pos: int, root: int, witness: "tuple[int, int] | None"):
        if pos > n:
            if witness is not None or not marriageable_only:
                c = _LONELY if witness is None else Classification(Kind.MARRIAGEABLE, witness)
                yield Partition._canonical(n, tuple(blocks), "/".join(texts)), c
            return
        # every open block needs a later element, so depth <= positions left
        remaining = n - pos + 1
        depth = len(stack)
        if depth:
            top = stack.pop()
            first = firsts.pop()
            block, text = blocks[top], texts[top]
            blocks[top], texts[top] = block + (pos,), text + "," + names[pos]
            # close the top block here: its last gap ends with it
            yield from walk(pos + 1, root, witness)
            stack.append(top)
            firsts.append(first)
            if depth < remaining:
                # keep it open: a fresh gap starts
                firsts[-1] = 0
                yield from walk(pos + 1, root, witness)
                firsts[-1] = first
            blocks[top], texts[top] = block, text
        if depth < remaining:
            # a singleton in the innermost region
            first = firsts[-1] if depth else root
            blocks.append((pos,))
            texts.append(names[pos])
            if first:
                if not lonely_only:
                    pair = (first, pos)
                    yield from walk(pos + 1, root, pair if witness is None else min(witness, pair))
            elif depth:
                firsts[-1] = pos
                yield from walk(pos + 1, root, witness)
                firsts[-1] = 0
            else:
                yield from walk(pos + 1, pos, witness)
            blocks.pop()
            texts.pop()
        if depth + 1 < remaining:
            # open a new block
            stack.append(len(blocks))
            blocks.append((pos,))
            texts.append(names[pos])
            firsts.append(0)
            yield from walk(pos + 1, root, witness)
            firsts.pop()
            stack.pop()
            blocks.pop()
            texts.pop()

    return walk(1, 0, None)


def noncrossing_partitions(n: int) -> Iterator[Partition]:
    """Every noncrossing partition of [n], exactly once, by direct construction.

    The order is deterministic: at each position the moves are tried as
    append-and-close, append-and-keep-open, singleton, open-new-block.
    Raises CeilingExceededError past ENUMERATE_CEILING.
    """
    for p, _ in _walk(n, None):
        yield p


def stream_tally(n: int) -> Tally:
    """Count by walking the construction tree and classifying incrementally.

    Alongside the stack of open blocks the walk keeps one flag per open
    block, marking whether the block's current gap already holds a
    singleton, plus one flag for the top-level region. A singleton landing
    in a flagged region makes every completion of the current prefix
    marriageable. Used as a midsize cross-check for the recurrence; costs one
    visit per noncrossing partition.
    """
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


def _lonely_numbers(max_n: int) -> "list[int]":
    """L_0..L_max_n from the order-5 linear recurrence of the lonely numbers.

    The lonely generating function R(x) = sum L_n x^n is the power-series
    root of the cubic

        x^2 (1+x)^2 R^3 - x (2+3x+2x^2) R^2 + (1+2x+3x^2) R - (1+x) = 0,

    so it is D-finite and its coefficients obey
    sum_{k=0..5} p_k(n) L_{n-k} = 0 for n >= 5, with the polynomials p_k of
    :data:`_LONELY_RECURRENCE`. The test suite certifies that recurrence
    against the cubic and compares it with the series read off the cubic.
    p_0(n) vanishes at no n >= 5, so each term is one exact division, and
    the terms follow in O(max_n) exact integer steps.
    """
    if max_n > COUNT_CEILING:
        raise CeilingExceededError(
            f"the lonely series is capped at n={COUNT_CEILING}, got {max_n}"
        )
    lonely = list(_LONELY_START[: max_n + 1])
    for n in range(len(_LONELY_START), max_n + 1):
        p0, *p = (sum(a * n**d for d, a in enumerate(row)) for row in _LONELY_RECURRENCE)
        num = -sum(map(mul, p, reversed(lonely[-5:])))
        assert num % p0 == 0
        lonely.append(num // p0)
    return lonely


def tally(job: CountJob) -> Tally:
    """Count the lonely and marriageable partitions of [job.n].

    The lonely count is the nth term of the lonely recurrence, the total is
    the Catalan number. Raises CeilingExceededError past COUNT_CEILING.
    """
    lonely = _lonely_numbers(job.n)[-1]
    total = catalan(job.n)
    return Tally(job.n, lonely, total - lonely, total)


def oracle_tally(n: int) -> Tally:
    """Brute-force tally: all set partitions, quartic filter, merge-and-recheck.

    A partition is lonely when no pair of its singletons passes :func:`can_merge`,
    the definition itself, so the recount does not use the region scan behind
    :func:`classify`. Slow by design; used only in tests, capped by ORACLE_CEILING.
    """
    if n > ORACLE_CEILING:
        raise CeilingExceededError(
            f"oracle_tally is capped at n={ORACLE_CEILING}, got {n}"
        )
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


def tally_range(max_n: int) -> "list[Tally]":
    """Tallies for every n from 0 to max_n inclusive, from one run of the recurrence."""
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    tallies = []
    total = 1
    for n, lonely in enumerate(_lonely_numbers(max_n)):
        tallies.append(Tally(n, lonely, total - lonely, total))
        total = total * 2 * (2 * n + 1) // (n + 2)  # C_{n+1} = C_n * 2(2n+1) / (n+2), exactly
    return tallies


def classified_stream(n: int, kind: "Kind | None" = None) -> "Iterator[tuple[Partition, Classification]]":
    """Stream (partition, classification) pairs in generation order, optionally one class only.

    The classification is made during generation and agrees with
    :func:`classify`, witness included. Raises CeilingExceededError past
    ENUMERATE_CEILING.
    """
    yield from _walk(n, kind)
