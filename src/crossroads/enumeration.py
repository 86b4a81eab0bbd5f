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
``noncrossing_partitions`` and ``classified_stream`` are thin views of it
that copy its live blocks into values (``Partition._canonical``); the
``enumerate`` and ``intersection`` commands read that state directly.

Counting visits no partition at all: the lonely numbers are the coefficients of
an algebraic generating function, and they obey a linear recurrence with polynomial
coefficients that :func:`~crossroads.formulas._p_recursive` runs in O(n) exact steps.
"""
from __future__ import annotations

from typing import Iterator

from .formulas import _CATALAN_RECURRENCE, COUNT_CEILING, _p_recursive, catalan
from .partitions import Kind, Partition, _Record, check_size

ENUMERATE_CEILING = 500
"""Largest n accepted by noncrossing_partitions, classified_stream and
enumerate_msl, which streams the walker's image. The walker nests a generator
frame per position and each view adds one, so with the default recursion
limit and the ceiling lifted, bisection draws the first item through n = 994
for noncrossing_partitions, classified_stream, ``_text_rows`` and
``_lane_rows``, and through n = 993 for enumerate_msl (its own generator adds a frame)."""

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
"""p_0..p_5 of the lonely recurrence, of degree 4; the row format is that of :func:`~crossroads.formulas._p_recursive`."""


class Tally(_Record):
    """Counts for one ground-set size: lonely + marriageable = total."""

    __slots__ = __match_args__ = ("n", "lonely", "marriageable", "total")

    def __init__(self, n: int, lonely: int, marriageable: int, total: int):
        if lonely + marriageable != total:
            raise ValueError("tally does not add up")
        super().__init__(n, lonely, marriageable, total)


class CountJob(_Record):
    """A counting request for the partitions of [n].

    ``workers`` is validated, None or a positive int (not a bool), but has no
    effect: the recurrence runs in one process. It stays so that callers
    passing it keep working.
    """

    __slots__ = __match_args__ = ("n", "workers")

    def __init__(self, n: int, workers: "int | None" = None):
        check_size(n)
        if workers is not None and (type(workers) is not int or workers < 1):
            raise ValueError("workers must be a positive int")
        super().__init__(n, workers)


def _walk(n: int, kind: "Kind | str | None") -> "Iterator[tuple[list, list, tuple[int, int] | None]]":
    """Every noncrossing partition of [n] as the walker's live state, in walk order.

    Each leaf is ``(blocks, texts, witness)``: the walker's own lists of the
    blocks (ascending tuples, in order of their minimum) and of their texts
    (e.g. ``"1,4,5"``), and the least mergeable singleton pair, None for a
    lonely partition. The lists are live: they are valid until the next
    draw, which changes them, so a view that keeps a leaf copies it.

    Per region the walk keeps the first singleton of its current gap (0 for
    none): the top level in slot 0, then each open block in the slot of its
    depth. A second singleton in a region gives the mergeable pair (first,
    pos), and the least pair found is the witness :func:`classify` returns.
    LONELY prunes every prefix holding a pair; MARRIAGEABLE skips the lonely
    leaves. The open blocks and the region firsts sit in preallocated slots
    indexed by ``depth``, the number of open blocks, so no move pushes or
    pops them; a frame that closes its top block restores that block's slot
    and its region's first afterwards, since deeper frames reuse both. The
    move at n is forced (close the one open block, or add a singleton at the
    top level), so the frame of position n makes it and yields the leaf.
    """
    check_size(n, ceiling=ENUMERATE_CEILING, what="enumeration")
    if kind is not None:
        kind = Kind(kind)
    names = [str(x) for x in range(n + 1)]
    tails = ["," + name for name in names]  # what appending x adds to a block's text
    blocks: list[tuple[int, ...]] = []
    texts: list[str] = []  # each block's text, e.g. "1,4,5"
    stack = [0] * n  # stack[d]: index in blocks of the open block at depth d, outermost first
    firsts = [0] * (n + 1)  # first singleton of each region's current gap: the top level, then each open block
    lonely_only = kind is Kind.LONELY
    marriageable_only = kind is Kind.MARRIAGEABLE

    def walk(pos: int, depth: int, witness: "tuple[int, int] | None"):
        if pos >= n:
            # the move at n is forced, so it is made here and not one frame deeper;
            # pos > n only when n == 0, which makes no move
            if depth:
                # close the one open block
                top = stack[0]
                block, text = blocks[top], texts[top]
                blocks[top], texts[top] = block + (pos,), text + tails[pos]
            elif pos == n:
                # a singleton at the top level, the only region left
                first = firsts[0]
                if first:
                    if lonely_only:
                        return
                    pair = (first, pos)
                    witness = pair if witness is None else min(witness, pair)
                blocks.append((pos,))
                texts.append(names[pos])
            if witness is not None or not marriageable_only:
                yield blocks, texts, witness
            if depth:
                blocks[top], texts[top] = block, text
            elif pos == n:
                blocks.pop()
                texts.pop()
            return
        # every open block needs a later element, so depth <= positions left
        remaining = n - pos + 1
        if depth:
            top = stack[depth - 1]
            first = firsts[depth]
            block, text = blocks[top], texts[top]
            blocks[top], texts[top] = block + (pos,), text + tails[pos]
            # close the top block here: its last gap ends with it
            yield from walk(pos + 1, depth - 1, witness)
            stack[depth - 1] = top  # deeper frames reused the slot
            if depth < remaining:
                # keep it open: a fresh gap starts
                firsts[depth] = 0
                yield from walk(pos + 1, depth, witness)
            firsts[depth] = first
            blocks[top], texts[top] = block, text
        if depth < remaining:
            # a singleton in the innermost region
            first = firsts[depth]
            blocks.append((pos,))
            texts.append(names[pos])
            if first:
                if not lonely_only:
                    pair = (first, pos)
                    yield from walk(pos + 1, depth, pair if witness is None else min(witness, pair))
            else:
                firsts[depth] = pos
                yield from walk(pos + 1, depth, witness)
                firsts[depth] = 0
            blocks.pop()
            texts.pop()
        if depth + 1 < remaining:
            # open a new block
            stack[depth] = len(blocks)
            firsts[depth + 1] = 0
            blocks.append((pos,))
            texts.append(names[pos])
            yield from walk(pos + 1, depth + 1, witness)
            blocks.pop()
            texts.pop()

    return walk(1, 0, None)


def _text_rows(n: int, kind: "Kind | str | None") -> "Iterator[tuple[str, str]]":
    """``enumerate``'s rows: each partition's text and its class value, read off the walker.

    The same stream as ``classified_stream(n, kind)`` as ``(p.to_text(),
    "lonely" if witness is None else "marriageable")``, without a
    ``Partition`` per row.
    """
    join = "/".join
    lonely, marriageable = Kind.LONELY.value, Kind.MARRIAGEABLE.value
    for _, texts, witness in _walk(n, kind):
        yield join(texts), lonely if witness is None else marriageable


def noncrossing_partitions(n: int) -> Iterator[Partition]:
    """Every noncrossing partition of [n], exactly once, by direct construction.

    The order is deterministic: at each position the moves are tried as
    append-and-close, append-and-keep-open, singleton, open-new-block.
    Raises CeilingExceededError past ENUMERATE_CEILING.
    """
    for blocks, _, _ in _walk(n, None):
        yield Partition._canonical(n, blocks)


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
    check_size(max_n, ceiling=COUNT_CEILING, what="the lonely series")
    return _p_recursive(list(_LONELY_START[: max_n + 1]), _LONELY_RECURRENCE, max_n)


def tally(job: CountJob) -> Tally:
    """Count the lonely and marriageable partitions of [job.n].

    The lonely count is the nth term of the lonely recurrence, the total is
    the Catalan number. Raises CeilingExceededError past COUNT_CEILING.
    """
    lonely = _lonely_numbers(job.n)[-1]
    total = catalan(job.n)
    return Tally(job.n, lonely, total - lonely, total)


def tally_range(max_n: int) -> "list[Tally]":
    """Tallies for every n from 0 to max_n inclusive, from one run of each recurrence."""
    lonely = _lonely_numbers(max_n)  # checks max_n before either recurrence runs
    totals = _p_recursive([1], _CATALAN_RECURRENCE, max_n)
    return [Tally(n, lone, total - lone, total) for n, (lone, total) in enumerate(zip(lonely, totals))]


def classified_stream(n: int, kind: "Kind | str | None" = None) -> "Iterator[tuple[Partition, tuple[int, int] | None]]":
    """Stream (partition, witness) pairs in generation order, optionally one class only.

    ``kind`` is a :class:`Kind` or its value, e.g. ``"lonely"``; any other
    value raises ValueError. The witness, the least mergeable singleton pair
    or None for a lonely partition, is found during generation and equals
    :func:`classify`. Each pair is a value that stays valid: the partition
    copies the walker's live blocks (``Partition._canonical``), and the
    witness is an immutable tuple, not live state. The ``enumerate`` command
    reads that state as text instead (:func:`_text_rows`). Raises
    CeilingExceededError past ENUMERATE_CEILING.
    """
    for blocks, _, witness in _walk(n, kind):
        yield Partition._canonical(n, blocks), witness
