"""Closed forms, bounds, and the ratio report.

Exact integer formulas for Catalan numbers and for the number of noncrossing
partitions of [n] with m blocks and k singletons (the paper's no-singleton form
times the binomial(n, k) places for the singletons), plus two lower bounds for
the lonely and marriageable counts, built from the Riordan numbers that sum
the no-singleton counts over m.
Every division is an exact integer division guarded by an assertion, so a
transcription slip cannot round its way past the tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

from .partitions import check_size

if TYPE_CHECKING:
    from .enumeration import Tally


def _binom(a: int, b: int) -> int:
    """Binomial coefficient with the zero convention outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def catalan(n: int) -> int:
    """The nth Catalan number, binomial(2n, n) / (n + 1), exactly."""
    check_size(n)
    num = comb(2 * n, n)
    assert num % (n + 1) == 0
    return num // (n + 1)


COUNT_CEILING = 2000
"""Largest n accepted by tally, tally_range and the two lower bounds. On a 2-vCPU host
with CPython 3.11, ``count --n 2000`` takes about 0.15 s and ``bounds --max-n 2000``
about 0.3 s."""


def nc_count(n: int, m: int, k: int) -> int:
    """Noncrossing partitions of [n] with m blocks and k singletons, for every k.

    A singleton crosses nothing, so each such partition is a choice of the k
    singleton positions and a singleton-free noncrossing partition of the other
    n-k elements into m-k blocks: the count is binomial(n, k) times the k = 0
    form at (n-k, m-k). That form is binomial(n, m) * binomial(n-m-1, m-1)
    divided by n-m+1, with the empty partition as the (0, 0) special case.
    Out-of-support binomials vanish by convention, so any m or k out of range
    counts 0.
    """
    check_size(n)
    if type(m) is not int or type(k) is not int:
        raise ValueError("block and singleton counts must be ints")
    ways = _binom(n, k)
    n, m = n - k, m - k  # the singleton-free rest
    if ways == 0 or n == m == 0:
        return ways
    num = _binom(n, m) * _binom(n - m - 1, m - 1)
    if num == 0:
        return 0
    assert num % (n - m + 1) == 0
    return ways * (num // (n - m + 1))


_RIORDAN = [1, 0]


def _riordan(n: int) -> int:
    """R_n, the number of noncrossing partitions of [n] with no singleton.

    These are the Riordan numbers (OEIS A005043), the sums over m of
    nc_count(n, m, 0), with R_0 = 1 for the empty partition. They obey
    (k+1) R_k = (k-1) (2 R_{k-1} + 3 R_{k-2}) from R_0 = 1, R_1 = 0.
    One module-level list holds every term computed so far and grows on
    demand; its only callers are capped at COUNT_CEILING, and so is the list.
    """
    for k in range(len(_RIORDAN), n + 1):
        num = (k - 1) * (2 * _RIORDAN[k - 1] + 3 * _RIORDAN[k - 2])
        assert num % (k + 1) == 0
        _RIORDAN.append(num // (k + 1))
    return _RIORDAN[n]


def lower_bound_lonely(n: int) -> int:
    """Count of noncrossing partitions of [n] with at most one singleton.

    Any such partition is lonely for lack of a mergeable pair, so this is a
    lower bound for the lonely count. A lone singleton sits at any of the n
    positions without crossing the singleton-free rest, so the count is
    R_n + n R_{n-1}. Raises CeilingExceededError past COUNT_CEILING.
    """
    check_size(n, least=2, ceiling=COUNT_CEILING, what="lower_bound_lonely")
    return _riordan(n) + n * _riordan(n - 1)


def lower_bound_marriageable(n: int) -> int:
    """Count of marriageable partitions with exactly two singletons {i}, {j}.

    For a mergeable pair at positions i < j, the elements strictly between
    i and j and the elements outside [i, j] form independent noncrossing
    partitions with no singleton, of sizes d-1 and n-d-1 where d = j-i.
    The n-d pairs at distance d each give R_{n-d-1} R_{d-1}, and summing
    over d gives a lower bound for the marriageable count. That sum is
    B_n = n (R_{n-1} + (-1)^n) / 2:

    1. With i = n-d-1 and j = d-1 the sum is the sum over i+j = n-2 of
       (i+1) R_i R_j. Swapping i and j and averaging gives
       (n/2) times the sum over i+j = n-2 of R_i R_j.
    2. The Riordan series r solves x(1+x) r^2 - (1+x) r + 1 = 0, so
       r^2 = r/x - 1/(x(1+x)). Hence the sum over i+j = m of R_i R_j
       is R_{m+1} + (-1)^m.
    3. Substituting m = n-2 gives B_n.

    Raises CeilingExceededError past COUNT_CEILING.
    """
    check_size(n, least=3, ceiling=COUNT_CEILING, what="lower_bound_marriageable")
    num = n * (_riordan(n - 1) + (-1) ** n)
    assert num % 2 == 0
    return num // 2


def two_digits(num: int, den: int) -> str:
    """Render num/den with exactly two fractional digits, round half up, in exact integers."""
    if type(num) is not int or type(den) is not int:
        raise ValueError("two_digits renders ratios of ints only")
    if den == 0:
        raise ZeroDivisionError("ratio denominator is zero")
    if num < 0 or den < 0:
        raise ValueError("two_digits renders nonnegative ratios only")
    hundredths = (200 * num + den) // (2 * den)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


@dataclass(frozen=True)
class SequenceRow:
    """One row of the table report: counts plus the four ratio columns.

    Ratio fields are fixed two-digit strings; a ratio whose denominator does
    not exist (the n = 0 row, or a zero predecessor) is None.
    """

    n: int
    lonely: int
    marriageable: int
    catalan: int
    ratio_l: "str | None"
    ratio_m: "str | None"
    m_over_l: "str | None"
    m_over_c: str


def _ratio(num: int, den: "int | None") -> "str | None":
    """A ratio column of :class:`SequenceRow`: ``two_digits(num, den)``, None without a denominator."""
    return two_digits(num, den) if den else None


def ratio_report(tallies: "list[Tally]") -> "list[SequenceRow]":
    """Build one SequenceRow per tally; the tallies cover n = 0, 1, 2, ... in order."""
    if any(t.n != i for i, t in enumerate(tallies)):
        raise ValueError("tallies must cover n = 0, 1, 2, ... in order")
    return [
        SequenceRow(
            n=t.n,
            lonely=t.lonely,
            marriageable=t.marriageable,
            catalan=t.total,
            ratio_l=_ratio(t.lonely, prev and prev.lonely),
            ratio_m=_ratio(t.marriageable, prev and prev.marriageable),
            m_over_l=_ratio(t.marriageable, t.lonely),
            m_over_c=two_digits(t.marriageable, t.total),
        )
        for prev, t in zip([None, *tallies], tallies)
    ]
