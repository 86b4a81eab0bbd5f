import hashlib
import itertools
from collections import Counter
from collections.abc import Iterator
from math import comb
from operator import mul

import pytest

import crossroads.enumeration
import crossroads.formulas
from crossroads import (
    COUNT_CEILING,
    ENUMERATE_CEILING,
    CeilingExceededError,
    CountJob,
    Kind,
    Partition,
    Tally,
    catalan,
    classified_stream,
    classify,
    enumerate_msl,
    is_noncrossing,
    lower_bound_lonely,
    lower_bound_marriageable,
    nc_count,
    noncrossing_partitions,
    partition_to_msl,
    tally,
    tally_range,
)
from crossroads.enumeration import _LONELY_RECURRENCE, _LONELY_START, _text_rows, _walk
from crossroads.formulas import _CATALAN_RECURRENCE, _RIORDAN_RECURRENCE
from crossroads.intersection import _lane_rows
from crossroads.routes import (
    ORACLE_CEILING,
    STREAM_CEILING,
    all_set_partitions,
    classify_definitional,
    oracle_tally,
    stream_tally,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

# Frozen counts from this implementation, cross-checked four independent
# ways, each run by the tests over the range named: the definitional recount
# over all set partitions (oracle_tally, n <= 10, here and in test_acceptance),
# the four-move walk with exact per-block flags (stream_tally, n <= 14, here
# and in test_acceptance), the absolute-MSL count (test_intersection, n <= 6)
# and the maximal-clique count of the U-turn-free intersection
# (test_intersection, n <= 7). Rows up to n = 9 also agree with the published
# reference table; see reference.py for the rows beyond that.
COMPUTED = {
    0: (1, 0, 1),
    1: (1, 0, 1),
    2: (1, 1, 2),
    3: (4, 1, 5),
    4: (9, 5, 14),
    5: (26, 16, 42),
    6: (77, 55, 132),
    7: (232, 197, 429),
    8: (725, 705, 1430),
    9: (2299, 2563, 4862),
    10: (7415, 9381, 16796),
    11: (24223, 34563, 58786),
    12: (79983, 128029, 208012),
    13: (266553, 476347, 742900),
    14: (895333, 1779107, 2674440),
}

# The lonely cubic P(x, R) = 0 of _lonely_series: row j holds the
# coefficients in x of R^j.
CUBIC = ((-1, -1), (1, 2, 3), (0, -2, -3, -2), (0, 0, 1, 2, 1))
# The same for x(1+x) r^2 - (1+x) r + 1 = 0 of the Riordan series and x C^2 - C + 1 = 0 of the Catalan series.
RIORDAN_QUADRATIC = ((1,), (-1, -1), (0, 1, 1))
CATALAN_QUADRATIC = ((1,), (-1,), (0, 1))
# (equation, rows, start values, whether the rows are certified) for TestLonelyRecurrence. Each recurrence
# table of the package is certified here under its name (tests/test_layout.py checks that none is missing),
# and the Riordan rows with p_0 = 1 in place of 1 + n, which run with exact divisions to n = 60, are refused.
CERTIFICATES = [
    pytest.param(CUBIC, _LONELY_RECURRENCE, _LONELY_START, True, id="_LONELY_RECURRENCE"),
    pytest.param(RIORDAN_QUADRATIC, _RIORDAN_RECURRENCE, (1, 0), True, id="_RIORDAN_RECURRENCE"),
    pytest.param(CATALAN_QUADRATIC, _CATALAN_RECURRENCE, (1,), True, id="_CATALAN_RECURRENCE"),
    pytest.param(RIORDAN_QUADRATIC, ((1, 0),) + _RIORDAN_RECURRENCE[1:], (1, 0), False, id="riordan-p0-is-1"),
]


# Reference counters for the recurrence that ``tally`` runs. Neither is
# package code: the series reads the lonely numbers off the cubic, the
# memoized walk counts the four-move construction with exact flags.


def _lonely_series(max_n: int) -> "list[int]":
    """L_0..L_max_n, read off the lonely generating function R(x) = sum L_n x^n.

    A partition is lonely exactly when every region holds at most one
    singleton. A block of size m >= 2 with its m - 1 gaps filled is
    B = x^2 R / (1 - x R), a region without a singleton is R0 = 1 / (1 - B),
    and a region with at most one is R = R0 + x R0^2. Eliminating B and R0,

        x^2 (1+x)^2 R^3 - x (2+3x+2x^2) R^2 + (1+2x+3x^2) R - (1+x) = 0.

    The coefficient of x^n in that equation holds L_n once, with factor 1,
    and otherwise only earlier coefficients of R, R^2 and R^3, so the terms
    follow one by one in O(max_n^2) exact integer steps without recursion.
    """
    if max_n > COUNT_CEILING:
        raise CeilingExceededError(
            f"the lonely series is capped at n={COUNT_CEILING}, got {max_n}"
        )
    r: list[int] = []
    r2: list[int] = []  # coefficients of R^2
    r3: list[int] = []  # coefficients of R^3

    def coeff(seq: list[int], k: int) -> int:
        return seq[k] if k >= 0 else 0

    for n in range(max_n + 1):
        r.append(
            (n <= 1)
            - 2 * coeff(r, n - 1) - 3 * coeff(r, n - 2)
            + 2 * coeff(r2, n - 1) + 3 * coeff(r2, n - 2) + 2 * coeff(r2, n - 3)
            - coeff(r3, n - 2) - 2 * coeff(r3, n - 3) - coeff(r3, n - 4)
        )
        r2.append(sum(map(mul, r, reversed(r))))
        r3.append(sum(map(mul, r, reversed(r2))))
    return r


def _lonely_exact_root(n: int) -> int:
    """Lonely count of [n] by walking the four-move construction, memoized.

    The state is (r, d, bits, g): r positions left, d open blocks, bit t of
    ``bits`` the current-gap singleton flag of the open block at stack depth
    t, and g the top-level region flag. A move that would drop a second
    singleton into a flagged region is pruned. Shares nothing with the
    series; the test suite compares the two.
    """
    return _lonely_exact_inner(n, 0, 0, 0, {})


def _lonely_exact_inner(r: int, d: int, bits: int, g: int, memo: dict) -> int:
    if d > r:
        return 0
    if r == 0:
        return 1
    key = (r, d, bits, g)
    cached = memo.get(key)
    if cached is not None:
        return cached
    top = 1 << d
    # open a new block: one more stack slot, unflagged
    count = _lonely_exact_inner(r - 1, d + 1, bits, g, memo)
    if d == 0:
        if g == 0:
            count += _lonely_exact_inner(r - 1, 0, 0, 1, memo)
    else:
        top >>= 1
        if not bits & top:
            count += _lonely_exact_inner(r - 1, d, bits | top, g, memo)
        # extend top, keep open: its gap flag resets
        count += _lonely_exact_inner(r - 1, d, bits & ~top, g, memo)
        # extend top, close: flag leaves with the block
        count += _lonely_exact_inner(r - 1, d - 1, bits & ~top, g, memo)
    memo[key] = count
    return count


# Polynomials in x and R with integer coefficients, as {(i, j): c} for c x^i R^j.


def _pmul(a: dict, b: dict) -> dict:
    out = Counter()
    for (i, j), c in a.items():
        for (k, l), e in b.items():
            out[i + k, j + l] += c * e
    return {key: c for key, c in out.items() if c}


def _plin(*terms: "tuple[int, dict]") -> dict:
    """The sum of c * a over the (c, a) pairs."""
    out = Counter()
    for c, a in terms:
        for key, v in a.items():
            out[key] += c * v
    return {key: c for key, c in out.items() if c}


def _pdiff(a: dict, var: int) -> dict:
    """The partial derivative in x (var 0) or in R (var 1)."""
    out = {}
    for key, c in a.items():
        if key[var]:
            lowered = list(key)
            lowered[var] -= 1
            out[tuple(lowered)] = key[var] * c
    return out


class TestAllSetPartitions:
    def test_bell_counts(self):
        for n, expected in enumerate(BELL[:8]):
            assert sum(1 for _ in all_set_partitions(n)) == expected

    def test_n0_yields_empty_partition(self):
        assert list(all_set_partitions(0)) == [Partition(0, [])]

    def test_rgs_order_endpoints(self):
        parts = list(all_set_partitions(3))
        assert parts[0] == Partition.from_text("1,2,3")
        assert parts[-1] == Partition.from_text("1/2/3")

    def test_rgs_order_at_4(self):
        assert [p.to_text() for p in all_set_partitions(4)] == (
            "1,2,3,4 1,2,3/4 1,2,4/3 1,2/3,4 1,2/3/4 1,3,4/2 1,3/2,4 1,3/2/4 "
            "1,4/2,3 1/2,3,4 1/2,3/4 1,4/2/3 1/2,4/3 1/2/3,4 1/2/3/4"
        ).split()

    def test_noncrossing_density_at_4(self):
        parts = list(all_set_partitions(4))
        assert len(parts) == 15
        assert sum(1 for p in parts if is_noncrossing(p)) == 14

    def test_no_duplicates(self):
        parts = list(all_set_partitions(6))
        assert len(set(parts)) == len(parts) == 203

    def test_ceiling(self):
        with pytest.raises(CeilingExceededError):
            next(all_set_partitions(ORACLE_CEILING + 1))


class TestNoncrossingPartitions:
    def test_catalan_counts(self, nc_lists):
        for n in range(0, 10):
            assert len(nc_lists(n)) == catalan(n)

    def test_distinct_and_noncrossing(self, nc_lists):
        for n in range(0, 9):
            parts = nc_lists(n)
            assert len(set(parts)) == len(parts)
            assert all(is_noncrossing(p) for p in parts)

    def test_agrees_with_filtered_oracle(self, nc_lists):
        for n in range(0, 8):
            direct = set(nc_lists(n))
            filtered = {p for p in all_set_partitions(n) if is_noncrossing(p)}
            assert direct == filtered

    def test_deterministic_order(self):
        assert list(noncrossing_partitions(6)) == list(noncrossing_partitions(6))


class TestTally:
    def test_spec_rows(self):
        assert tally(CountJob(4)) == Tally(4, 9, 5, 14)
        assert tally(CountJob(0)) == Tally(0, 1, 0, 1)
        assert tally(CountJob(8)) == Tally(8, 725, 705, 1430)

    def test_frozen_table(self):
        for n, (lonely, marriageable, total) in COMPUTED.items():
            assert tally(CountJob(n)) == Tally(n, lonely, marriageable, total)

    def test_totals_are_catalan_up_to_16(self):
        for n in range(17):
            assert tally(CountJob(n)).total == catalan(n)

    def test_oracle_equivalence(self):
        for n in range(0, 8):
            assert oracle_tally(n) == tally(CountJob(n))

    def test_oracle_spec_rows(self):
        assert oracle_tally(3) == Tally(3, 4, 1, 5)
        assert oracle_tally(6) == Tally(6, 77, 55, 132)
        assert oracle_tally(1) == Tally(1, 1, 0, 1)

    def test_oracle_ceiling(self):
        with pytest.raises(CeilingExceededError):
            oracle_tally(ORACLE_CEILING + 1)

    def test_stream_tally_matches(self):
        for n in range(0, 11):
            assert stream_tally(n) == tally(CountJob(n))

    def test_stream_ceiling(self):
        # 1200 first: without a ceiling it recurses past the interpreter's limit at once
        for n in (1200, STREAM_CEILING + 1):
            with pytest.raises(CeilingExceededError):
                stream_tally(n)

    def test_seed_values_pinned_through_320(self):
        # L_0..L_320 as the memoized state machine that preceded the series
        # computed them, joined by commas and hashed; then the whole counting
        # range as the hand-written recurrence loops that preceded the one
        # runner computed it.
        pinned = [
            ((tally(CountJob(n)).lonely for n in range(321)),
             "4e83a6b51ed89c06d36c2dc5f1bda849e971e6304e795cceca3b549df1300cb0"),
            ((t.lonely for t in tally_range(COUNT_CEILING)),
             "d32c83b9e36cf64473f6c46f12e88c0e137b9af3ce6e34b879c6dc3e9a9021a8"),
            ((lower_bound_lonely(n) for n in range(2, COUNT_CEILING + 1)),
             "5c54bd938489aa508b3e686c7770d45ca764a13af28f357c3eda598dfdeb4357"),
            ((lower_bound_marriageable(n) for n in range(3, COUNT_CEILING + 1)),
             "5fff6e769251ccea2a753ed88e046ee754fca4812d9c2a3102606068ca5df943"),
        ]
        for values, digest in pinned:
            assert hashlib.sha256(",".join(map(str, values)).encode()).hexdigest() == digest

    def test_tally_range(self):
        tallies = tally_range(4)
        assert [t.total for t in tallies] == [1, 1, 2, 5, 14]
        assert tally_range(0) == [Tally(0, 1, 0, 1)]
        assert tally_range(60) == [tally(CountJob(n)) for n in range(61)]
        with pytest.raises(ValueError):
            tally_range(-1)

    def test_range_totals_are_catalan_through_300(self):
        assert [t.total for t in tally_range(300)] == [catalan(n) for n in range(301)]

    def test_monotone_growth(self):
        tallies = tally_range(14)
        for n in range(2, 14):
            assert tallies[n].lonely < tallies[n + 1].lonely
        for n in range(3, 14):
            assert tallies[n].marriageable < tallies[n + 1].marriageable


class TestMachines:
    def test_exact_flags_validate_the_collapse(self):
        series = _lonely_series(30)
        for n in range(0, 31):
            assert _lonely_exact_root(n) == series[n]


class TestLonelyRecurrence:
    @pytest.mark.parametrize(("equation", "rows", "start", "certified"), CERTIFICATES)
    def test_certified_by_its_equation(self, equation, rows, start, certified):
        """sum_k p_k(n) a_{n-k} = 0 holds for every n past the start values, not only where it was fitted.

        Here R = sum a_n x^n is the series of the start values and the rows,
        and P(x, R) = 0 its equation, of degree e in R. With theta = x d/dx,
        the operator Omega = sum_k x^k p_k(theta + k) maps R to sum_n c_n x^n,
        c_n = sum_{k<=n} p_k(n) a_{n-k}, so the recurrence with its start
        values says Omega R = Q, the polynomial of the c_n over the start
        values. R' = -P_x / P_R gives theta^j R as N_j(x, R) / P_R^(2j-1), so,
        with d the rows' degree, F = P_R^(2d-1) (Omega R - Q) is a polynomial
        in x and R. Its pseudo-remainder by P in R is 0, so F(x, R(x)) = 0, and
        P_R(0, a_0) != 0 makes P_R(x, R(x)) invertible: Omega R = Q. Rows that
        are not certified leave a remainder.
        """
        x, r = {(1, 0): 1}, {(0, 1): 1}
        poly = {(i, j): c for j, row in enumerate(equation) for i, c in enumerate(row) if c}
        px, pr = _pdiff(poly, 0), _pdiff(poly, 1)
        assert sum(c * start[0] ** j for (i, j), c in pr.items() if i == 0) != 0
        d = max(map(len, rows)) - 1
        pr_powers = [{(0, 0): 1}]
        for _ in range(2 * d - 1):
            pr_powers.append(_pmul(pr_powers[-1], pr))
        # d/dx F(x, R(x)) = (F_x P_R - F_R P_x) / P_R
        d_pr = _plin((1, _pmul(_pdiff(pr, 0), pr)), (-1, _pmul(_pdiff(pr, 1), px)))
        theta = [_pmul(r, pr_powers[-1])]  # theta^j R, all over P_R^(2d-1)
        num, power = _plin((-1, _pmul(x, px))), 1
        for _ in range(d):
            theta.append(_pmul(num, pr_powers[2 * d - 1 - power]))
            d_num = _plin((1, _pmul(_pdiff(num, 0), pr)), (-1, _pmul(_pdiff(num, 1), px)))
            num = _plin((1, _pmul(_pmul(x, pr), d_num)), (-power, _pmul(_pmul(x, num), d_pr)))
            power += 2

        def p(k: int, n: int) -> int:
            return sum(a * n**i for i, a in enumerate(rows[k]))

        q = {
            (n, 0): sum(p(k, n) * start[n - k] for k in range(min(n, len(rows) - 1) + 1))
            for n in range(len(start))
        }
        terms = [(-1, _pmul(q, pr_powers[-1]))]
        for k, row in enumerate(rows):
            for j in range(len(row)):
                # coefficient of t^j in p_k(t + k)
                b = sum(a * comb(i, j) * k ** (i - j) for i, a in enumerate(row) if i >= j)
                terms.append((b, _pmul({(k, 0): 1}, theta[j])))
        f = _plin(*terms)
        # pseudo-division: scale by P's leading coefficient, cancel the top power of R
        e = len(equation) - 1
        lead = {(i, 0): c for (i, j), c in poly.items() if j == e}
        while f and (top := max(j for _, j in f)) >= e:
            head = {(i, top - e): c for (i, j), c in f.items() if j == top}
            f = _plin((1, _pmul(lead, f)), (-1, _pmul(head, poly)))
        assert (f == {}) is certified

    def test_leading_coefficient_has_no_root_from_5(self):
        # every complex root of p_0 is below Cauchy's bound 1 + max |a_d / a_4|
        row = _LONELY_RECURRENCE[0]
        bound = 1 + max(abs(a) for a in row[:-1]) / abs(row[-1])
        assert bound < 8
        assert all(sum(a * n**d for d, a in enumerate(row)) for n in range(5, 8))

    def test_equals_the_series_through_600(self):
        assert [t.lonely for t in tally_range(600)] == _lonely_series(600)


class TestJobsAndValidation:
    def test_tally_invariant(self):
        with pytest.raises(ValueError):
            Tally(2, 1, 2, 2)

    def test_count_job_validation(self):
        with pytest.raises(ValueError):
            CountJob(-1)
        for workers in (0, True, 2.5, "2"):
            with pytest.raises(ValueError, match="^workers must be a positive int$"):
                CountJob(3, workers=workers)
        assert CountJob(3, workers=2).workers == 2


class TestClassifiedStream:
    def test_lonely_stream_count(self):
        for kind in (Kind.LONELY, "lonely"):
            items = list(classified_stream(5, kind))
            assert len(items) == 26, kind
            assert all(witness is None for _, witness in items)
        with pytest.raises(ValueError):
            next(classified_stream(5, "bogus"))

    def test_unfiltered_stream_is_complete(self):
        items = list(classified_stream(4))
        assert len(items) == 14
        marr = [p for p, witness in items if witness is not None]
        assert len(marr) == 5

    @staticmethod
    def _assert_stream_equals(n, classifier):
        expected = [(p, classifier(p)) for p in noncrossing_partitions(n)]
        for kind in (None, Kind.LONELY, Kind.MARRIAGEABLE, "lonely", "marriageable"):
            wanted = kind and Kind(kind)
            assert list(classified_stream(n, kind)) == [
                (p, w) for p, w in expected if wanted is None or (w is None) == (wanted is Kind.LONELY)
            ], (n, kind)

    def test_walker_matches_the_definitional_classifier(self):
        for n in range(10):
            self._assert_stream_equals(n, classify_definitional)

    def test_walker_matches_the_forest_classifier_at_10(self):
        self._assert_stream_equals(10, classify)

    def test_walker_partitions_are_canonical(self):
        # _canonical trusts the walker: this is the check it does not make
        for n in range(11):
            for kind in (None, Kind.LONELY, Kind.MARRIAGEABLE):
                for p, _ in classified_stream(n, kind):
                    checked = Partition(p.n, p.blocks)
                    assert p == checked and p.to_text() == checked.to_text(), (n, kind)
                    assert hash(p) == hash(checked) and repr(p) == repr(checked), (n, kind)
                    assert Partition.from_text(p.to_text()) == p, (n, kind)
            items = list(classified_stream(n))
            assert list(noncrossing_partitions(n)) == [p for p, _ in items], n

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", [None, Kind.LONELY, Kind.MARRIAGEABLE, "lonely", "marriageable"])
    def test_first_position_is_the_forced_last(self, n, kind):
        # position n is both the walk's first move and its forced last one
        everything = list(classified_stream(n))
        assert all(w == classify(p) for p, w in everything)
        wanted = kind and Kind(kind)
        stream = list(classified_stream(n, kind))
        assert stream == [(p, w) for p, w in everything if wanted is None or (w is None) == (wanted is Kind.LONELY)]

    def test_walker_state_is_a_checked_partition_through_12(self):
        # the walker's live lists and witness at each leaf against the validated Partition
        # and classify; each filtered walk is the unfiltered one filtered, leaf for leaf
        def leaves(n, kind):
            return ((tuple(blocks), "/".join(texts), witness) for blocks, texts, witness in _walk(n, kind))

        for n in range(13):
            texts = set()
            wrong = [
                text for blocks, text, witness in leaves(n, None)
                if text in texts or texts.add(text)
                or (checked := Partition(n, blocks)).blocks != blocks or checked.to_text() != text
                or classify(checked) != witness
            ]
            assert wrong == [] and len(texts) == catalan(n), n
            for kind in (Kind.LONELY, Kind.MARRIAGEABLE) + (("lonely", "marriageable") if n < 11 else ()):
                lonely = Kind(kind) is Kind.LONELY
                expected = (leaf for leaf in leaves(n, None) if (leaf[2] is None) == lonely)
                assert all(a == b for a, b in itertools.zip_longest(leaves(n, kind), expected)), (n, kind)

    @pytest.mark.parametrize("kind", [None, Kind.LONELY, Kind.MARRIAGEABLE, "lonely", "marriageable"])
    def test_text_rows_are_the_classified_stream(self, kind):
        for n in range(11):
            expected = [(p.to_text(), "lonely" if w is None else "marriageable") for p, w in classified_stream(n, kind)]
            assert list(_text_rows(n, kind)) == expected, n

    def test_empty_ground_set(self):
        assert list(classified_stream(0)) == [(Partition(0, ()), classify(Partition(0, ())))]
        assert list(classified_stream(0, Kind.LONELY)) == list(classified_stream(0))
        assert list(classified_stream(0, Kind.MARRIAGEABLE)) == []

    def test_ceiling(self):
        # every view, the CLI's two row streams included, draws its first item at the ceiling
        first = next(noncrossing_partitions(ENUMERATE_CEILING))
        assert first.blocks == tuple((i,) for i in range(1, ENUMERATE_CEILING + 1))
        assert next(classified_stream(ENUMERATE_CEILING, Kind.MARRIAGEABLE))[0] == first
        assert next(enumerate_msl(ENUMERATE_CEILING)) == partition_to_msl(first)
        assert next(_text_rows(ENUMERATE_CEILING, None)) == (first.to_text(), "marriageable")
        lanes = ",".join(f"E{i}>X{i}" for i in range(1, ENUMERATE_CEILING + 1))
        assert next(_lane_rows(ENUMERATE_CEILING)) == (lanes, False, first.to_text())
        for stream in (noncrossing_partitions, classified_stream):
            with pytest.raises(CeilingExceededError):
                next(stream(ENUMERATE_CEILING + 1))


def _sized(call, least=0, name=None):
    return pytest.param(call, least, id=name or call.__name__)


# every entry point that takes a ground-set size, with the least size it accepts
SIZED = [
    _sized(noncrossing_partitions),
    _sized(classified_stream),
    _sized(all_set_partitions),
    _sized(lambda n: Partition(n, ()), name="Partition"),
    _sized(CountJob),
    _sized(tally_range),
    _sized(catalan),
    _sized(stream_tally),
    _sized(lambda n: nc_count(n, 1, 0), name="nc_count"),
    _sized(lower_bound_lonely, 2),
    _sized(lower_bound_marriageable, 3),
    # an unchecked partition, so the size reaches partition_to_msl's own check
    _sized(lambda n: partition_to_msl(Partition._canonical(n, ())), 1, "partition_to_msl"),
    _sized(enumerate_msl, 1),
    _sized(lambda n: _text_rows(n, None), name="_text_rows"),
    _sized(_lane_rows, 1),
]


def _call(entry, n):
    """Call an entry point with size n, drawing the first item when it streams."""
    result = entry(n)
    if isinstance(result, Iterator):
        next(result)


@pytest.mark.parametrize("entry, least", SIZED)
@pytest.mark.parametrize("n", [-1, -3, 1.0, True, "3"])
def test_negative_size_is_rejected(entry, least, n):
    """A size below zero or not an int, bools included, is refused with one message."""
    refusal = f"at least {least}" if least else "nonnegative"
    with pytest.raises(ValueError, match=f"^ground set size must be {refusal}$"):
        _call(entry, n)


@pytest.mark.parametrize("entry, what, ceiling", [
    pytest.param(noncrossing_partitions, "enumeration", ENUMERATE_CEILING, id="noncrossing_partitions"),
    pytest.param(classified_stream, "enumeration", ENUMERATE_CEILING, id="classified_stream"),
    pytest.param(tally_range, "the lonely series", COUNT_CEILING, id="tally_range"),
    pytest.param(lambda n: tally(CountJob(n)), "the lonely series", COUNT_CEILING, id="tally"),
    pytest.param(all_set_partitions, "all_set_partitions", ORACLE_CEILING, id="all_set_partitions"),
    pytest.param(stream_tally, "stream_tally", STREAM_CEILING, id="stream_tally"),
    pytest.param(enumerate_msl, "enumeration", ENUMERATE_CEILING, id="enumerate_msl"),
    pytest.param(lambda n: _text_rows(n, None), "enumeration", ENUMERATE_CEILING, id="_text_rows"),
    pytest.param(_lane_rows, "enumeration", ENUMERATE_CEILING, id="_lane_rows"),
    pytest.param(lower_bound_lonely, "lower_bound_lonely", COUNT_CEILING, id="lower_bound_lonely"),
    pytest.param(lower_bound_marriageable, "lower_bound_marriageable", COUNT_CEILING,
                 id="lower_bound_marriageable"),
])
def test_size_above_the_ceiling_is_rejected(entry, what, ceiling):
    with pytest.raises(CeilingExceededError, match=f"^{what} is capped at n={ceiling}, got {ceiling + 1}$"):
        _call(entry, ceiling + 1)


@pytest.mark.parametrize("entry", [
    pytest.param(tally_range, id="tally_range"),
    pytest.param(lambda n: tally(CountJob(n)), id="tally"),
    pytest.param(lower_bound_lonely, id="lower_bound_lonely"),
    pytest.param(lower_bound_marriageable, id="lower_bound_marriageable"),
])
def test_size_is_checked_before_the_recurrence_runs(entry, monkeypatch):
    """With the runner refused, a size far above the ceiling is still refused by the ceiling, not run up to."""
    def refuse(terms, rows, max_n):
        raise AssertionError(f"the recurrence ran to n={max_n}")

    monkeypatch.setattr(crossroads.formulas, "_p_recursive", refuse)
    monkeypatch.setattr(crossroads.enumeration, "_p_recursive", refuse)
    with pytest.raises(CeilingExceededError):
        entry(10**9)
