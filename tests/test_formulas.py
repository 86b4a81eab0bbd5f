import hashlib
import sys
import threading
from collections import Counter
from fractions import Fraction
from math import comb, floor

import pytest

from crossroads import (
    COUNT_CEILING,
    SequenceRow,
    Tally,
    catalan,
    classify,
    lower_bound_lonely,
    lower_bound_marriageable,
    nc_count,
    ratio_report,
    tally_range,
    two_digits,
)
from crossroads import formulas

# Values frozen after checking each one against the enumeration oracle
# (count partitions with at most one singleton, and marriageable partitions
# with exactly two singletons, respectively).
LONELY_BOUND = {
    2: 1, 3: 4, 4: 7, 5: 21, 6: 51, 7: 141, 8: 379, 9: 1051,
    10: 2923, 11: 8218, 12: 23233, 13: 66067, 14: 188709,
}
MARRIAGEABLE_BOUND = {
    3: 0, 4: 4, 5: 5, 6: 21, 7: 49, 8: 148, 9: 405,
    10: 1165, 11: 3311, 12: 9516, 13: 27378, 14: 79093,
}


class TestCatalan:
    def test_known_values(self):
        assert catalan(0) == 1
        assert catalan(10) == 16796
        assert catalan(14) == 2674440
        assert catalan(16) == 35357670

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestNcCount:
    def test_special_cases(self):
        assert nc_count(0, 0, 0) == 1
        assert nc_count(1, 1, 1) == 1

    def test_small_cells(self):
        assert nc_count(4, 2, 0) == 2
        assert nc_count(4, 2, 1) == 4
        assert nc_count(5, 2, 1) == 5

    def test_rejects_k_out_of_range(self):
        # a k no partition has is not refused but counted: none, negative, above n or above m
        for n, m, k in ((4, 2, 2), (4, 2, -1), (4, 4, 5), (6, 2, 3), (0, 0, 1)):
            assert nc_count(n, m, k) == 0, (n, m, k)

    def test_cells_total_catalan(self):
        # the closed form alone, past the walker's reach: its cells sum to C_n
        for n in range(0, 41):
            total = sum(nc_count(n, m, k) for m in range(n + 1) for k in range(n + 1))
            assert total == catalan(n), n

    def test_rejects_bad_size(self):
        # a negative size, a bool and a float are refused, not counted or met with TypeError
        for n, m, k in ((-1, 0, 0), (True, 1, 1), (2.0, 1, 0)):
            with pytest.raises(ValueError, match="^ground set size must be nonnegative$"):
                nc_count(n, m, k)

    @pytest.mark.parametrize("n, m, k", [(4, True, 0), (1, 1, True), (4, 2.0, 0)])
    def test_rejects_non_int_counts(self, n, m, k):
        # bools used to count as 1, a float raised TypeError from comb
        with pytest.raises(ValueError, match="^block and singleton counts must be ints$"):
            nc_count(n, m, k)

    def test_enumerated_cells(self):
        # two or more singletons count like any other k
        assert nc_count(4, 3, 2) == 6
        assert nc_count(4, 4, 4) == 1
        assert nc_count(4, 2, 2) == 0

    def test_closed_form_matches_enumeration(self, nc_lists):
        # every cell, out-of-range m and k included, against the walker's partitions
        for n in range(0, 10):
            counter = Counter((len(p.blocks), len(p.singletons)) for p in nc_lists(n))
            assert sum(counter.values()) == catalan(n)
            for m in range(-1, n + 2):
                for k in range(-1, n + 2):
                    assert nc_count(n, m, k) == counter[m, k], (n, m, k)

    def test_paper_one_singleton_form(self):
        # the paper's own k = 1 closed form, with a binomial that shares no code with formulas
        def binom(a, b):
            return comb(a, b) if 0 <= b <= a else 0

        for n in range(2, 401):
            for m in range(0, n + 2):
                assert nc_count(n, m, 1) == binom(n, m - 1) * binom(n - m - 1, m - 2), (n, m)

    def test_support_constraint(self):
        for n in range(1, 12):
            for m in range(0, n + 1):
                if n < 2 * m:
                    assert nc_count(n, m, 0) == 0


class TestLowerBounds:
    def test_lonely_bound_values(self):
        for n, expected in LONELY_BOUND.items():
            assert lower_bound_lonely(n) == expected

    def test_lonely_bound_counts_low_singleton_partitions(self, nc_lists):
        for n in range(2, 9):
            direct = sum(1 for p in nc_lists(n) if len(p.singletons) <= 1)
            assert lower_bound_lonely(n) == direct

    def test_lonely_bound_domain(self):
        with pytest.raises(ValueError):
            lower_bound_lonely(1)

    def test_marriageable_bound_values(self):
        for n, expected in MARRIAGEABLE_BOUND.items():
            assert lower_bound_marriageable(n) == expected

    def test_marriageable_bound_counts_two_singleton_partitions(self, nc_lists):
        for n in range(3, 9):
            direct = sum(
                1
                for p in nc_lists(n)
                if len(p.singletons) == 2 and classify(p) is not None
            )
            assert lower_bound_marriageable(n) == direct

    def test_marriageable_bound_domain(self):
        with pytest.raises(ValueError):
            lower_bound_marriageable(2)

    def test_riordan_forms_equal_the_nc_count_sums(self):
        # the bounds as sums of nc_count over blocks, and over the distance d
        # of a singleton pair: the n-d pairs at distance d split [n] into
        # singleton-free parts of sizes d-1 and n-d-1
        no_singleton = [sum(nc_count(k, m, 0) for m in range(k // 2 + 1)) for k in range(401)]
        for n in range(2, 401):
            zero = sum(nc_count(n, m, 0) for m in range(1, n // 2 + 1))
            one = sum(nc_count(n, m, 1) for m in range(2, (n + 1) // 2 + 1))
            assert lower_bound_lonely(n) == zero + one, n
        for n in range(3, 401):
            pairs = sum((n - d) * no_singleton[n - d - 1] * no_singleton[d - 1] for d in range(1, n))
            assert lower_bound_marriageable(n) == pairs, n

    def test_riordan_memo_stops_at_the_ceiling(self):
        lower_bound_lonely(COUNT_CEILING)
        lower_bound_marriageable(COUNT_CEILING)
        # the memo is the list of terms, R_0..R_COUNT_CEILING, not the table of rows that extends it
        assert type(formulas._RIORDAN) is list
        assert len(formulas._RIORDAN) == COUNT_CEILING + 1
        assert formulas._RIORDAN[:10] == [1, 0, 1, 1, 3, 6, 15, 36, 91, 232]

    def test_concurrent_bounds_extend_the_memo_once(self):
        """Four threads running both bounds at the ceiling from a reset memo leave ``_RIORDAN`` whole and right.

        The bounds extend the one module list; two threads extending it at
        once would append the same term twice and read the wrong predecessors.
        The digests are those that ``test_seed_values_pinned_through_320`` pins.
        """
        pinned = [
            (lower_bound_lonely, 2, "5c54bd938489aa508b3e686c7770d45ca764a13af28f357c3eda598dfdeb4357"),
            (lower_bound_marriageable, 3, "5fff6e769251ccea2a753ed88e046ee754fca4812d9c2a3102606068ca5df943"),
        ]
        saved, interval = formulas._RIORDAN[:], sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so that unguarded extensions interleave
        try:
            for _ in range(10):
                formulas._RIORDAN[:] = [1, 0]
                start, errors = threading.Barrier(4), []

                def run():
                    try:
                        start.wait(timeout=60)
                        lower_bound_lonely(COUNT_CEILING)
                        lower_bound_marriageable(COUNT_CEILING)
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=run) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert errors == []
                assert len(formulas._RIORDAN) == COUNT_CEILING + 1
                for bound, least, digest in pinned:
                    values = ",".join(str(bound(n)) for n in range(least, COUNT_CEILING + 1))
                    assert hashlib.sha256(values.encode()).hexdigest() == digest
        finally:
            sys.setswitchinterval(interval)
            formulas._RIORDAN[:] = saved

    def test_runner_stops_at_the_first_inexact_division(self):
        # (n+1) a_n = (3n-2) a_{n-1}, a mistyped Catalan row, fails at once: 2 a_1 = 1
        terms = [1]
        with pytest.raises(AssertionError):
            formulas._p_recursive(terms, ((1, 1), (2, -3)), 10)
        assert terms == [1]
        # p_1 = 2-3n for the Riordan rows' 2-2n still gives R_2 = 1, then 4 a_3 = 7
        terms = [1, 0]
        with pytest.raises(AssertionError):
            formulas._p_recursive(terms, ((1, 1), (2, -3), (3, -3)), 10)
        assert terms == [1, 0, 1]

    def test_bounds_hold_against_tallies(self):
        tallies = tally_range(14)
        for n in range(2, 15):
            assert lower_bound_lonely(n) <= tallies[n].lonely
        for n in range(3, 15):
            assert lower_bound_marriageable(n) <= tallies[n].marriageable


class TestTwoDigits:
    def test_rounding(self):
        assert two_digits(25, 8) == "3.13"
        assert two_digits(3, 8) == "0.38"
        assert two_digits(1, 40) == "0.03"
        assert two_digits(1, 3) == "0.33"
        assert two_digits(2, 3) == "0.67"

    def test_trailing_zeroes_kept(self):
        assert two_digits(5, 2) == "2.50"
        assert two_digits(1, 1) == "1.00"
        assert two_digits(0, 7) == "0.00"

    def test_exact_on_big_integers(self):
        assert two_digits(10**40 + 1, 10**40) == "1.00"
        assert two_digits(10**40, 4) == str(10**40 // 4) + ".00"

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            two_digits(1, 0)

    def test_negative_ratio_rejected(self):
        # floor division would round a negative ratio the wrong way
        for num, den in [(-1, 4), (1, -4)]:
            with pytest.raises(ValueError):
                two_digits(num, den)

    def test_non_int_rejected(self):
        # a float met a format-code error, a bool rendered as 1
        for num, den in [(1.5, 2), (True, 2), (1, 2.0), (1, False)]:
            with pytest.raises(ValueError, match="^two_digits renders ratios of ints only$"):
                two_digits(num, den)

    def test_every_ratio_cell_to_the_ceiling_is_exact_half_up(self):
        def half_up(num, den):
            hundredths = floor(Fraction(num, den) * 100 + Fraction(1, 2))
            return f"{hundredths // 100}.{hundredths % 100:02d}"

        tallies = tally_range(2000)
        rows = ratio_report(tallies)
        for row, t, prev in zip(rows[1:], tallies[1:], tallies):
            assert (row.ratio_l, row.ratio_m, row.m_over_l, row.m_over_c) == (
                half_up(t.lonely, prev.lonely),
                half_up(t.marriageable, prev.marriageable) if prev.marriageable else None,
                half_up(t.marriageable, t.lonely),
                half_up(t.marriageable, t.total),
            ), t.n

    def test_no_double_rounding_at_1536(self):
        # a 50-digit decimal quotient rounded this cell up to ...463.85
        t = tally_range(1536)[1536]
        assert two_digits(t.marriageable, t.lonely) == (
            "36744562331121396386719774819155148907170233463.84"
        )


class TestRatioReport:
    def test_report_rows(self):
        tallies = tally_range(9)
        rows = ratio_report(tallies)
        assert rows[9].m_over_l == "1.11"
        assert rows[9].m_over_c == "0.53"
        assert rows[0] == SequenceRow(0, 1, 0, 1, None, None, "0.00", "0.00")
        assert rows[1].ratio_l == "1.00"
        assert rows[1].ratio_m is None
        assert rows[2].ratio_m is None
        assert rows[3].ratio_m == "1.00"

    def test_report_at_14(self):
        rows = ratio_report(tally_range(14))
        assert rows[14].ratio_l == "3.36"
        assert rows[14].ratio_m == "3.73"
        assert rows[14].m_over_l == "1.99"
        assert rows[14].m_over_c == "0.67"

    def test_rejects_incomplete_tallies(self):
        tallies = tally_range(3)
        shuffled = [tallies[0], tallies[2], tallies[1], tallies[3]]
        for wrong in (shuffled, [tallies[0], tallies[2]], tallies[1:]):
            with pytest.raises(ValueError, match=r"^tallies must cover n = 0, 1, 2, \.\.\. in order$"):
                ratio_report(wrong)

    def test_no_tallies_no_rows(self):
        assert ratio_report([]) == []
