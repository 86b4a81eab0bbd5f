import hashlib

import pytest

from crossroads import (
    ENUMERATE_CEILING,
    ORACLE_CEILING,
    CeilingExceededError,
    CountJob,
    Kind,
    Partition,
    Tally,
    all_set_partitions,
    catalan,
    classified_stream,
    classify,
    classify_fast,
    is_noncrossing,
    noncrossing_partitions,
    oracle_tally,
    stream_tally,
    tally,
    tally_range,
)
from crossroads.enumeration import _lonely_exact_root, _lonely_series

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

# Frozen counts from this implementation, cross-checked four independent
# ways before freezing: the definitional recount over all set partitions,
# the absolute-MSL count, the restricted-intersection clique count, and the
# four-move walk with exact per-block flags. Rows up to n = 9 also agree with
# the published reference table; see reference.py for the rows beyond that.
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

    def test_seed_values_pinned_through_320(self):
        # L_0..L_320 as the memoized state machine that preceded the series
        # computed them, joined by commas and hashed.
        lonely = ",".join(str(tally(CountJob(n)).lonely) for n in range(321))
        assert hashlib.sha256(lonely.encode()).hexdigest() == (
            "4e83a6b51ed89c06d36c2dc5f1bda849e971e6304e795cceca3b549df1300cb0"
        )

    def test_tally_range(self):
        tallies = tally_range(4)
        assert [t.total for t in tallies] == [1, 1, 2, 5, 14]
        assert tally_range(0) == [Tally(0, 1, 0, 1)]
        assert tally_range(60) == [tally(CountJob(n)) for n in range(61)]
        with pytest.raises(ValueError):
            tally_range(-1)

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


class TestJobsAndValidation:
    def test_tally_invariant(self):
        with pytest.raises(ValueError):
            Tally(2, 1, 2, 2)

    def test_count_job_validation(self):
        with pytest.raises(ValueError):
            CountJob(-1)
        with pytest.raises(ValueError):
            CountJob(3, workers=0)


class TestClassifiedStream:
    def test_lonely_stream_count(self):
        items = list(classified_stream(5, Kind.LONELY))
        assert len(items) == 26
        assert all(c.kind is Kind.LONELY for _, c in items)

    def test_unfiltered_stream_is_complete(self):
        items = list(classified_stream(4))
        assert len(items) == 14
        marr = [p for p, c in items if c.kind is Kind.MARRIAGEABLE]
        assert len(marr) == 5

    @staticmethod
    def _assert_stream_equals(n, classifier):
        expected = [(p, classifier(p)) for p in noncrossing_partitions(n)]
        for kind in (None, Kind.LONELY, Kind.MARRIAGEABLE):
            assert list(classified_stream(n, kind)) == [
                (p, c) for p, c in expected if kind is None or c.kind is kind
            ], (n, kind)

    def test_walker_matches_the_definitional_classifier(self):
        for n in range(10):
            self._assert_stream_equals(n, classify)

    def test_walker_matches_the_forest_classifier_at_10(self):
        self._assert_stream_equals(10, classify_fast)

    def test_walker_partitions_are_canonical(self):
        for n in range(11):
            items = list(classified_stream(n))
            assert all(p == Partition(p.n, p.blocks) for p, _ in items), n
            assert list(noncrossing_partitions(n)) == [p for p, _ in items], n

    def test_empty_ground_set(self):
        assert list(classified_stream(0)) == [(Partition(0, ()), classify(Partition(0, ())))]
        assert list(classified_stream(0, Kind.LONELY)) == list(classified_stream(0))
        assert list(classified_stream(0, Kind.MARRIAGEABLE)) == []

    def test_ceiling(self):
        first = next(noncrossing_partitions(ENUMERATE_CEILING))
        assert first.blocks == tuple((i,) for i in range(1, ENUMERATE_CEILING + 1))
        assert next(classified_stream(ENUMERATE_CEILING, Kind.MARRIAGEABLE))[0] == first
        for stream in (noncrossing_partitions, classified_stream):
            with pytest.raises(CeilingExceededError):
                next(stream(ENUMERATE_CEILING + 1))
