import tracemalloc
from itertools import combinations, permutations
from typing import Iterator

import pytest

from crossroads import (
    ENUMERATE_CEILING,
    CeilingExceededError,
    Msl,
    Partition,
    catalan,
    classify,
    enumerate_msl,
    is_absolute,
    msl_to_partition,
    noncrossing_partitions,
    partition_to_msl,
    tally,
)
from crossroads import CountJob, intersection
from crossroads.intersection import _lane_rows
from crossroads.routes import all_set_partitions, is_msl, is_noncrossing_definitional, lanes_cross

CLIQUE_SIZES = range(1, 8)
"""Sizes at which the maximal-clique search over all n*n lanes runs; it grows
much faster than the bijection image, so it stops at n = 7."""

PERMUTATION = "the exits must be a permutation of 1..n"
NOT_INTS = "exits must be ints"
# each refusal of Msl, word for word
MSL_REFUSALS = [
    pytest.param((), "an MSL has at least one lane", id="no-lanes"),
    # an entry is a position in the exits, so none can be reused; lanes given as pairs are refused
    pytest.param([(1, 1), (1, 2)], NOT_INTS, id="reused-entry"),
    pytest.param((2, 1, 2), PERMUTATION, id="reused-exit"),
    # three lanes cover X1..X3, so X3 has no lane when one ends at X4
    pytest.param((1, 2, 4), PERMUTATION, id="missing-exit"),
    pytest.param((0, 1), PERMUTATION, id="exit-0"),
    pytest.param((1, -2), PERMUTATION, id="exit-negative"),
    pytest.param((2, 3, 1), "lanes cross", id="crossing"),
    # True == 1, so only the type check tells these exits from (1,) and (1, 2)
    pytest.param((True,), NOT_INTS, id="bool"),
    pytest.param((True, 2), NOT_INTS, id="bool-first"),
    pytest.param((1, True), NOT_INTS, id="bool-last"),
    # sorting these would raise TypeError
    pytest.param(("a", 1), NOT_INTS, id="str"),
    pytest.param((None,), NOT_INTS, id="none"),
    pytest.param((None, 1), NOT_INTS, id="none-first"),
    pytest.param((1.0, 2), NOT_INTS, id="float"),
]


def P(text):
    return Partition.from_text(text)


def maximal_cliques(lanes: "list[tuple[int, int]]", n: int) -> Iterator[list]:
    """Every maximal pairwise-noncrossing subset of ``lanes``, by exhaustive search.

    Lists the maximal cliques of the graph on ``lanes`` in which two lanes
    fit when they do not cross (Bron-Kerbosch, pivoting as Tomita et al.),
    independently of the partition walker and the lane bijection.
    """
    fits = {a: {b for b in lanes if not lanes_cross(a, b, n)} for a in lanes}

    def cliques(clique: list, candidates: set, excluded: set) -> Iterator[list]:
        if not candidates and not excluded:
            yield clique
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & fits[u]))
        for lane in candidates - fits[pivot]:
            yield from cliques(clique + [lane], candidates & fits[lane], excluded & fits[lane])
            candidates = candidates - {lane}
            excluded = excluded | {lane}

    return cliques([], set(lanes), set())


def all_lanes(n):
    return [(e, x) for e in range(1, n + 1) for x in range(1, n + 1)]


def msl_of(lanes: "list[tuple[int, int]]") -> Msl:
    """The Msl of a set of (entry, exit) lanes with one lane for each entry 1..n."""
    ordered = sorted(lanes)
    assert [e for e, _ in ordered] == list(range(1, len(ordered) + 1))
    return Msl(x for _, x in ordered)


FIGURE_2 = Msl((3, 1, 2, 4))  # E1>X3, E2>X1, E3>X2, E4>X4
FIGURE_3 = Msl((2, 1, 3, 4))
FIGURE_6 = Msl((2, 1, 4, 3))


class TestLanesCross:
    def test_nested_chords_do_not_cross(self):
        assert not lanes_cross((1, 3), (2, 1), 4)

    def test_interleaved_chords_cross(self):
        assert lanes_cross((1, 2), (2, 4), 4)

    def test_shared_endpoint_crosses(self):
        assert lanes_cross((1, 1), (1, 2), 2)

    def test_symmetry(self):
        for a, b in [
            ((1, 3), (2, 1)),
            ((1, 2), (2, 4)),
            ((2, 2), (3, 1)),
        ]:
            assert lanes_cross(a, b, 4) == lanes_cross(b, a, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lanes_cross((1, 5), (2, 1), 4)


class TestMslValue:
    def test_u_turns_property(self):
        assert FIGURE_3.u_turns == (3, 4)
        assert FIGURE_2.u_turns == (4,)

    def test_text_form(self):
        assert FIGURE_3.to_text() == "E1>X2,E2>X1,E3>X3,E4>X4"
        assert FIGURE_2.to_text() == "E1>X3,E2>X1,E3>X2,E4>X4"

    def test_value(self):
        m = Msl([2, 1])
        assert m.exits == (2, 1) and m.n == 2
        assert m == Msl((2, 1)) and hash(m) == hash(Msl((2, 1)))
        assert repr(m) == "Msl(exits=(2, 1))"

    def test_rejects_wrong_lane_count(self):
        # the size is the number of exits given, so it cannot disagree with the lane count
        with pytest.raises(TypeError):
            Msl(3, [1, 2])

    @pytest.mark.parametrize("exits, message", MSL_REFUSALS)
    def test_refusal_messages(self, exits, message):
        with pytest.raises(ValueError) as refused:
            Msl(exits)
        assert str(refused.value) == message

    def test_scan_agrees_with_the_definition(self):
        for n in range(1, 8):
            for exits in permutations(range(1, n + 1)):
                if is_msl(enumerate(exits, 1), n):
                    assert Msl(exits).exits == exits
                else:
                    with pytest.raises(ValueError, match="^lanes cross$"):
                        Msl(exits)


class TestIsMsl:
    def test_figure_2_is_msl(self):
        assert is_msl([(1, 3), (3, 2), (2, 1), (4, 4)], 4)

    def test_non_maximal_set(self):
        assert not is_msl([(1, 2), (2, 1)], 4)

    def test_single_u_turn(self):
        assert is_msl([(1, 1)], 1)
        assert is_msl([[1, 1]], 1)  # lanes given as lists

    def test_crossing_set(self):
        assert not is_msl([(1, 2), (2, 4), (3, 1), (4, 3)], 4)


class TestBijection:
    def test_partition_to_msl_examples(self):
        assert partition_to_msl(P("1,2,3/4")) == FIGURE_2
        assert partition_to_msl(P("1,2/3/4")) == FIGURE_3
        assert partition_to_msl(P("1")) == Msl((1,))

    def test_msl_to_partition_examples(self):
        assert msl_to_partition(FIGURE_3) == P("1,2/3/4")
        assert msl_to_partition(FIGURE_6) == P("1,2/3,4")

    def test_rejects_crossing_partition(self):
        with pytest.raises(ValueError, match="requires a noncrossing partition"):
            partition_to_msl(Partition(4, [[1, 3], [2, 4]]))

    def test_rejects_every_crossing_partition(self):
        # the Msl scan is partition_to_msl's only noncrossing check
        for n in range(1, 7):
            for p in all_set_partitions(n):
                if not is_noncrossing_definitional(p):
                    with pytest.raises(ValueError, match="^partition_to_msl requires a noncrossing partition$"):
                        partition_to_msl(p)

    def test_msl_partitions_are_canonical(self):
        # msl_to_partition builds through Partition._canonical: this is the check it does not make
        for n in range(1, 11):
            for m in enumerate_msl(n):
                p = msl_to_partition(m)
                checked = Partition(p.n, p.blocks)
                assert p == checked and p.to_text() == checked.to_text(), m
                assert hash(p) == hash(checked) and repr(p) == repr(checked), m

    def test_rejects_empty_ground_set(self):
        with pytest.raises(ValueError):
            partition_to_msl(Partition(0, []))

    def test_round_trip(self, nc_lists):
        for n in range(1, 7):
            for p in nc_lists(n):
                assert msl_to_partition(partition_to_msl(p)) == p

    def test_every_msl_comes_from_a_noncrossing_partition(self):
        # why msl_to_partition need not recheck its result for crossings
        for n in range(1, 7):
            accepted = 0
            for exits in permutations(range(1, n + 1)):
                try:
                    m = Msl(exits)
                except ValueError:
                    continue
                accepted += 1
                p = msl_to_partition(m)
                assert is_noncrossing_definitional(p)
                assert partition_to_msl(p) == m
            assert accepted == catalan(n)

    def test_image_is_valid_msl(self, nc_lists):
        for p in nc_lists(5):
            m = partition_to_msl(p)
            assert is_msl(enumerate(m.exits, 1), m.n)


class TestAbsolute:
    def test_figure_2_absolute(self):
        assert is_absolute(FIGURE_2)

    def test_figure_3_not_absolute(self):
        assert not is_absolute(FIGURE_3)

    def test_no_u_turns_is_absolute(self):
        assert is_absolute(Msl((2, 1)))

    def test_matches_the_definition(self):
        def rewired(m, i, j):
            return [(e, x) for e, x in enumerate(m.exits, 1) if e not in (i, j)] + [(i, j), (j, i)]

        for n in range(1, 8):
            for m in enumerate_msl(n):
                rewirable = any(is_msl(rewired(m, i, j), n) for i, j in combinations(m.u_turns, 2))
                assert is_absolute(m) == (not rewirable)


class TestEnumerateMsl:
    def test_counts(self):
        assert len(list(enumerate_msl(1))) == 1
        assert len(list(enumerate_msl(2))) == 2
        msls = list(enumerate_msl(4))
        assert len(msls) == 14
        assert sum(1 for m in msls if is_absolute(m)) == 9

    def test_matches_bijection_image(self):
        # the clique search confirms the bijection image as a set at every clique size;
        # Msl() accepting every clique shows that maximal lane sets are perfect matchings
        def key(m):
            return m.exits

        for n in CLIQUE_SIZES:
            found = maximal_cliques(all_lanes(n), n)
            assert sorted(enumerate_msl(n), key=key) == sorted(map(msl_of, found), key=key)

    def test_walker_order(self):
        # the lane stream is the walker's stream under the bijection, item for item
        for n in range(1, 11):
            assert [msl_to_partition(m) for m in enumerate_msl(n)] == list(noncrossing_partitions(n))

    def test_lane_rows_are_the_msl_stream(self):
        # intersection's rows, read off the walker, against the checked library route
        for n in range(1, 11):
            expected = [(m.to_text(), is_absolute(m), msl_to_partition(m).to_text()) for m in enumerate_msl(n)]
            assert list(_lane_rows(n)) == expected, n

    def test_streams_without_buffering(self):
        # the C_10 = 16796 lane sets are never held at once
        tracemalloc.start()
        try:
            assert sum(1 for _ in enumerate_msl(10)) == 16796
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500_000

    def test_absolute_iff_lonely(self):
        for n in range(1, 10):
            for p in noncrossing_partitions(n):
                assert is_absolute(partition_to_msl(p)) == (classify(p) is None), p

    def test_absolute_count_is_lonely_count(self):
        for n in range(1, 7):
            absolute = sum(1 for m in enumerate_msl(n) if is_absolute(m))
            assert absolute == tally(CountJob(n)).lonely

    def test_u_turn_free_cliques_count_lonely(self):
        # README route 4: maximal lane sets of the intersection without U-turns
        for n in CLIQUE_SIZES:
            lanes = [(e, x) for e, x in all_lanes(n) if e != x]
            assert sum(1 for _ in maximal_cliques(lanes, n)) == tally(CountJob(n)).lonely

    def test_u_turn_free_implies_absolute(self):
        for n in range(1, 7):
            free = sum(1 for m in enumerate_msl(n) if not m.u_turns)
            absolute = sum(1 for m in enumerate_msl(n) if is_absolute(m))
            assert free <= absolute

    def test_deterministic_order(self):
        first = [m.to_text() for m in enumerate_msl(4)]
        second = [m.to_text() for m in enumerate_msl(4)]
        assert first == second

    def test_ceiling(self):
        # the walker's ceiling, checked when the first item is drawn
        with pytest.raises(CeilingExceededError, match="^enumeration is capped at n=500, got 501$"):
            next(enumerate_msl(ENUMERATE_CEILING + 1))
        with pytest.raises(ValueError):
            next(enumerate_msl(0))

    def test_lane_rows_refuse_before_making_tokens(self, monkeypatch):
        # one token table per entry: made before the ceiling check, a 23-digit n exhausts memory
        made = []
        monkeypatch.setattr(intersection, "_Tokens", made.append)
        with pytest.raises(CeilingExceededError, match="^enumeration is capped at n=500, got 200000$"):
            next(_lane_rows(200_000))
        assert made == []
