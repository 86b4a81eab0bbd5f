from itertools import combinations, permutations
from typing import Iterator

import pytest

from crossroads import (
    MSL_CEILING,
    CeilingExceededError,
    Lane,
    Msl,
    Partition,
    catalan,
    classify,
    enumerate_msl,
    is_absolute,
    is_msl,
    is_noncrossing_definitional,
    lanes_cross,
    msl_to_partition,
    partition_to_msl,
    tally,
)
from crossroads import CountJob


def P(text):
    return Partition.from_text(text)


def maximal_cliques(lanes: "list[Lane]", n: int) -> Iterator["list[Lane]"]:
    """Every maximal pairwise-noncrossing subset of ``lanes``, by exhaustive search.

    Lists the maximal cliques of the graph on ``lanes`` in which two lanes
    fit when they do not cross (Bron-Kerbosch, pivoting as Tomita et al.),
    independently of the partition walker and the lane bijection.
    """
    fits = {a: {b for b in lanes if not lanes_cross(a, b, n)} for a in lanes}

    def cliques(clique: "list[Lane]", candidates: set, excluded: set) -> Iterator["list[Lane]"]:
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
    return [Lane(e, x) for e in range(1, n + 1) for x in range(1, n + 1)]


FIGURE_2 = Msl(4, [Lane(1, 3), Lane(3, 2), Lane(2, 1), Lane(4, 4)])
FIGURE_3 = Msl(4, [Lane(1, 2), Lane(2, 1), Lane(3, 3), Lane(4, 4)])
FIGURE_6 = Msl(4, [Lane(1, 2), Lane(2, 1), Lane(3, 4), Lane(4, 3)])


class TestLane:
    def test_u_turn(self):
        assert Lane(2, 2).is_u_turn
        assert not Lane(1, 2).is_u_turn

    def test_chord_endpoints(self):
        assert Lane(1, 3).chord() == (1, 6)
        assert Lane(2, 1).chord() == (2, 3)

    def test_text(self):
        assert str(Lane(1, 3)) == "E1>X3"


class TestLanesCross:
    def test_nested_chords_do_not_cross(self):
        assert not lanes_cross(Lane(1, 3), Lane(2, 1), 4)

    def test_interleaved_chords_cross(self):
        assert lanes_cross(Lane(1, 2), Lane(2, 4), 4)

    def test_shared_endpoint_crosses(self):
        assert lanes_cross(Lane(1, 1), Lane(1, 2), 2)

    def test_symmetry(self):
        for a, b in [
            (Lane(1, 3), Lane(2, 1)),
            (Lane(1, 2), Lane(2, 4)),
            (Lane(2, 2), Lane(3, 1)),
        ]:
            assert lanes_cross(a, b, 4) == lanes_cross(b, a, 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            lanes_cross(Lane(1, 5), Lane(2, 1), 4)


class TestMslValue:
    def test_u_turns_property(self):
        assert FIGURE_3.u_turns == (3, 4)
        assert FIGURE_2.u_turns == (4,)

    def test_text_form(self):
        assert FIGURE_3.to_text() == "E1>X2,E2>X1,E3>X3,E4>X4"

    def test_rejects_wrong_lane_count(self):
        with pytest.raises(ValueError):
            Msl(3, [Lane(1, 1), Lane(2, 2)])

    def test_rejects_reused_entry(self):
        with pytest.raises(ValueError):
            Msl(2, [Lane(1, 1), Lane(1, 2)])

    def test_rejects_crossing_lanes(self):
        with pytest.raises(ValueError):
            Msl(3, [Lane(1, 2), Lane(2, 3), Lane(3, 1)])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Msl(0, [])

    def test_rejects_bools(self):
        # True == 1, so only the type check tells these lanes from Lane(1, 1)
        for lane in (Lane(True, True), Lane(True, 1), Lane(1, True)):
            with pytest.raises(ValueError):
                Msl(1, [lane])

    def test_scan_agrees_with_the_definition(self):
        for n in range(1, 7):
            for exits in permutations(range(1, n + 1)):
                lanes = [Lane(e, x) for e, x in enumerate(exits, 1)]
                if is_msl(lanes, n):
                    assert Msl(n, lanes).lanes == frozenset(lanes)
                else:
                    with pytest.raises(ValueError, match="^lanes cross$"):
                        Msl(n, lanes)


class TestIsMsl:
    def test_figure_2_is_msl(self):
        assert is_msl([Lane(1, 3), Lane(3, 2), Lane(2, 1), Lane(4, 4)], 4)

    def test_non_maximal_set(self):
        assert not is_msl([Lane(1, 2), Lane(2, 1)], 4)

    def test_single_u_turn(self):
        assert is_msl([Lane(1, 1)], 1)

    def test_crossing_set(self):
        assert not is_msl([Lane(1, 2), Lane(2, 4), Lane(3, 1), Lane(4, 3)], 4)


class TestBijection:
    def test_partition_to_msl_examples(self):
        assert partition_to_msl(P("1,2,3/4")) == FIGURE_2
        assert partition_to_msl(P("1,2/3/4")) == FIGURE_3
        assert partition_to_msl(P("1")) == Msl(1, [Lane(1, 1)])

    def test_msl_to_partition_examples(self):
        assert msl_to_partition(FIGURE_3) == P("1,2/3/4")
        assert msl_to_partition(FIGURE_6) == P("1,2/3,4")

    def test_rejects_crossing_partition(self):
        with pytest.raises(ValueError):
            partition_to_msl(Partition(4, [[1, 3], [2, 4]]))

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
                    m = Msl(n, [Lane(e, x) for e, x in enumerate(exits, 1)])
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
            assert is_msl(m.lanes, m.n)


class TestAbsolute:
    def test_figure_2_absolute(self):
        assert is_absolute(FIGURE_2)

    def test_figure_3_not_absolute(self):
        assert not is_absolute(FIGURE_3)

    def test_no_u_turns_is_absolute(self):
        assert is_absolute(Msl(2, [Lane(1, 2), Lane(2, 1)]))

    def test_matches_the_definition(self):
        def rewired(m, i, j):
            return [l for l in m.lanes if l.entry not in (i, j)] + [Lane(i, j), Lane(j, i)]

        for n in range(1, 7):
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
        # the clique search confirms the bijection image, order included, up to the ceiling;
        # Msl() accepting every clique shows that maximal lane sets are perfect matchings
        for n in range(1, MSL_CEILING + 1):
            found = maximal_cliques(all_lanes(n), n)
            cliques = sorted(found, key=lambda c: sorted((l.entry, l.exit) for l in c))
            assert list(enumerate_msl(n)) == [Msl(n, c) for c in cliques]

    def test_absolute_iff_lonely(self):
        for n in range(1, 6):
            for m in enumerate_msl(n):
                lonely = classify(msl_to_partition(m)).is_lonely
                assert is_absolute(m) == lonely

    def test_absolute_count_is_lonely_count(self):
        for n in range(1, 7):
            absolute = sum(1 for m in enumerate_msl(n) if is_absolute(m))
            assert absolute == tally(CountJob(n)).lonely

    def test_u_turn_free_cliques_count_lonely(self):
        # README route 4: maximal lane sets of the intersection without U-turns
        for n in range(1, MSL_CEILING + 1):
            lanes = [l for l in all_lanes(n) if not l.is_u_turn]
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
        with pytest.raises(CeilingExceededError):
            next(enumerate_msl(MSL_CEILING + 1))
        with pytest.raises(ValueError):
            next(enumerate_msl(0))
