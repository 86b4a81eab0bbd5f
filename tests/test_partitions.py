import copy
import pickle
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossroads import (
    CountJob,
    Msl,
    Partition,
    SequenceRow,
    Tally,
    classify,
    is_noncrossing,
    nesting_forest,
)
from crossroads.maps import (
    absorb_into_first,
    absorb_into_last,
    add_pair_block,
    add_singleton_pair,
    grow_lonely,
    grow_marriageable,
)
from crossroads.routes import (
    all_set_partitions,
    can_merge,
    classify_definitional,
    is_noncrossing_definitional,
    merge_singletons,
)


def P(text):
    return Partition.from_text(text)


CROSSING = Partition(4, [[1, 3], [2, 4]])
# each constructive map's refusal, word for word: the class words pin the
# direction of the witness-to-Kind test in _require_kind
REFUSALS = [
    (grow_lonely, P("1/2"), "grow_lonely requires a lonely partition, got marriageable"),
    (grow_marriageable, P("1,2"), "grow_marriageable requires a marriageable partition, got lonely"),
    (add_pair_block, P("1,2"), "add_pair_block requires a marriageable partition, got lonely"),
    (absorb_into_first, P("1,2"), "absorb_into_first requires a marriageable partition, got lonely"),
    (absorb_into_last, P("1/2,3"), "absorb_into_last requires a marriageable partition, got lonely"),
    (add_singleton_pair, CROSSING, "add_singleton_pair requires a noncrossing partition"),
    (grow_marriageable, P("1,2,3/4"), "grow_marriageable requires a marriageable partition, got lonely"),
    (add_pair_block, P("1,2,3/4"), "add_pair_block requires a marriageable partition, got lonely"),
    (absorb_into_first, P("1,2,3/4"), "absorb_into_first requires a marriageable partition, got lonely"),
    (absorb_into_last, P("1,2,3/4"), "absorb_into_last requires a marriageable partition, got lonely"),
    (grow_lonely, CROSSING, "grow_lonely requires a noncrossing partition"),
    (grow_marriageable, CROSSING, "grow_marriageable requires a noncrossing partition"),
    (add_pair_block, CROSSING, "add_pair_block requires a noncrossing partition"),
    (absorb_into_first, CROSSING, "absorb_into_first requires a noncrossing partition"),
    (absorb_into_last, CROSSING, "absorb_into_last requires a noncrossing partition"),
]
# each case is named by its map, and a map's later cases also by their input's
# size, or as crossing
REFUSAL_IDS = [
    fn.__name__ + (("-crossing" if p is CROSSING else f"-n{p.n}") if fn in [f for f, _, _ in REFUSALS[:i]] else "")
    for i, (fn, p, _) in enumerate(REFUSALS)
]


class TestPartitionValue:
    def test_blocks_are_canonicalized(self):
        p = Partition(4, [[3], [2, 1], [4]])
        assert p.blocks == ((1, 2), (3,), (4,))

    def test_construction_order_does_not_matter(self):
        base = Partition(5, [[1, 4], [2, 3], [5]])
        for perm in permutations([[4, 1], [3, 2], [5]]):
            assert Partition(5, perm) == base

    def test_empty_partition(self):
        p = Partition(0, [])
        assert p.n == 0
        assert p.blocks == ()
        assert p.to_text() == ""

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Partition(2, [[1, 2], []])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition(2, [[1, 2, 3]])
        with pytest.raises(ValueError):
            Partition(2, [[0], [1, 2]])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Partition(3, [[1, 2], [2, 3]])

    def test_rejects_missing_elements(self):
        with pytest.raises(ValueError, match=r"^missing 1 of the elements 1\.\.3, the least 2$"):
            Partition(3, [[1, 3]])

    def test_missing_elements_message_does_not_grow_with_n(self):
        # the message is built from the elements given, not from a set of 1..n
        with pytest.raises(ValueError) as caught:
            Partition.from_text("100000")
        assert len(str(caught.value)) < 200

    def test_rejects_bools(self):
        for blocks in ([[True], [2]], [[1], [2, True]], [[False], [1, 2]]):
            with pytest.raises(ValueError):
                Partition(2, blocks)

    def test_rejects_non_ints_before_sorting(self):
        # sorting would raise TypeError on the first two
        for blocks in ([["a"], [1]], [[None, 1]], [[1.0], [2]], [["a"], ["b"]]):
            with pytest.raises(ValueError, match="^elements must be ints$"):
                Partition(2, blocks)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            Partition(-1, [])

    def test_text_round_trip(self, nc_lists):
        for n in range(0, 6):
            for p in nc_lists(n):
                assert Partition.from_text(p.to_text()) == p

    def test_text_of_a_constructed_partition(self):
        p = Partition(11, [[11, 2], [10], [3, 1, 9], [4, 5, 6, 7, 8]])
        assert p.to_text() == "1,3,9/2,11/4,5,6,7,8/10"
        assert str(p) == p.to_text()
        assert str(Partition(0, [])) == "(empty)"

    def test_from_text_examples(self):
        assert P("1,2/3/4").blocks == ((1, 2), (3,), (4,))
        assert P("") == Partition(0, [])

    def test_from_text_rejects_garbage(self):
        for bad in ("1//2", "0", "1/1", "1,3", "2/3", "a", "1,2/", " 1 ,+2/0_3", "1,+2", "1_0", "01"):
            with pytest.raises(ValueError):
                Partition.from_text(bad)

    def test_singletons(self):
        assert P("1,2/3/4").singletons == (3, 4)
        assert P("1,2,3").singletons == ()


class TestNoncrossing:
    def test_crossing_example(self):
        assert not is_noncrossing(Partition(4, [[1, 3], [2, 4]]))

    def test_empty_is_noncrossing(self):
        assert is_noncrossing(Partition(0, []))

    def test_single_block_is_noncrossing(self):
        assert is_noncrossing(P("1,2,3,4"))

    def test_matches_definitional_exhaustively(self):
        for n in range(0, 8):
            for p in all_set_partitions(n):
                assert is_noncrossing(p) == is_noncrossing_definitional(p), p
                if is_noncrossing(p):
                    nesting_forest(p)
                else:
                    with pytest.raises(ValueError, match="requires a noncrossing partition"):
                        nesting_forest(p)


class TestNestingForest:
    def test_two_singletons_under_one_block(self):
        assert nesting_forest(P("1,4/2/3")) == {1: (2, 3)}

    def test_singletons_in_different_regions(self):
        assert nesting_forest(P("1,3/2/4")) == {1: (2,), None: (4,)}

    def test_single_singleton(self):
        assert nesting_forest(P("1")) == {None: (1,)}

    def test_gaps_of_one_block_are_distinct_regions(self):
        # 2 and 4 share the innermost enclosing block {1,3,5} but sit in
        # different gaps of it, so they must not share a region
        assert nesting_forest(P("1,3,5/2/4")) == {1: (2,), 3: (4,)}

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            nesting_forest(Partition(4, [[1, 3], [2, 4]]))

    def test_regions_are_the_merge_rule_on_every_pair(self, nc_lists):
        """Every pair, not only the witness: two singletons share a region exactly when they merge.

        And each singleton s is keyed by the greatest a < s whose block has
        an element above s, or None when there is none.
        """
        for n in range(0, 10):
            for p in nc_lists(n):
                region = {s: key for key, members in nesting_forest(p).items() for s in members}
                last = {x: b[-1] for b in p.blocks for x in b}
                for s in region:
                    assert region[s] == max((a for a in range(1, s) if last[a] > s), default=None), (p, s)
                for i, j in combinations(p.singletons, 2):
                    assert (region[i] == region[j]) == can_merge(p, i, j), (p, i, j)

    def test_every_singleton_in_exactly_one_region(self, nc_lists):
        for n in range(0, 8):
            for p in nc_lists(n):
                members = [x for v in nesting_forest(p).values() for x in v]
                assert sorted(members) == list(p.singletons)


class TestMerge:
    def test_can_merge_examples(self):
        assert can_merge(P("1/2/3,4"), 1, 2)
        assert not can_merge(P("1,3/2/4"), 2, 4)
        assert can_merge(P("1,4/2/3"), 2, 3)

    def test_merge_examples(self):
        assert merge_singletons(P("1,2/3/4"), 3, 4) == P("1,2/3,4")
        assert merge_singletons(P("1,3/2/4"), 2, 4) == Partition(4, [[1, 3], [2, 4]])
        assert merge_singletons(P("1/2"), 1, 2) == P("1,2")

    def test_merge_result_may_cross(self):
        merged = merge_singletons(P("1,3/2/4"), 2, 4)
        assert not is_noncrossing(merged)

    def test_rejects_non_singleton(self):
        with pytest.raises(ValueError):
            merge_singletons(P("1,2/3/4"), 2, 3)

    def test_rejects_unordered_pair(self):
        with pytest.raises(ValueError):
            merge_singletons(P("1,2/3/4"), 4, 3)

    def test_can_merge_is_merge_then_recheck(self, nc_lists):
        for n in range(0, 8):
            for p in nc_lists(n):
                for i, j in combinations(p.singletons, 2):
                    assert can_merge(p, i, j) == is_noncrossing(
                        merge_singletons(p, i, j)
                    )


class TestClassify:
    def test_marriageable_with_witness(self):
        assert classify(P("1,2/3/4")) == (3, 4)

    def test_lonely_examples(self):
        assert classify(P("1/2,4/3")) is None
        assert classify(P("1,2,3/4")) is None

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            classify(Partition(4, [[1, 3], [2, 4]]))

    def test_region_examples(self):
        assert classify(P("1,4/2/3")) == classify_definitional(P("1,4/2/3"))
        assert classify(P("1,4/2/3")) == (2, 3)
        assert classify(P("1,3/2/4")) is None
        assert classify(P("1/2")) == (1, 2)

    def test_fewer_than_two_singletons_is_lonely(self, nc_lists):
        for p in nc_lists(5):
            if len(p.singletons) < 2:
                assert classify(p) is None

    def test_agrees_with_definitional(self, nc_lists):
        for n in range(0, 9):
            for p in nc_lists(n):
                witness = classify(p)
                assert witness == classify_definitional(p), p
                if witness is not None:
                    assert can_merge(p, *witness)


class TestMaps:
    def lonely(self, nc_lists, n):
        return [p for p in nc_lists(n) if classify(p) is None]

    def marriageable(self, nc_lists, n):
        return [p for p in nc_lists(n) if not classify(p) is None]

    def test_grow_lonely_examples(self):
        assert grow_lonely(P("1,2/3")) == P("1,2,4/3")
        assert grow_lonely(P("1/2,4/3")) == P("1,5/2,4/3")
        assert grow_lonely(Partition(0, [])) == P("1")

    def test_grow_marriageable_examples(self):
        assert grow_marriageable(P("1/2,3/4")) == P("1/2,3/4/5")
        assert grow_marriageable(P("1/2")) == P("1/2/3")
        assert grow_marriageable(P("1,2/3/4")) == P("1,2/3/4/5")

    def test_two_element_map_examples(self):
        assert add_singleton_pair(P("1,2,3/4")) == P("1,2,3/4/5/6")
        assert add_pair_block(P("1,2/3/4")) == P("1,2/3/4/5,6")
        assert absorb_into_first(P("1,2/3/4")) == P("1,2,6/3/4/5")
        assert absorb_into_last(P("1,2/3/4")) == P("1,2/3/4,5/6")

    @pytest.mark.parametrize("fn, p, message", REFUSALS, ids=REFUSAL_IDS)
    def test_refusal_messages(self, fn, p, message):
        with pytest.raises(ValueError) as refused:
            fn(p)
        assert str(refused.value) == message

    def test_grow_lonely_injective_into_lonely(self, nc_lists):
        for n in range(0, 7):
            dom = self.lonely(nc_lists, n)
            images = [grow_lonely(p) for p in dom]
            assert len(set(images)) == len(dom)
            for q in images:
                assert classify(q) is None
            if n >= 2:
                outside = Partition(n + 1, [list(range(1, n + 1)), [n + 1]])
                assert classify(outside) is None
                assert outside not in set(images)

    def test_grow_marriageable_injective_into_marriageable(self, nc_lists):
        for n in range(2, 7):
            dom = self.marriageable(nc_lists, n)
            images = [grow_marriageable(p) for p in dom]
            assert len(set(images)) == len(dom)
            for q in images:
                assert classify(q) is not None
            if n >= 3:
                outside = Partition(
                    n + 1, [[x] for x in range(1, n)] + [[n, n + 1]]
                )
                assert classify(outside) is not None
                assert outside not in set(images)

    def test_pair_maps_disjoint_marriageable_images(self, nc_lists):
        for n in range(0, 6):
            h_img = {add_singleton_pair(p) for p in nc_lists(n)}
            marr = self.marriageable(nc_lists, n)
            i_img = {add_pair_block(p) for p in marr}
            j_img = {absorb_into_first(p) for p in marr}
            k_img = {absorb_into_last(p) for p in marr}
            assert len(h_img) == len(nc_lists(n))
            assert len(i_img) == len(j_img) == len(k_img) == len(marr)
            for img in (h_img, i_img, j_img, k_img):
                for q in img:
                    assert classify(q) is not None
            for a, b in combinations((h_img, i_img, j_img, k_img), 2):
                assert not (a & b)


@st.composite
def set_partitions(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    rgs = [0]
    for i in range(1, n):
        rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
    blocks = {}
    for pos, b in enumerate(rgs[:n], start=1):
        blocks.setdefault(b, []).append(pos)
    return Partition(n, list(blocks.values()))


@given(set_partitions())
@settings(max_examples=300, deadline=None)
def test_property_canonical_and_classified(p):
    assert Partition(p.n, p.blocks) == p
    assert Partition.from_text(p.to_text()) == p
    fast_ok = is_noncrossing(p)
    assert fast_ok == is_noncrossing_definitional(p)
    if fast_ok:
        assert classify(p) == classify_definitional(p)


# each record with its repr, its fields in order, and another value of its class
RECORDS = [
    (Partition(3, [[2, 1], [3]]), "Partition(n=3, blocks=((1, 2), (3,)))", (3, ((1, 2), (3,))), Partition(3, [[1], [2, 3]])),
    (Msl([2, 1]), "Msl(exits=(2, 1))", ((2, 1),), Msl((1, 2))),
    (Tally(4, 9, 5, 14), "Tally(n=4, lonely=9, marriageable=5, total=14)", (4, 9, 5, 14), Tally(4, 5, 9, 14)),
    (CountJob(3, workers=2), "CountJob(n=3, workers=2)", (3, 2), CountJob(3)),
    (
        SequenceRow(n=2, lonely=1, marriageable=1, catalan=2, ratio_l="1.00", ratio_m=None, m_over_l="1.00", m_over_c="0.50"),
        "SequenceRow(n=2, lonely=1, marriageable=1, catalan=2, ratio_l='1.00', ratio_m=None, m_over_l='1.00', m_over_c='0.50')",
        (2, 1, 1, 2, "1.00", None, "1.00", "0.50"),
        SequenceRow(2, 1, 1, 2, "1.00", "1.00", "1.00", "0.50"),
    ),
]


@pytest.mark.parametrize("record, text, values, other", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS])
def test_record_semantics(record, text, values, other):
    """The five records behave as frozen value classes: repr, equality within one class, hashing, no writes, copies, match."""
    kind = type(record)
    assert repr(record) == text
    assert kind.__slots__ == kind.__match_args__ and len(values) == len(kind.__slots__)
    by_keyword = kind(**dict(zip(kind.__match_args__, values)))
    assert record == kind(*values) == by_keyword and hash(record) == hash(kind(*values)) == hash(values)
    assert record != other and record != values and values != record
    assert record != type("Sub", (kind,), {"__slots__": ()})(*values)  # same fields, another class
    for attempt in (lambda: setattr(record, kind.__slots__[0], 0), lambda: delattr(record, kind.__slots__[0]),
                    lambda: setattr(record, "extra", 0)):
        with pytest.raises(AttributeError):
            attempt()
    assert not hasattr(record, "__dict__") and repr(record) == text
    for copied in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is kind and copied == record and repr(copied) == text
    match record:
        case Partition(n, blocks):
            matched = (n, blocks)
        case Msl(exits):
            matched = (exits,)
        case Tally(n, lonely, marriageable, total):
            matched = (n, lonely, marriageable, total)
        case CountJob(n, workers):
            matched = (n, workers)
        case SequenceRow(n, lonely, marriageable, catalan, ratio_l, ratio_m, m_over_l, m_over_c):
            matched = (n, lonely, marriageable, catalan, ratio_l, ratio_m, m_over_l, m_over_c)
    assert matched == values


def test_record_copies_are_checked_again():
    """A copy or an unpickled record comes from the constructor, so a bad payload is refused as the constructor refuses it."""
    assert Partition(2, [[1], [2]]).__reduce__() == (Partition, (2, ((1,), (2,))))

    class Forged:  # pickles as a Partition whose fields were changed on the way
        def __reduce__(self):
            return Partition, (2, ((1,), (3,)))

    with pytest.raises(ValueError, match="element 3 outside 1..2"):
        pickle.loads(pickle.dumps(Forged()))
