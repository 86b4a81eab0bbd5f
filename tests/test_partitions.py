from dataclasses import fields
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossroads import (
    Classification,
    Kind,
    Partition,
    absorb_into_first,
    absorb_into_last,
    add_pair_block,
    add_singleton_pair,
    classify,
    grow_lonely,
    grow_marriageable,
    is_noncrossing,
    nesting_forest,
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
        assert nesting_forest(P("1,4/2/3")) == {(0, 1): (2, 3)}

    def test_singletons_in_different_regions(self):
        assert nesting_forest(P("1,3/2/4")) == {(0, 1): (2,), None: (4,)}

    def test_single_singleton(self):
        assert nesting_forest(P("1")) == {None: (1,)}

    def test_gaps_of_one_block_are_distinct_regions(self):
        # 2 and 4 share the innermost enclosing block {1,3,5} but sit in
        # different gaps of it, so they must not share a region
        assert nesting_forest(P("1,3,5/2/4")) == {(0, 1): (2,), (0, 2): (4,)}

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            nesting_forest(Partition(4, [[1, 3], [2, 4]]))

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
        c = classify(P("1,2/3/4"))
        assert c.kind is Kind.MARRIAGEABLE
        assert c.witness == (3, 4)

    def test_lonely_examples(self):
        assert classify(P("1/2,4/3")).kind is Kind.LONELY
        assert classify(P("1,2,3/4")).kind is Kind.LONELY

    def test_rejects_crossing(self):
        with pytest.raises(ValueError):
            classify(Partition(4, [[1, 3], [2, 4]]))

    def test_a_classification_is_its_witness(self):
        lonely = Classification()
        assert lonely.is_lonely and lonely.kind is Kind.LONELY and lonely.witness is None
        married = Classification((2, 3))
        assert not married.is_lonely and married.kind is Kind.MARRIAGEABLE and married.witness == (2, 3)
        assert married == Classification((2, 3)) and hash(married) == hash(Classification((2, 3)))
        assert married != Classification((2, 4)) and married != lonely
        # the kind is read off the witness, never stored beside it
        assert [f.name for f in fields(Classification)] == ["witness"]

    def test_region_examples(self):
        assert classify(P("1,4/2/3")) == classify_definitional(P("1,4/2/3"))
        assert classify(P("1,4/2/3")).witness == (2, 3)
        assert classify(P("1,3/2/4")).kind is Kind.LONELY
        assert classify(P("1/2")).witness == (1, 2)

    def test_fewer_than_two_singletons_is_lonely(self, nc_lists):
        for p in nc_lists(5):
            if len(p.singletons) < 2:
                assert classify(p).kind is Kind.LONELY

    def test_agrees_with_definitional(self, nc_lists):
        for n in range(0, 9):
            for p in nc_lists(n):
                c = classify(p)
                assert c == classify_definitional(p), p
                if c.witness is not None:
                    assert can_merge(p, *c.witness)


class TestMaps:
    def lonely(self, nc_lists, n):
        return [p for p in nc_lists(n) if classify(p).is_lonely]

    def marriageable(self, nc_lists, n):
        return [p for p in nc_lists(n) if not classify(p).is_lonely]

    def test_grow_lonely_examples(self):
        assert grow_lonely(P("1,2/3")) == P("1,2,4/3")
        assert grow_lonely(P("1/2,4/3")) == P("1,5/2,4/3")
        assert grow_lonely(Partition(0, [])) == P("1")

    def test_grow_lonely_rejects_marriageable(self):
        with pytest.raises(ValueError):
            grow_lonely(P("1/2"))

    def test_grow_marriageable_examples(self):
        assert grow_marriageable(P("1/2,3/4")) == P("1/2,3/4/5")
        assert grow_marriageable(P("1/2")) == P("1/2/3")
        assert grow_marriageable(P("1,2/3/4")) == P("1,2/3/4/5")

    def test_grow_marriageable_rejects_lonely(self):
        with pytest.raises(ValueError):
            grow_marriageable(P("1,2,3/4"))

    def test_two_element_map_examples(self):
        assert add_singleton_pair(P("1,2,3/4")) == P("1,2,3/4/5/6")
        assert add_pair_block(P("1,2/3/4")) == P("1,2/3/4/5,6")
        assert absorb_into_first(P("1,2/3/4")) == P("1,2,6/3/4/5")
        assert absorb_into_last(P("1,2/3/4")) == P("1,2/3/4,5/6")

    def test_two_element_maps_reject_wrong_class(self):
        lonely = P("1,2,3/4")
        for fn in (add_pair_block, absorb_into_first, absorb_into_last):
            with pytest.raises(ValueError):
                fn(lonely)
        with pytest.raises(ValueError):
            add_singleton_pair(Partition(4, [[1, 3], [2, 4]]))

    def test_grow_lonely_injective_into_lonely(self, nc_lists):
        for n in range(0, 7):
            dom = self.lonely(nc_lists, n)
            images = [grow_lonely(p) for p in dom]
            assert len(set(images)) == len(dom)
            for q in images:
                assert classify(q).is_lonely
            if n >= 2:
                outside = Partition(n + 1, [list(range(1, n + 1)), [n + 1]])
                assert classify(outside).is_lonely
                assert outside not in set(images)

    def test_grow_marriageable_injective_into_marriageable(self, nc_lists):
        for n in range(2, 7):
            dom = self.marriageable(nc_lists, n)
            images = [grow_marriageable(p) for p in dom]
            assert len(set(images)) == len(dom)
            for q in images:
                assert not classify(q).is_lonely
            if n >= 3:
                outside = Partition(
                    n + 1, [[x] for x in range(1, n)] + [[n, n + 1]]
                )
                assert not classify(outside).is_lonely
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
                    assert not classify(q).is_lonely
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
