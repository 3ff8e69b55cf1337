"""Tests for the hash and sorted secondary indexes."""

from repro.engine.indexes import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("key")
        index.insert("a", 0)
        index.insert("a", 3)
        index.insert("b", 1)
        assert sorted(index.lookup("a")) == [0, 3]
        assert index.lookup("b") == [1]
        assert index.lookup("missing") == []

    def test_contains_and_counts(self):
        index = HashIndex("key")
        index.insert(1, 0)
        index.insert(2, 1)
        assert index.contains(1)
        assert not index.contains(3)
        assert len(index) == 2
        assert index.num_keys == 2

    def test_remove_and_update(self):
        index = HashIndex("key")
        index.insert("x", 5)
        index.update_key("x", "y", 5)
        assert index.lookup("x") == []
        assert index.lookup("y") == [5]
        index.remove("y", 5)
        assert index.lookup("y") == []
        # Removing a missing entry is a no-op.
        index.remove("y", 5)
        index.remove("z", 1)

    def test_rebuild(self):
        index = HashIndex("key")
        index.insert("old", 0)
        index.rebuild(["z", "a", "b", "a"])
        assert index.lookup("old") == []
        assert index.lookup("a") == [1, 3]
        assert index.lookup("z") == [0]

    def test_rebuild_of_distinct_keys(self):
        index = HashIndex("key", unique=True)
        index.rebuild([7, 3, 5])
        assert [index.lookup(key) for key in (3, 5, 7, 4)] == [[1], [2], [0], []]
        assert index.num_keys == 3


class TestSortedIndex:
    def test_lookup_and_range(self):
        index = SortedIndex("key")
        for key, position in [(5, 0), (1, 1), (3, 2), (3, 3), (9, 4)]:
            index.insert(key, position)
        assert sorted(index.lookup(3)) == [2, 3]
        assert index.lookup(4) == []
        assert sorted(index.range_lookup(2, 6)) == [0, 2, 3]
        assert sorted(index.range_lookup(None, 3)) == [1, 2, 3]
        assert sorted(index.range_lookup(5, None)) == [0, 4]

    def test_rebuild_lists_equal_keys_in_row_order(self):
        index = SortedIndex("key")
        index.rebuild([2, 1, 2, 1])
        assert index.lookup(1) == [1, 3]
        assert index.lookup(2) == [0, 2]
        assert index.range_lookup() == [1, 3, 0, 2]

    def test_exclusive_bounds(self):
        index = SortedIndex("key")
        index.rebuild([1, 2, 3])
        assert index.range_lookup(1, 3, include_low=False, include_high=False) == [1]

    def test_remove(self):
        index = SortedIndex("key")
        index.rebuild([1, 1, 2])
        index.remove(1, 0)
        assert sorted(index.lookup(1)) == [1]
        index.remove(1, 999)  # not present: no-op
        assert len(index) == 2


class TestSortedIndexUnorderedKeys:
    """NULL and NaN keys have no place in the key order: a NaN among the
    sorted keys derailed every bisect (rows missed and rows added), and a
    NULL made the rebuild's sort raise ``TypeError``."""

    NAN = float("nan")

    def _index(self, keys):
        index = SortedIndex("key")
        index.rebuild(keys)
        return index

    def test_rebuild_keeps_nan_out_of_the_order(self):
        index = self._index([3.0, self.NAN, 1.5, 5.0, 4.5, 2.0, 0.5])
        assert sorted(index.range_lookup(1, None, include_low=False)) == [0, 2, 3, 4, 5]
        assert sorted(index.range_lookup(None, 4.5)) == [0, 2, 4, 5, 6]
        assert sorted(index.range_lookup(1, 4)) == [0, 2, 5]
        assert len(index) == 7

    def test_rebuild_over_null_keys(self):
        index = self._index([2.0, None, 1.0, None])
        assert index.range_lookup() == [2, 0]
        assert len(index) == 4

    def test_positions_follow_the_flags(self):
        from repro.query.predicates import Between, IsNull, gt
        from repro.query.ranges import ranges_of

        index = self._index([2.0, None, self.NAN, 1.0])
        assert index.positions(ranges_of(gt("key", 0.0))) == [3, 0]
        assert index.positions(ranges_of(IsNull("key"))) == [1]
        nan_matching = ranges_of(Between("key", 0.0, 5.0))
        expected = [3, 0] + ([2] if nan_matching.nan else [])
        assert index.positions(nan_matching) == expected

    def test_insert_and_remove_unordered_keys(self):
        index = SortedIndex("key")
        for position, key in enumerate([1.0, self.NAN, None, 0.5]):
            index.insert(key, position)
        assert index.range_lookup() == [3, 0]
        index.remove(self.NAN, 1)
        index.remove(None, 2)
        index.remove(None, 99)  # not present: no-op
        assert len(index) == 2
