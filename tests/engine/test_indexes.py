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
