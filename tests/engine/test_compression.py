"""Tests for dictionary compression, including property-based round trips."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.batch import EncodedColumn
from repro.engine.compression import (
    ColumnDictionary,
    CompressedColumn,
    code_width_bytes,
)
from repro.engine.types import DataType


class TestCodeWidth:
    def test_small_dictionaries_use_one_byte(self):
        assert code_width_bytes(0) == 1
        assert code_width_bytes(1) == 1
        assert code_width_bytes(2) == 1
        assert code_width_bytes(256) == 1

    def test_width_grows_with_distinct_count(self):
        assert code_width_bytes(257) == 2
        assert code_width_bytes(70_000) == 3

    def test_width_is_monotonic(self):
        widths = [code_width_bytes(n) for n in (1, 10, 300, 70_000, 20_000_000)]
        assert widths == sorted(widths)

    def test_integer_arithmetic_equals_the_float_formula(self):
        """The simulated clock reads this number (``column_scan`` bills rows
        x code width), so the integer form must be the function the float
        form ``ceil(log2(n))`` was: on every dictionary size a test or a
        benchmark builds, and on each side of every power of two as far as
        float64 still tells them apart."""
        sizes = np.arange(2, 2 ** 21)
        float_widths = np.maximum(
            1, (np.ceil(np.log2(sizes)).astype(np.int64) + 7) // 8
        )
        assert [code_width_bytes(size) for size in sizes.tolist()] == \
            float_widths.tolist()
        for exponent in range(1, 47):
            for size in (2 ** exponent - 1, 2 ** exponent, 2 ** exponent + 1):
                bits = int(np.ceil(np.log2(size)))
                assert code_width_bytes(size) == max(1, (bits + 7) // 8), size

    def test_width_does_not_round_past_float_precision(self):
        # float64 reads 2**53 + 1 as 2**53; the integer form does not.
        assert code_width_bytes(2 ** 56) == 7
        assert code_width_bytes(2 ** 56 + 1) == 8


class TestColumnDictionary:
    def test_encode_decode_round_trip_at_call_time(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        for value in ["b", "a", "c", "a"]:
            assert dictionary.decode(dictionary.encode(value)) == value

    def test_encode_with_insert_reports_shift_position(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        code, shifted = dictionary.encode_with_insert("b")
        assert (code, shifted) == (0, 0)
        code, shifted = dictionary.encode_with_insert("a")
        assert (code, shifted) == (0, 0)  # 'b' shifted to code 1
        code, shifted = dictionary.encode_with_insert("b")
        assert (code, shifted) == (1, None)

    def test_dictionary_is_sorted(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        for value in ["delta", "alpha", "charlie", "bravo"]:
            dictionary.encode(value)
        assert list(dictionary.values) == ["alpha", "bravo", "charlie", "delta"]

    def test_encode_existing_returns_none_for_unknown(self):
        dictionary = ColumnDictionary(DataType.INTEGER)
        dictionary.encode(5)
        assert dictionary.encode_existing(5) == 0
        assert dictionary.encode_existing(7) is None

    def test_range_codes_cover_value_range(self):
        dictionary = ColumnDictionary(DataType.INTEGER)
        dictionary.bulk_build([10, 20, 30, 40, 50])
        lo, hi = dictionary.range_codes(20, 40)
        assert [dictionary.decode(c) for c in range(lo, hi)] == [20, 30, 40]

    def test_range_codes_open_bounds(self):
        dictionary = ColumnDictionary(DataType.INTEGER)
        dictionary.bulk_build([1, 2, 3, 4])
        lo, hi = dictionary.range_codes(None, 2)
        assert (lo, hi) == (0, 2)
        lo, hi = dictionary.range_codes(3, None)
        assert (lo, hi) == (2, 4)


class TestCompressedColumn:
    def test_append_and_value_at(self):
        column = CompressedColumn("status", DataType.VARCHAR)
        for value in ["open", "closed", "open"]:
            column.append(value)
        assert len(column) == 3
        assert column.value_at(0) == "open"
        assert column.value_at(1) == "closed"
        assert column.all_values() == ["open", "closed", "open"]

    def test_bulk_load_matches_appends(self):
        values = [i % 10 for i in range(500)]
        bulk = CompressedColumn("v", DataType.INTEGER)
        bulk.bulk_load(values)
        appended = CompressedColumn("v", DataType.INTEGER)
        appended.extend(values)
        assert bulk.all_values() == appended.all_values()
        assert bulk.num_distinct == appended.num_distinct == 10

    def test_set_value_updates_in_place(self):
        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load([1, 2, 3])
        column.set_value(1, 99)
        assert column.all_values() == [1, 99, 3]

    def test_compression_rate_improves_with_repetition(self):
        repetitive = CompressedColumn("v", DataType.VARCHAR)
        repetitive.bulk_load(["x"] * 1_000)
        diverse = CompressedColumn("v", DataType.VARCHAR)
        diverse.bulk_load([f"value_{i}" for i in range(1_000)])
        assert repetitive.compression_rate < diverse.compression_rate
        assert 0.0 < repetitive.compression_rate <= 1.0
        assert diverse.compression_rate <= 1.0

    def test_empty_column_reports_no_compression(self):
        column = CompressedColumn("v", DataType.INTEGER)
        assert column.compression_rate == 1.0
        assert len(column) == 0


class TestCompressionProperties:
    @given(st.lists(st.integers(min_value=-1_000, max_value=1_000), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_preserves_values(self, values):
        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load(values)
        assert column.all_values() == values

    @given(st.lists(st.text(min_size=0, max_size=8), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_distinct_count_matches_set(self, values):
        column = CompressedColumn("v", DataType.VARCHAR)
        column.bulk_load(values)
        assert column.num_distinct == len(set(values))

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200),
           st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_appending_after_bulk_load_keeps_order(self, values, extra):
        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load(values)
        column.append(extra)
        assert column.all_values() == values + [extra]


class TestNaNDictionaryMaintenance:
    """NaN sorts last by convention; no maintenance path may break that.

    Regression guards for two corruptions the differential fuzzer surfaced:
    ``merge_values`` ran ``sorted()`` over a NaN-containing list (poisoning
    the sort and mis-encoding the batch), and a per-row ``append(nan)``
    bisected NaN to position 0.
    """

    def test_extend_into_nan_dictionary_keeps_sort_and_values(self):
        nan = float("nan")
        column = CompressedColumn("v", DataType.DOUBLE)
        column.bulk_load([5.0, nan, 1.0])
        column.extend([2.0, 7.0])
        assert repr(column.all_values()) == repr([5.0, nan, 1.0, 2.0, 7.0])
        assert list(column.dictionary.values)[:-1] == [1.0, 2.0, 5.0, 7.0]
        assert column.dictionary.nan_code == 4

    def test_append_nan_lands_last(self):
        nan = float("nan")
        column = CompressedColumn("v", DataType.DOUBLE)
        column.bulk_load([5.0, 1.0])
        column.append(nan)
        column.append(3.0)
        assert repr(column.all_values()) == repr([5.0, 1.0, nan, 3.0])
        assert column.dictionary.nan_code == len(column.dictionary) - 1

    def test_extend_with_only_new_nan(self):
        nan = float("nan")
        column = CompressedColumn("v", DataType.DOUBLE)
        column.bulk_load([2.0, 1.0])
        column.extend([nan, nan, 1.0])
        assert repr(column.all_values()) == repr([2.0, 1.0, nan, nan, 1.0])
        assert column.dictionary.nan_code == 2
        # A second NaN batch reuses the entry instead of growing the dictionary.
        column.extend([nan, 0.0])
        assert column.num_distinct == 4


class TestNaNBisectBounds:
    """Bisect must never probe the trailing NaN entry.

    Every comparison against NaN is false, so an unbounded binary search
    whose probe lands on the NaN entry jumps *past* it — ``range_codes``
    could place a bound between the two largest real values after them both
    (e.g. 129.3 "after" 143.32), silently dropping rows from range scans.
    """

    def _nan_dictionary(self):
        column = CompressedColumn("v", DataType.DOUBLE)
        # 24 values with NaN last: the bisect probe sequence for bounds
        # between values[-2] and values[-1] hits the NaN slot.
        values = [float(i * 6) for i in range(22)] + [143.32, float("nan")]
        column.bulk_load(values)
        return column.dictionary

    def test_range_codes_bound_between_top_values(self):
        dictionary = self._nan_dictionary()
        lo, hi = dictionary.range_codes(129.3, None, include_low=False)
        # 143.32 (code 22) must be inside the open interval.
        assert lo <= 22 < hi

    def test_encode_existing_finds_top_value(self):
        dictionary = self._nan_dictionary()
        assert dictionary.encode_existing(143.32) == 22

    def test_insert_near_top_keeps_nan_last(self):
        column = CompressedColumn("v", DataType.DOUBLE)
        column.bulk_load([float(i * 6) for i in range(22)] + [143.32, float("nan")])
        column.append(140.0)
        assert column.dictionary.nan_code == len(column.dictionary) - 1
        values = list(column.dictionary.values)
        reals = [v for v in values if v == v]
        assert reals == sorted(reals)


class TestMixedNullDictionary:
    """NULL alongside values: the reserved code 0 (mixed-NULL columns)."""

    def test_first_null_reserves_code_zero_and_shifts(self):
        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load([30, 10, 20])
        assert column.codes.tolist() == [2, 0, 1]
        column.append(None)
        assert column.dictionary.has_null
        assert column.codes.tolist() == [3, 1, 2, 0]
        assert column.all_values() == [30, 10, 20, None]

    def test_bulk_build_with_mixed_nulls(self):
        column = CompressedColumn("v", DataType.VARCHAR)
        column.bulk_load(["b", None, "a", None, "c"])
        assert column.all_values() == ["b", None, "a", None, "c"]
        assert column.dictionary.encode_existing(None) == 0
        assert column.dictionary.encode_existing("a") == 1
        assert column.null_count == 2
        assert len(column.dictionary) == 4  # NULL + three values

    def test_extend_merges_values_into_null_dictionary(self):
        column = CompressedColumn("v", DataType.VARCHAR)
        column.bulk_load([None, "m"])
        column.extend(["a", None, "z"])
        assert column.all_values() == [None, "m", "a", None, "z"]
        # Code order mirrors value order, NULL first.
        assert list(column.dictionary.values) == [None, "a", "m", "z"]

    def test_range_codes_skip_the_null_code(self):
        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load([None, 10, 20, 30])
        lo, hi = column.dictionary.range_codes(None, None)
        assert lo == 1  # the interval never includes the reserved NULL code

    def test_delete_rebuild_drops_or_keeps_null(self):
        import numpy as np

        column = CompressedColumn("v", DataType.INTEGER)
        column.bulk_load([None, 10, 20, None])
        # Keep only the value rows: NULL leaves the dictionary.
        kept = column.codes[np.asarray([1, 2])]
        remap = column.dictionary.rebuild_from_codes(kept)
        column.load_codes(remap)
        assert not column.dictionary.has_null
        assert column.all_values() == [10, 20]

    def test_null_and_nan_can_coexist(self):
        nan = float("nan")
        column = CompressedColumn("v", DataType.DOUBLE)
        column.bulk_load([1.0, None, nan])
        assert repr(column.all_values()) == repr([1.0, None, nan])
        assert column.dictionary.encode_existing(None) == 0
        assert column.dictionary.nan_code == len(column.dictionary) - 1
        column.extend([2.0, None, nan])
        assert repr(column.all_values()) == repr([1.0, None, nan, 2.0, None, nan])


class TestRowsById:
    @pytest.mark.parametrize("capacity", [1, 7, 300, 65_536, 65_537, 200_000])
    def test_matches_the_stable_sort(self, capacity):
        """One radix pass up to 2**16 ids, two beyond: same order as the
        stable sort of the ids, and ``starts`` brackets every id's rows."""
        from repro.engine.compression import rows_by_id

        rng = np.random.default_rng(capacity)
        ids = rng.integers(0, capacity, 5_000)
        order, starts = rows_by_id(ids, capacity)
        assert order.tolist() == np.argsort(ids, kind="stable").tolist()
        assert len(starts) == capacity + 1
        assert starts.tolist() == np.searchsorted(
            ids[order], np.arange(capacity + 1)
        ).tolist()

    def test_empty_input(self):
        from repro.engine.compression import rows_by_id

        order, starts = rows_by_id(np.empty(0, dtype=np.int64), 3)
        assert len(order) == 0 and starts.tolist() == [0, 0, 0, 0]


def _indexed_column(values):
    """A column with all of its derived state built."""
    column = CompressedColumn("c", DataType.INTEGER)
    column.bulk_load(values)
    column.build_position_index()
    whole = _whole(column)
    column.derived.group_summary(whole)
    column.derived.float_weights(whole)
    assert column.has_position_index
    assert column.derived.has_group_summary and column.derived.has_float_weights
    return column


def _whole(column):
    """The whole-column read that carries the column's derived state."""
    return EncodedColumn(column.codes, column.dictionary, column.derived)


def _has_group_state(column):
    derived = column.derived
    return derived.has_group_summary or derived.has_float_weights


def _assert_index_describes_codes(column):
    """A freshly built index finds exactly the rows a scan of the codes finds."""
    column.build_position_index()
    codes = column.codes
    for code in range(len(column.dictionary)):
        interval = ((code, code + 1),)
        expected = np.flatnonzero(codes == code)
        assert column.indexed_rows(interval) == len(expected)
        found = column.indexed_positions(interval)
        assert found.dtype == np.int64 and found.tolist() == expected.tolist()
    everything = ((0, len(column.dictionary)),)
    assert column.indexed_positions(everything).tolist() == list(range(len(codes)))


class TestPositionIndexLifetime:
    """The column's own mutators are the only writers of its codes, and
    every one of them drops the index and restarts the served-scan count —
    and drops the group summary and float weights with it."""

    MUTATORS = {
        "append": lambda column: column.append(3),
        "append_new_value": lambda column: column.append(-5),
        "extend_existing": lambda column: column.extend([1, 2, 2]),
        "extend_new_entry": lambda column: column.extend([1, 40, 41]),
        "extend_first_null": lambda column: column.extend([None, 2]),
        "extend_one": lambda column: column.extend([7]),
        "set_value": lambda column: column.set_value(4, 9),
        "set_value_new_entry": lambda column: column.set_value(4, 1_000),
        "truncate": lambda column: column.truncate(10),
        "load_codes": lambda column: column.load_codes(column.codes[::2].copy()),
        "bulk_load": lambda column: column.bulk_load([5, 5, 6]),
    }

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_drops_the_index(self, name):
        column = _indexed_column([i % 10 for i in range(50)])
        self.MUTATORS[name](column)
        assert not column.has_position_index
        assert column.served_scans == 0
        assert not _has_group_state(column)
        _assert_index_describes_codes(column)

    @pytest.mark.parametrize("name", sorted(MUTATORS))
    def test_every_mutator_restarts_the_count(self, name):
        column = CompressedColumn("c", DataType.INTEGER)
        column.bulk_load([i % 10 for i in range(50)])
        for _ in range(5):
            column.note_served_scan()
        assert column.served_scans == 5
        self.MUTATORS[name](column)
        assert column.served_scans == 0 and not column.has_position_index

    def test_clone_starts_without_index_or_count(self):
        column = _indexed_column([1, 2, 3, 2, 1])
        clone = column.clone()
        assert not clone.has_position_index and clone.served_scans == 0
        assert not _has_group_state(clone)
        assert column.has_position_index and _has_group_state(column)

    def test_empty_extend_changes_nothing(self):
        column = _indexed_column([1, 2, 3])
        column.extend([])
        assert column.has_position_index

    def test_order_is_stored_in_32_bits(self):
        column = _indexed_column([3, 1, 2, 1])
        order, starts = column.derived.position_index
        assert order.dtype == np.uint32 and starts.tolist() == [0, 2, 3, 4]
        assert order.tolist() == [1, 3, 2, 0]

    def test_codes_outside_the_dictionary_build_no_index(self):
        """Only corruption behind the column's back produces them; the
        column then keeps scanning instead of sizing ``starts`` by a
        flipped bit."""
        column = CompressedColumn("c", DataType.INTEGER)
        column.bulk_load([1, 2, 3])
        column.codes[1] ^= 1 << 40
        column.build_position_index()
        assert not column.has_position_index
        # Nor a group summary or float weights: the executor computes them
        # as if the column had none.
        whole = _whole(column)
        assert column.derived.group_summary(whole) is None
        assert column.derived.float_weights(whole) is None
        assert not _has_group_state(column)

    def test_only_the_column_carrying_the_state_reads_it(self):
        """The cached arrays describe the codes they were built from: a
        row selection of the column, or a column carrying another state,
        gets none of them."""
        column = _indexed_column([i % 10 for i in range(50)])
        other = _indexed_column([i % 3 for i in range(50)])
        derived = column.derived
        for foreign in (_whole(column).take(np.arange(0, 50, 2)), _whole(other)):
            assert derived.group_summary(foreign) is None
            assert derived.float_weights(foreign) is None
        whole = _whole(column)
        assert derived.group_summary(whole).counts.sum() == 50
        assert derived.float_weights(whole).tolist() == column.values_array_at().tolist()

    def test_a_pickled_state_keeps_only_the_position_index(self):
        """A checkpoint snapshot pickles its columns whole; the group
        summary and float weights are rebuilt on demand instead."""
        column = _indexed_column([i % 10 for i in range(50)])
        copy = pickle.loads(pickle.dumps(column))
        assert copy.has_position_index and not _has_group_state(copy)
        assert np.array_equal(copy.derived.position_index[0], column.derived.position_index[0])
        whole = _whole(copy)
        assert copy.derived.group_summary(whole).emit.tolist() == list(range(10))
        assert copy.derived.float_weights(whole) is not None


class TestPositionIndexRule:
    def test_a_read_only_column_builds_exactly_once(self):
        from repro.engine.context import current

        column = CompressedColumn("c", DataType.INTEGER)
        column.bulk_load(list(range(100)))
        before = current().counters.position_index_builds
        threshold = CompressedColumn.SERVED_SCANS_PER_PASS
        for scan in range(1_000):
            assert column.has_position_index == (scan >= threshold)
            column.note_served_scan()
        assert current().counters.position_index_builds == before + 1

    def test_a_column_mutated_every_ten_scans_never_builds(self):
        from repro.engine.context import current

        column = CompressedColumn("c", DataType.INTEGER)
        column.bulk_load(list(range(100)))
        before = current().counters.position_index_builds
        for scan in range(1_000):
            if scan % 10 == 0:
                column.set_value(scan % 100, scan)
            column.note_served_scan()
            assert not column.has_position_index
        assert current().counters.position_index_builds == before

    def test_a_wide_dictionary_waits_for_both_passes(self):
        column = CompressedColumn("c", DataType.INTEGER)
        column.bulk_load(list(range(70_000)))
        for _ in range(2 * CompressedColumn.SERVED_SCANS_PER_PASS - 1):
            column.note_served_scan()
        assert not column.has_position_index
        column.note_served_scan()
        assert column.has_position_index
