"""The column store's write buffer: buffering, merge, charge parity.

Column-store inserts append their validated rows to a *write buffer*
instead of re-encoding the dictionary-compressed *main* on every
statement; no reader sees the buffer, because every read merges it first.
The contract pinned here:

* results **and** simulated-cost charges are bit-identical to the inline
  reference (``delta_writes_disabled()`` routes writes straight into main)
  — the buffer is a wall-clock optimisation, never a cost-model change;
* :meth:`merge_delta` encodes the buffer into main and lands on the *exact*
  physical state (codes and dictionaries) the inline path would have built,
  because dictionary accumulation is history-order independent;
* the first read merges, and the merge keeps the zone epoch;
* inserts crossing ``merge_threshold`` merge automatically; updates and
  deletes merge first (positions address merged state);
* a duplicate primary key anywhere in a batch inserts none of it — and an
  inline insert whose column rejects a value mid-append rolls back the
  already appended column tails, so the table never ends up with
  misaligned columns or leaked primary keys.
"""

import contextlib

import pytest

from repro.engine.column_store import (
    ColumnStoreTable,
    delta_writes_disabled,
    delta_writes_enabled,
)
from repro.engine.database import HybridDatabase
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.errors import ExecutionError
from repro.query.builder import insert, select
from repro.query.predicates import Between, IsNull, eq, ge, lt

SCHEMA = TableSchema(
    "d",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("category", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE, nullable=True),
    ),
)


def make_rows(start, count):
    return [
        {
            "id": i,
            "category": f"cat_{i % 4}",
            "amount": None if i % 7 == 3 else float("nan") if i % 11 == 5 else i * 0.5,
        }
        for i in range(start, start + count)
    ]


def twin_tables():
    """The same batches into a delta-path table and an inline reference."""
    delta_table = ColumnStoreTable(SCHEMA)
    inline_table = ColumnStoreTable(SCHEMA)
    for start in (0, 10, 25):
        batch = make_rows(start, 10)
        delta_table.insert_rows(batch)
        with delta_writes_disabled():
            inline_table.insert_rows(batch)
    return delta_table, inline_table


class TestBuffering:
    def test_inserts_buffer_until_the_first_read(self):
        table = ColumnStoreTable(SCHEMA)
        table.insert_rows(make_rows(0, 5))
        assert table.delta_rows == 5
        assert table.main_rows == 0
        assert table.num_rows == 5
        epoch = table.zone_epoch
        assert len(table.all_rows()) == 5
        assert table.delta_rows == 0
        assert table.main_rows == 5
        assert table.zone_epoch == epoch

    def test_one_select_merges_keeps_the_epoch_and_bills_as_inline(self):
        databases = []
        for reference in (False, True):
            database = HybridDatabase()
            database.create_table(SCHEMA, Store.COLUMN)
            database.load_rows("d", make_rows(0, 10))
            with delta_writes_disabled() if reference else contextlib.nullcontext():
                database.execute(insert("d", make_rows(10, 5)))
            databases.append(database)
        buffered, inline = databases
        backend = buffered.table_object("d").backend
        assert backend.delta_rows == 5
        epoch = backend.zone_epoch
        query = select("d").where(ge("amount", 3.0)).build()
        got = buffered.execute(query)
        assert backend.delta_rows == 0
        assert backend.zone_epoch == epoch
        with delta_writes_disabled():
            want = inline.execute(query)
        assert got.rows == want.rows and len(got.rows) == 8
        assert got.cost.components == want.cost.components

    def test_bulk_load_merges_immediately(self):
        table = ColumnStoreTable(SCHEMA)
        load_rows(table, make_rows(0, 8))
        assert table.delta_rows == 0
        assert table.main_rows == 8

    def test_threshold_crossing_insert_merges(self):
        table = ColumnStoreTable(SCHEMA)
        table.merge_threshold = 6
        table.insert_rows(make_rows(0, 4))
        assert table.delta_rows == 4
        table.insert_rows(make_rows(4, 4))  # 8 >= 6: merge fires
        assert table.delta_rows == 0
        assert table.main_rows == 8

    def test_updates_and_deletes_merge_first(self):
        table = ColumnStoreTable(SCHEMA)
        table.insert_rows(make_rows(0, 6))
        table.update_rows([2], {"category": "patched"})
        assert table.delta_rows == 0
        assert table.column_values("category", [2]) == ["patched"]
        table.insert_rows(make_rows(6, 3))
        assert table.delta_rows == 3
        table.delete_rows(table.filter_positions(eq("id", 7)).tolist())
        assert table.delta_rows == 0
        assert sorted(row["id"] for row in table.all_rows()) == [
            0, 1, 2, 3, 4, 5, 6, 8,
        ]

    def test_disabled_toggle_restores_itself(self):
        assert delta_writes_enabled()
        with delta_writes_disabled():
            assert not delta_writes_enabled()
        assert delta_writes_enabled()


class TestMergeEquivalence:
    def test_merge_lands_on_the_inline_physical_state(self):
        delta_table, inline_table = twin_tables()
        assert delta_table.delta_rows > 0
        delta_table.merge_delta()
        for name in SCHEMA.column_names:
            merged = delta_table._columns[name]
            inline = inline_table._columns[name]
            assert merged.codes.tolist() == inline.codes.tolist(), name
            # repr-compare: NaN belongs to the amount dictionary and NaN != NaN.
            assert [repr(v) for v in merged.dictionary.values] == [
                repr(v) for v in inline.dictionary.values
            ], name

    @pytest.mark.parametrize("predicate", [
        eq("category", "cat_1"),
        ge("amount", 5.0),
        lt("id", 20),
        Between("amount", 2.0, 9.0),
        IsNull("amount"),
    ], ids=["eq", "ge", "lt", "between", "is_null"])
    def test_a_read_over_a_pending_buffer_matches_inline(self, predicate):
        delta_table, inline_table = twin_tables()
        assert delta_table.delta_rows > 0
        fast = CostAccountant()
        slow = CostAccountant()
        got = delta_table.filter_positions(predicate, fast).tolist()
        want = inline_table.filter_positions(predicate, slow).tolist()
        assert got == want
        assert fast.snapshot() == slow.snapshot()
        assert delta_table.delta_rows == 0

    def test_statistics_over_a_pending_buffer_match_inline(self):
        delta_table, inline_table = twin_tables()
        assert delta_table.memory_bytes == inline_table.memory_bytes
        assert delta_table.compression_rate() == inline_table.compression_rate()
        for name in SCHEMA.column_names:
            assert delta_table.column_distinct_count(
                name
            ) == inline_table.column_distinct_count(name), name
            assert delta_table.column_compressed_bytes(
                name
            ) == inline_table.column_compressed_bytes(name), name
            assert delta_table.column_min_max(name) == inline_table.column_min_max(
                name
            ) or (
                # NaN-aware: (x, nan) tuples compare unequal to themselves.
                str(delta_table.column_min_max(name))
                == str(inline_table.column_min_max(name))
            ), name

    def test_insert_charges_are_identical(self):
        delta_table = ColumnStoreTable(SCHEMA)
        inline_table = ColumnStoreTable(SCHEMA)
        fast, slow = CostAccountant(), CostAccountant()
        delta_table.insert_rows(make_rows(0, 12), fast)
        with delta_writes_disabled():
            inline_table.insert_rows(make_rows(0, 12), slow)
        assert fast.snapshot() == slow.snapshot()


class TestMidBatchFailure:
    """Satellite: duplicate-PK / rejected-value batches stay consistent."""

    @pytest.mark.parametrize("mode", ["delta", "inline"])
    def test_duplicate_pk_inserts_nothing_and_stays_aligned(self, mode):
        table = ColumnStoreTable(SCHEMA)
        seed = make_rows(0, 4)
        batch = [*make_rows(10, 2), seed[1], *make_rows(12, 1)]  # dup id=1 mid-batch

        def run():
            table.insert_rows(seed)
            with pytest.raises(ExecutionError, match="duplicate primary key 1 "):
                table.insert_rows(batch)

        if mode == "delta":
            run()
        else:
            with delta_writes_disabled():
                run()
        # No row of the batch committed: the buffer holds the seed alone.
        assert table.delta_rows == (4 if mode == "delta" else 0)
        ids = sorted(row["id"] for row in table.all_rows())
        assert ids == [0, 1, 2, 3]
        assert table.delta_rows == 0
        # Every key of the failed batch but the duplicate is free.
        table.insert_rows(make_rows(10, 3))
        with pytest.raises(ExecutionError):
            table.insert_rows(make_rows(11, 1))
        assert sorted(row["id"] for row in table.all_rows()) == [0, 1, 2, 3, 10, 11, 12]

    def test_rejected_value_rolls_back_appended_tails(self, monkeypatch):
        """An inline insert's column failing mid-append truncates its siblings' tails."""
        from repro.engine.compression import CompressedColumn

        table = ColumnStoreTable(SCHEMA)
        table.insert_rows(make_rows(0, 3))
        table.merge_delta()
        calls = {"n": 0}
        original_extend = CompressedColumn.extend

        def exploding_extend(self, values):
            calls["n"] += 1
            if calls["n"] > 1:  # first column extends, second explodes
                raise TypeError("synthetic dictionary rejection")
            return original_extend(self, values)

        monkeypatch.setattr(CompressedColumn, "extend", exploding_extend)
        with delta_writes_disabled(), pytest.raises(TypeError):
            table.insert_rows(make_rows(10, 3))
        monkeypatch.undo()

        # Nothing of the failed batch survives: aligned columns, free keys.
        assert table.num_rows == 3
        assert sorted(row["id"] for row in table.all_rows()) == [0, 1, 2]
        table.insert_rows(make_rows(10, 3))  # keys were not leaked
        assert table.num_rows == 6
