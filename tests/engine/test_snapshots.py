"""Snapshot reads: a consistent view that survives every later write.

``database.snapshot(name)`` (or ``table.snapshot()``) returns a read view
pinned to the table's state at that instant.  The column store implements it
copy-on-write: the snapshot merges the write buffer and shares the main
columns, and any later merge or in-place write swaps in clones
(``_unseal_for_write``) — so taking a snapshot copies nothing.  The row store materialises (its rows are
mutable lists); partitioned tables snapshot every part.

Pinned here: snapshots are stable under inserts, updates, deletes, *and*
merges in all three layouts, and reflect buffered rows that existed at
snapshot time.
"""

from repro.engine.database import HybridDatabase
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.query.builder import delete, insert, update
from repro.query.predicates import CompareOp, Comparison, eq, ge

SCHEMA = TableSchema(
    "s",
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
            "category": f"cat_{i % 3}",
            "amount": None if i % 5 == 4 else i * 1.5,
        }
        for i in range(start, start + count)
    ]


def build(store):
    database = HybridDatabase()
    database.create_table(SCHEMA, store)
    database.load_rows("s", make_rows(0, 10))
    return database


def mutate(database):
    database.execute(insert("s", make_rows(20, 3)))
    database.execute(update("s", {"category": "rewritten"}, ge("id", 5)))
    database.execute(delete("s", eq("id", 2)))


class TestStoredTables:
    def test_column_store_snapshot_is_stable_under_writes(self):
        database = build(Store.COLUMN)
        before = database.table_object("s").all_rows()
        snapshot = database.snapshot("s")
        mutate(database)
        assert snapshot.rows() == before
        assert database.table_object("s").all_rows() != before

    def test_row_store_snapshot_is_stable_under_writes(self):
        database = build(Store.ROW)
        before = database.table_object("s").all_rows()
        snapshot = database.snapshot("s")
        mutate(database)
        assert snapshot.rows() == before

    def test_snapshot_sees_unmerged_delta_rows(self):
        database = build(Store.COLUMN)
        database.execute(insert("s", make_rows(30, 2)))  # sits in the delta
        backend = database.table_object("s").backend
        assert backend.delta_rows == 2
        snapshot = database.snapshot("s")
        ids = [row["id"] for row in snapshot.rows()]
        assert 30 in ids and 31 in ids

    def test_snapshot_survives_a_merge(self):
        database = build(Store.COLUMN)
        before = database.table_object("s").all_rows()
        snapshot = database.snapshot("s")
        database.execute(insert("s", make_rows(30, 2)))
        assert database.merge_deltas("s") == 2
        database.execute(update("s", {"amount": 0.0}, ge("id", 0)))
        assert snapshot.rows() == before

    def test_two_snapshots_pin_two_points_in_time(self):
        database = build(Store.COLUMN)
        first = database.snapshot("s")
        state_one = database.table_object("s").all_rows()
        database.execute(insert("s", make_rows(40, 1)))
        second = database.snapshot("s")
        state_two = database.table_object("s").all_rows()
        database.execute(delete("s", ge("id", 0)))
        assert first.rows() == state_one
        assert second.rows() == state_two
        assert database.table_object("s").num_rows == 0

    def test_snapshot_column_values(self):
        database = build(Store.COLUMN)
        snapshot = database.snapshot("s")
        expected = database.table_object("s").column_values("category")
        database.execute(update("s", {"category": "gone"}, ge("id", 0)))
        assert list(snapshot.column_values("category")) == list(expected)


class TestPartitionedTables:
    def _partitioned(self):
        database = build(Store.COLUMN)
        database.apply_partitioning(
            "s",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(
                    predicate=Comparison("id", CompareOp.GE, 5)
                ),
                vertical=VerticalPartitionSpec(
                    row_store_columns=("category",),
                    column_store_columns=("amount",),
                ),
            ),
        )
        return database

    def test_partitioned_snapshot_is_stable_under_writes(self):
        database = self._partitioned()
        before = database.table_object("s").all_rows()
        snapshot = database.snapshot("s")
        mutate(database)
        assert snapshot.rows() == before
        assert database.table_object("s").all_rows() != before

    def test_partitioned_snapshot_matches_all_rows_ordering(self):
        database = self._partitioned()
        snapshot = database.snapshot("s")
        assert snapshot.rows() == database.table_object("s").all_rows()
