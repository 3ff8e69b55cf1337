"""A committed log in the format the engine used to write must still recover.

``golden/rowdict_loads.wal`` was written before bulk loads were logged as
columns: its ``LOAD_ROWS`` records carry the loaded rows as a list of row
dicts (one of them without its nullable column), and it holds one record of
every other kind the engine ever logged — ``CREATE_TABLE``, ``DROP_TABLE``,
``MOVE_TABLE``, ``APPLY_PARTITIONING`` (horizontal and vertical),
``REMOVE_PARTITIONING`` (no longer written; a partitioning is now removed
by a store move) and DML.  Every record is pickled, so a rename of a
logged class, a changed record shape or a dropped replay branch that
orphans such a file fails here.

The file was produced by :func:`write_golden_log`, which spells each record
out with :meth:`WriteAheadLog.append` rather than through a live database,
so running this module as a script writes the same records again::

    PYTHONPATH=src python tests/engine/test_golden_log.py OUT.wal
"""

import os
import shutil
import sys

from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.engine.wal import (
    APPLY_PARTITIONING,
    CREATE_TABLE,
    DML,
    DROP_TABLE,
    LOAD_ROWS,
    MOVE_TABLE,
    REMOVE_PARTITIONING,
    WriteAheadLog,
    recover,
)
from repro.query.builder import delete, insert, select, update
from repro.query.predicates import eq, ge, lt

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "rowdict_loads.wal")

ORDERS = TableSchema(
    "orders",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("customer", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE, nullable=True),
        Column("day", DataType.INTEGER),
    ),
)
NOTES = TableSchema(
    "notes",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("tag", DataType.VARCHAR),
        Column("body", DataType.VARCHAR, nullable=True),
        Column("score", DataType.DOUBLE),
    ),
)
SCRATCH = TableSchema("scratch", (Column("id", DataType.INTEGER, primary_key=True),))


def _orders_rows():
    rows = [
        {"id": i, "customer": "c%d" % (i % 3), "amount": i * 1.5, "day": i}
        for i in range(10)
    ]
    del rows[3]["amount"]  # a logged row dict may omit a nullable column
    rows[6]["amount"] = None
    return rows


def _notes_rows():
    return [
        {"id": i, "tag": "ab"[i % 2], "body": None if i == 2 else "n%d" % i,
         "score": float(i)}
        for i in range(6)
    ]


def write_golden_log(path):
    """Write the golden log's records, in order, to a new log at *path*."""
    wal = WriteAheadLog(path)
    wal.append(CREATE_TABLE, (ORDERS, Store.ROW))
    wal.append(LOAD_ROWS, ("orders", _orders_rows()))
    wal.append(CREATE_TABLE, (NOTES, Store.COLUMN))
    wal.append(LOAD_ROWS, ("notes", _notes_rows()))
    wal.append(MOVE_TABLE, ("orders", Store.COLUMN))
    wal.append(APPLY_PARTITIONING, ("orders", TablePartitioning(
        horizontal=HorizontalPartitionSpec(ge("day", 5), Store.ROW, Store.COLUMN))))
    wal.append(DML, insert("orders", [
        {"id": 10, "customer": "c1", "amount": 2.25, "day": 9},
        {"id": 11, "customer": "c2", "amount": None, "day": 1},
    ]))
    wal.append(DML, update("orders", {"amount": 0.5}, eq("id", 2)))
    wal.append(DML, delete("orders", lt("day", 2)))
    wal.append(APPLY_PARTITIONING, ("notes", TablePartitioning(
        vertical=VerticalPartitionSpec(("tag",), ("body", "score")))))
    wal.append(DML, update("notes", {"score": 9.5}, eq("tag", "b")))
    wal.append(REMOVE_PARTITIONING, ("orders", Store.ROW))
    wal.append(DML, insert("orders", [
        {"id": 12, "customer": "c0", "amount": 7.0, "day": 4},
    ]))
    wal.append(CREATE_TABLE, (SCRATCH, Store.ROW))
    wal.append(DROP_TABLE, "scratch")
    wal.append(DML, delete("notes", eq("id", 5)))
    wal.close()


RECORDS = 16

EXPECTED_ORDERS = [
    {"id": 2, "customer": "c2", "amount": 0.5, "day": 2},
    {"id": 3, "customer": "c0", "amount": None, "day": 3},
    {"id": 4, "customer": "c1", "amount": 6.0, "day": 4},
    {"id": 5, "customer": "c2", "amount": 7.5, "day": 5},
    {"id": 6, "customer": "c0", "amount": None, "day": 6},
    {"id": 7, "customer": "c1", "amount": 10.5, "day": 7},
    {"id": 8, "customer": "c2", "amount": 12.0, "day": 8},
    {"id": 9, "customer": "c0", "amount": 13.5, "day": 9},
    {"id": 10, "customer": "c1", "amount": 2.25, "day": 9},
    {"id": 12, "customer": "c0", "amount": 7.0, "day": 4},
]

EXPECTED_NOTES = [
    {"id": 0, "tag": "a", "body": "n0", "score": 0.0},
    {"id": 1, "tag": "b", "body": "n1", "score": 9.5},
    {"id": 2, "tag": "a", "body": None, "score": 2.0},
    {"id": 3, "tag": "b", "body": "n3", "score": 9.5},
    {"id": 4, "tag": "a", "body": "n4", "score": 4.0},
]


def _sorted_rows(database, table):
    rows = database.execute(select(table).build()).rows
    return sorted(rows, key=lambda row: row["id"])


def test_golden_log_recovers_its_rows():
    result = recover(GOLDEN)
    report, database = result.report, result.database
    assert report.clean
    assert report.records_applied == RECORDS
    assert report.last_lsn == RECORDS
    assert report.replay_errors == []
    assert database.table_names() == ["notes", "orders"]
    assert database.store_of("orders") is Store.ROW
    assert database.catalog.entry("notes").partitioning.vertical is not None
    assert _sorted_rows(database, "orders") == EXPECTED_ORDERS
    assert _sorted_rows(database, "notes") == EXPECTED_NOTES


def test_golden_log_resumes_after_its_last_lsn(tmp_path):
    path = str(tmp_path / "golden.wal")
    shutil.copyfile(GOLDEN, path)
    wal = WriteAheadLog(path)
    assert wal.last_lsn == RECORDS
    assert wal.log_drop_table("notes") == RECORDS + 1
    wal.close()
    database = recover(path).database
    assert database.table_names() == ["orders"]
    assert _sorted_rows(database, "orders") == EXPECTED_ORDERS


if __name__ == "__main__":
    write_golden_log(sys.argv[1])
