"""One key rule, checked before anything changes, on every layout.

A DML statement either raises and leaves every layout as it was, or
succeeds with primary keys unique across the table's parts.  The probes run
on ``t(id INTEGER pk, v INTEGER, w DOUBLE)`` holding ids 0–99 (``v = id``)
in four layouts: a row store, a column store, a hot row-store part
(``id >= 90``) over a column-store main, and a vertical split whose halves
both carry the key.  A statement that raises is not logged, so a recovered
session agrees with the live one after it.
"""

from __future__ import annotations

import pytest

from repro.api import connect, recover
from repro.engine import DataType, Store, TableSchema
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column
from repro.errors import ExecutionError, SchemaError
from repro.query.builder import insert, update
from repro.query.predicates import eq, ge

SCHEMA = TableSchema(
    "t",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("v", DataType.INTEGER),
        Column("w", DataType.DOUBLE, nullable=True),
    ),
)

LAYOUTS = {
    "row": (Store.ROW, None),
    "column": (Store.COLUMN, None),
    "hot/main": (Store.COLUMN, TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=ge("id", 90)),
    )),
    "vertical": (Store.COLUMN, TablePartitioning(
        vertical=VerticalPartitionSpec(row_store_columns=("v",),
                                       column_store_columns=("w",)),
    )),
}

STATEMENTS = (
    # Many rows take one key.
    "UPDATE t SET id = 7 WHERE v >= 50",
    "UPDATE t SET id = 300 WHERE v >= 50",
    # One row takes a key another row holds — in main, or across parts.
    "UPDATE t SET id = 5 WHERE id = 6",
    "UPDATE t SET id = 5 WHERE id = 95",
    "UPDATE t SET id = 95 WHERE id = 5",
    # An insert whose key some part holds, and one whose batch repeats a key.
    "INSERT INTO t (id, v) VALUES (5, 999)",
    "INSERT INTO t (id, v) VALUES (95, 999)",
    insert("t", [{"id": 200, "v": 1}, {"id": 201, "v": 2}, {"id": 200, "v": 3}]),
    # A SET value one vertical half can take and the other cannot.
    update("t", {"v": 1, "w": "not-a-number"}, eq("id", 6)),
    # These succeed: a new key, the row's own key, a batch of new keys.
    "UPDATE t SET id = 500 WHERE id = 95",
    "UPDATE t SET id = 6 WHERE id = 6",
    insert("t", [{"id": 200, "v": 1}, {"id": 201, "v": 2}]),
)


def keyed_session(layout, wal_path=None):
    store, partitioning = LAYOUTS[layout]
    session = connect(wal_path=wal_path)
    session.create_table(SCHEMA, store)
    session.load_rows("t", [{"id": i, "v": i, "w": i / 2} for i in range(100)])
    if partitioning is not None:
        session.apply_partitioning("t", partitioning)
    return session


def contents(session):
    return sorted(
        (row["id"], row["v"], row["w"])
        for row in session.sql("SELECT id, v, w FROM t").rows
    )


def run(session, statement):
    """Run *statement*; ``True`` if it raised a key or schema error.

    Built statements go to the engine directly: the session's binder would
    refuse an uncoercible literal before the engine saw it.
    """
    try:
        if isinstance(statement, str):
            session.sql(statement)
        else:
            session.database.execute(statement)
    except (ExecutionError, SchemaError):
        return True
    return False


def assert_halves_agree(session):
    table = session.database.table_object("t")
    if getattr(table, "has_vertical_split", False):
        assert (table.vertical_row_part.column_values("id")
                == table.vertical_col_part.column_values("id"))


@pytest.mark.parametrize("statement", STATEMENTS, ids=repr)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_statement_raises_and_changes_nothing_or_keeps_keys_unique(
    layout, statement
):
    session = keyed_session(layout)
    before = contents(session)
    if run(session, statement):
        assert contents(session) == before
    else:
        ids = [row[0] for row in contents(session)]
        assert len(ids) == len(set(ids))
    assert_halves_agree(session)
    session.close()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layouts_agree_on_which_statements_raise(layout):
    raised = [run(keyed_session(layout), statement) for statement in STATEMENTS]
    assert raised == [True] * 9 + [False] * 3


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_a_failed_statement_is_not_logged_and_recovers_alike(tmp_path, layout):
    path = str(tmp_path / "db.wal")
    session = keyed_session(layout, wal_path=path)
    for statement in STATEMENTS:
        lsn = session.database.wal.last_lsn
        failed = run(session, statement)
        assert session.database.wal.last_lsn == lsn + (not failed), statement
        live = contents(session)
        session.close()
        # The recovered session is durable too: the next statement runs there.
        session, report = recover(path)
        assert report.replay_errors == []
        assert contents(session) == live, statement
        assert_halves_agree(session)
    session.close()
