"""Bulk loads: rows become columns once, and every store loads columns.

* **Golden dictionaries.**  ``CompressedColumn.bulk_load`` builds each
  dictionary by the shape of its data (all-``str``: a set; small-range
  ints: a ``bincount``; the rest: ``np.unique``).  The table below was
  recorded with the single ``np.unique`` build it replaced: entries, their
  Python types and the codes must not move, or every digest and bill does.
* **Load equivalence.**  ``load_rows`` into a row, a column and a
  horizontally + vertically partitioned table ends in the state the per-row
  DML path reaches with the same rows: rows, index entries, zone synopses,
  statistics and unit checksums — rows whose routing column is NULL or NaN
  included.
* **Atomic loads.**  A load that fails changes nothing, on any layout, so
  the log (which records successful loads only) replays to the live state.
* **Schema errors** keep their texts.
"""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import connect, recover
from repro.engine import DataType, Store, TableSchema
from repro.engine.compression import CompressedColumn
from repro.engine.integrity import unit_checksum
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    PartitionedTable,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column
from repro.engine.statistics import compute_table_statistics
from repro.engine.table import StoredTable, load_rows
from repro.errors import ExecutionError, SchemaError
from repro.query.predicates import CompareOp, Comparison, IsNull, Or

NAN = float("nan")

#: name -> (dtype, values): what each golden build was given.
GOLDEN_INPUTS = {
    "ints_with_nulls": (DataType.INTEGER, [3, None, 1, 3, None, 2]),
    "floats_nan_signed_zero": (DataType.DOUBLE, [1.5, NAN, -0.0, 0.0, NAN, 2.5]),
    "floats_null_zero_first": (DataType.DOUBLE, [None, 0.0, -0.0, NAN]),
    "floats_negzero_first": (DataType.DOUBLE, [-0.0, 1.0, 0.0]),
    "strings_trailing_nul": (DataType.VARCHAR, ["a\x00", "a", "b", "a\x00", ""]),
    "strings_embedded_nul": (DataType.VARCHAR, ["a\x00b", "a", "ab", "a\x00b"]),
    "strings_with_nulls": (DataType.VARCHAR, ["b", None, "a", None, "b"]),
    "strings_non_ascii": (DataType.VARCHAR, ["é", "e", "z", "É", "é"]),
    "booleans": (DataType.BOOLEAN, [True, False, True]),
    "booleans_with_null": (DataType.BOOLEAN, [None, True, False, True]),
    "ints_into_double": (DataType.DOUBLE, [1, 2.5, 1, -3]),
    "ints_and_bools_mixed": (DataType.INTEGER, [True, 2, 0, False]),
    "ints_negative_large": (DataType.BIGINT, [-(2 ** 62), 5, -7, 2 ** 62, 5]),
    "ints_past_int64": (DataType.BIGINT, [2 ** 63, 1, 2 ** 63]),
    "ints_both_sides_past_int64": (DataType.BIGINT, [2 ** 64, -1, 3]),
    "ints_wide_range": (DataType.BIGINT, [10 ** 12, 0, 10 ** 12, 7]),
    "dates": (DataType.DATE, [datetime.date(2020, 1, 2), datetime.date(1999, 12, 31),
                              datetime.date(2020, 1, 2)]),
    "dates_with_null": (DataType.DATE, [None, datetime.date(2001, 5, 5)]),
    "all_distinct": (DataType.INTEGER, [9, 4, 7, 1, 0, 8]),
    "two_values": (DataType.VARCHAR, ["x", "y", "y", "x", "x"]),
    "all_null": (DataType.INTEGER, [None, None]),
    "empty": (DataType.INTEGER, []),
}

#: name -> ([(repr(entry), type name) in code order], codes), as recorded.
GOLDEN_DICTIONARIES = {
    "ints_with_nulls": (
        [("None", "NoneType"), ("1", "int"), ("2", "int"), ("3", "int")],
        [3, 0, 1, 3, 0, 2],
    ),
    "floats_nan_signed_zero": (
        [("-0.0", "float"), ("1.5", "float"), ("2.5", "float"), ("nan", "float")],
        [1, 3, 0, 0, 3, 2],
    ),
    "floats_null_zero_first": (
        [("None", "NoneType"), ("0.0", "float"), ("nan", "float")],
        [0, 1, 1, 2],
    ),
    "floats_negzero_first": ([("-0.0", "float"), ("1.0", "float")], [0, 1, 0]),
    "strings_trailing_nul": (
        [("''", "str"), ("'a'", "str"), ("'a\\x00'", "str"), ("'b'", "str")],
        [2, 1, 3, 2, 0],
    ),
    "strings_embedded_nul": (
        [("'a'", "str"), ("'a\\x00b'", "str"), ("'ab'", "str")],
        [1, 0, 2, 1],
    ),
    "strings_with_nulls": (
        [("None", "NoneType"), ("'a'", "str"), ("'b'", "str")],
        [2, 0, 1, 0, 2],
    ),
    "strings_non_ascii": (
        [("'e'", "str"), ("'z'", "str"), ("'É'", "str"), ("'é'", "str")],
        [3, 0, 1, 2, 3],
    ),
    "booleans": ([("False", "bool"), ("True", "bool")], [1, 0, 1]),
    "booleans_with_null": (
        [("None", "NoneType"), ("False", "bool"), ("True", "bool")],
        [0, 2, 1, 2],
    ),
    "ints_into_double": (
        [("-3.0", "float"), ("1.0", "float"), ("2.5", "float")],
        [1, 2, 1, 0],
    ),
    "ints_and_bools_mixed": ([("0", "int"), ("1", "int"), ("2", "int")], [1, 2, 0, 0]),
    "ints_negative_large": (
        [("-4611686018427387904", "int"), ("-7", "int"), ("5", "int"),
         ("4611686018427387904", "int")],
        [0, 2, 1, 3, 2],
    ),
    "ints_past_int64": (
        [("1.0", "float"), ("9.223372036854776e+18", "float")],
        [1, 0, 1],
    ),
    "ints_both_sides_past_int64": (
        [("-1", "int"), ("3", "int"), ("18446744073709551616", "int")],
        [2, 0, 1],
    ),
    "ints_wide_range": (
        [("0", "int"), ("7", "int"), ("1000000000000", "int")],
        [2, 0, 2, 1],
    ),
    "dates": (
        [("datetime.date(1999, 12, 31)", "date"), ("datetime.date(2020, 1, 2)", "date")],
        [1, 0, 1],
    ),
    "dates_with_null": (
        [("None", "NoneType"), ("datetime.date(2001, 5, 5)", "date")],
        [0, 1],
    ),
    "all_distinct": (
        [("0", "int"), ("1", "int"), ("4", "int"), ("7", "int"), ("8", "int"),
         ("9", "int")],
        [5, 2, 3, 1, 0, 4],
    ),
    "two_values": ([("'x'", "str"), ("'y'", "str")], [0, 1, 1, 0, 0]),
    "all_null": ([("None", "NoneType")], [0, 0]),
    "empty": ([], []),
}

#: The same, through the load boundary (validation coerces first).
GOLDEN_SCHEMA = TableSchema("g", (
    Column("id", DataType.INTEGER, primary_key=True),
    Column("d", DataType.DOUBLE, nullable=True),
    Column("s", DataType.VARCHAR, nullable=True),
    Column("b", DataType.BOOLEAN, nullable=True),
    Column("dt", DataType.DATE),
))
GOLDEN_ROWS = [
    {"id": 3, "d": 1, "s": "b\x00", "b": True, "dt": 3},
    {"id": 1, "d": NAN, "s": None, "b": None, "dt": "2001-01-01"},
    {"id": 2, "d": -0.0, "s": "b", "dt": datetime.date(1970, 1, 4)},
    {"id": 5, "d": 0.0, "s": "a", "b": 0, "dt": 3},
]
GOLDEN_LOADED = {
    "id": ([("1", "int"), ("2", "int"), ("3", "int"), ("5", "int")], [2, 0, 1, 3]),
    # Validation stores -0.0 as 0.0 (a float has one zero); the raw build
    # above still keeps whichever zero comes first.
    "d": ([("0.0", "float"), ("1.0", "float"), ("nan", "float")], [1, 2, 0, 0]),
    "s": ([("None", "NoneType"), ("'a'", "str"), ("'b'", "str"), ("'b\\x00'", "str")],
          [3, 0, 2, 1]),
    "b": ([("None", "NoneType"), ("False", "bool"), ("True", "bool")], [2, 0, 0, 1]),
    "dt": ([("datetime.date(1970, 1, 4)", "date"), ("datetime.date(2001, 1, 1)", "date")],
           [0, 1, 0, 0]),
}


def described(column):
    entries = [(repr(value), type(value).__name__) for value in column.dictionary.values]
    return entries, column.codes.tolist()


class TestGoldenDictionaries:
    @pytest.mark.parametrize("name", sorted(GOLDEN_INPUTS))
    def test_bulk_build_matches_the_recorded_dictionary(self, name):
        dtype, values = GOLDEN_INPUTS[name]
        column = CompressedColumn(name, dtype)
        column.bulk_load(values)
        assert described(column) == GOLDEN_DICTIONARIES[name]

    def test_loaded_table_matches_the_recorded_dictionaries(self):
        session = connect()
        session.create_table(GOLDEN_SCHEMA, Store.COLUMN)
        session.load_rows("g", GOLDEN_ROWS)
        backend = session.database.table_object("g").backend
        for name, expected in GOLDEN_LOADED.items():
            assert described(backend.compressed_column(name)) == expected

    @pytest.mark.parametrize("span", [3_650, 70_000, 3_000_000])
    def test_int_dictionaries_equal_the_sorted_distinct_values(self, span):
        # Below, at and past the bincount's reach: same entries, same codes.
        values = [(index * 7_919) % span - span // 2 for index in range(100_000)]
        column = CompressedColumn("v", DataType.BIGINT)
        column.bulk_load(values)
        distinct = sorted(set(values))
        assert list(column.dictionary.values) == distinct
        assert all(type(value) is int for value in column.dictionary.values)
        code_of = {value: code for code, value in enumerate(distinct)}
        assert column.codes.tolist() == [code_of[value] for value in values]


# -- load equivalence ------------------------------------------------------------------

SCHEMA = TableSchema("t", (
    Column("id", DataType.INTEGER, primary_key=True),
    Column("v", DataType.INTEGER, nullable=True),
    Column("f", DataType.DOUBLE, nullable=True),
    Column("s", DataType.VARCHAR, nullable=True),
    Column("b", DataType.BOOLEAN),
))

#: Hot rows: ``f > 0.5`` or ``v IS NULL`` — NULL and NaN cells of ``f``
#: match neither half of the first disjunct, so they route by ``v``.
HOT = Or((Comparison("f", CompareOp.GT, 0.5), IsNull("v")))
PARTITIONING = TablePartitioning(
    horizontal=HorizontalPartitionSpec(predicate=HOT),
    vertical=VerticalPartitionSpec(
        row_store_columns=("v", "b"), column_store_columns=("f", "s")
    ),
)

cells = st.fixed_dictionaries(
    {
        "v": st.one_of(st.none(), st.integers(-5, 5), st.integers(-(2 ** 40), 2 ** 40)),
        "f": st.one_of(st.none(), st.just(NAN),
                       st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 3.5])),
        "s": st.one_of(st.none(), st.sampled_from(["", "a", "a\x00", "b", "é"])),
        "b": st.booleans(),
    }
)
batches = st.lists(cells, max_size=40).map(
    lambda batch: [dict(row, id=index * 3 - 20) for index, row in enumerate(batch)]
)


def dml_reference(schema, store, rows):
    """*rows* inserted one DML statement at a time, delta merged."""
    table = StoredTable(schema, store)
    table.insert_rows(rows)
    table.merge_delta()
    return table


def routed_reference(rows):
    """The partitioned layout, built row by row from the scalar predicate."""
    validated = [SCHEMA.validate_row(row) for row in rows]
    hot = [row for row in validated if HOT.evaluate(row)]
    main = [row for row in validated if not HOT.evaluate(row)]
    parts = PartitionedTable(SCHEMA, PARTITIONING)
    reference = [dml_reference(SCHEMA, Store.ROW, hot)]
    for part in parts.main_parts:
        names = part.schema.column_names
        reference.append(dml_reference(
            part.schema, part.store, [{name: row[name] for name in names} for row in main]
        ))
    return reference


def state(table):
    """Everything a load decides, in comparable form (NaN by its repr)."""
    backend = table.backend
    names = table.schema.column_names
    rows = repr(table.all_rows())
    zones = {name: repr(table.column_zone(name)) for name in names}
    statistics = compute_table_statistics(table)
    result = {"rows": rows, "zones": zones, "stats": repr(statistics.columns)}
    if isinstance(backend, RowStoreTable):
        result["indexes"] = {
            name: (
                [(repr(key), backend._hash_indexes[name].lookup(key))
                 for key in table.column_values(name)],
                backend._sorted_indexes[name].range_lookup(),
            )
            for name in backend.indexed_columns
        }
    else:
        result["checksums"] = {
            name: unit_checksum(
                backend.compressed_column(name).codes,
                backend.compressed_column(name).dictionary,
            )
            for name in names
        }
    return result


class TestLoadEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(batches, batches)
    def test_single_store_loads_equal_per_row_inserts(self, first, second):
        second = [dict(row, id=row["id"] + 1_000) for row in second]
        for store in (Store.ROW, Store.COLUMN):
            loaded = StoredTable(SCHEMA, store)
            load_rows(loaded, first)
            load_rows(loaded, second)
            assert state(loaded) == state(dml_reference(SCHEMA, store, first + second))

    @settings(max_examples=60, deadline=None)
    @given(batches)
    def test_partitioned_loads_route_like_the_scalar_predicate(self, rows):
        partitioned = PartitionedTable(SCHEMA, PARTITIONING)
        load_rows(partitioned, rows)
        parts = [partitioned.hot, *partitioned.main_parts]
        for part, reference in zip(parts, routed_reference(rows)):
            assert state(part) == state(reference)

    @settings(max_examples=30, deadline=None)
    @given(batches)
    def test_from_table_and_to_stored_table_move_the_loaded_rows(self, rows):
        source = StoredTable(SCHEMA, Store.COLUMN)
        load_rows(source, rows)
        partitioned = PartitionedTable.from_table(source, PARTITIONING)
        direct = PartitionedTable(SCHEMA, PARTITIONING)
        load_rows(direct, rows)
        for moved, loaded in zip(
            [partitioned.hot, *partitioned.main_parts], [direct.hot, *direct.main_parts]
        ):
            assert state(moved) == state(loaded)
        collapsed = direct.to_stored_table(Store.COLUMN)
        assert sorted(map(repr, collapsed.all_rows())) == sorted(
            map(repr, source.all_rows())
        )

    def test_primary_key_distinct_count_from_the_index(self):
        rows = [{"id": i * 5, "v": i % 3, "f": None, "s": "x", "b": True}
                for i in range(50)]
        indexed = StoredTable(SCHEMA, Store.ROW)
        plain = StoredTable(SCHEMA, Store.ROW, backend=RowStoreTable(SCHEMA, False))
        for table in (indexed, plain):
            load_rows(table, rows)
        assert (compute_table_statistics(indexed).fingerprint
                == compute_table_statistics(plain).fingerprint)

    @pytest.mark.parametrize("checkpoint", [False, True], ids=["replay", "snapshot"])
    def test_recovery_round_trips_the_load(self, tmp_path, checkpoint):
        path = str(tmp_path / "db.wal")
        rows = [{"id": i, "v": i % 4 or None, "f": i / 8 if i % 5 else NAN,
                 "s": f"s{i % 3}\x00" if i % 2 else None, "b": i % 2 == 0}
                for i in range(200)]
        session = connect(wal_path=path)
        for name, store in (("r", Store.ROW), ("c", Store.COLUMN), ("p", Store.COLUMN)):
            session.create_table(SCHEMA.subset(SCHEMA.column_names, name), store)
        session.apply_partitioning("p", PARTITIONING)
        for name in ("r", "c", "p"):
            session.load_rows(name, rows)
        live = {name: repr(session.database.table_object(name).all_rows())
                for name in ("r", "c", "p")}
        if checkpoint:
            session.checkpoint()
        session.close()
        recovered, report = recover(path)
        assert report.replay_errors == []
        for name in ("r", "c", "p"):
            assert repr(recovered.database.table_object(name).all_rows()) == live[name]
        recovered.close()


# -- atomic loads ----------------------------------------------------------------------

KEYED = TableSchema.build(
    "t", [("id", DataType.INTEGER), ("v", DataType.INTEGER)], primary_key=["id"]
)
LAYOUTS = {
    "row": (Store.ROW, None),
    "column": (Store.COLUMN, None),
    "partitioned": (Store.COLUMN, TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=Comparison("v", CompareOp.GE, 2)),
        vertical=VerticalPartitionSpec(row_store_columns=("v",), column_store_columns=()),
    )),
}


def keyed_session(path, layout):
    store, partitioning = LAYOUTS[layout]
    session = connect(wal_path=path)
    session.create_table(KEYED, store)
    if partitioning is not None:
        session.apply_partitioning("t", partitioning)
    return session


def contents(session):
    return sorted(
        (row["id"], row["v"]) for row in session.sql("SELECT id, v FROM t").rows
    )


class TestAtomicLoads:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_a_failed_load_changes_nothing_and_recovers_alike(self, tmp_path, layout):
        path = str(tmp_path / "db.wal")
        session = keyed_session(path, layout)
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            session.load_rows("t", [{"id": 1, "v": 1}, {"id": 2, "v": 2},
                                    {"id": 1, "v": 3}])
        assert contents(session) == []
        session.sql("INSERT INTO t (id, v) VALUES (2, 9)")
        live = contents(session)
        assert live == [(2, 9)]
        session.close()
        recovered, report = recover(path)
        assert report.replay_errors == []
        assert contents(recovered) == live
        recovered.close()

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_a_key_already_loaded_fails_the_whole_batch(self, tmp_path, layout):
        session = keyed_session(str(tmp_path / "db.wal"), layout)
        session.load_rows("t", [{"id": 1, "v": 1}, {"id": 5, "v": 3}])
        with pytest.raises(ExecutionError, match="duplicate primary key 5 "):
            session.load_rows("t", [{"id": 2, "v": 2}, {"id": 5, "v": 0}])
        assert contents(session) == [(1, 1), (5, 3)]
        session.close()

    def test_the_hot_partitions_keys_are_checked_before_main_loads(self):
        # The duplicate routes to the hot partition, which loads first: main
        # must not have taken its share either.
        table = PartitionedTable(KEYED, LAYOUTS["partitioned"][1])
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            load_rows(table, [{"id": 1, "v": 0}, {"id": 7, "v": 5}, {"id": 7, "v": 6}])
        assert table.num_rows == 0
        assert [part.num_rows for part in table.main_parts] == [0, 0]


# -- schema errors ---------------------------------------------------------------------


class TestSchemaErrors:
    @pytest.mark.parametrize("store", [Store.ROW, Store.COLUMN])
    @pytest.mark.parametrize("rows, message", [
        ([{"id": 1, "v": 2}, {"v": 3}],
         "row for table 't' is missing required column 'id'"),
        ([{"id": 1, "v": 2}, {"id": None, "v": 3}],
         "row for table 't' is missing required column 'id'"),
        ([{"id": 1, "v": 2}, {"id": 2, "v": 3, "w": 4, "a": 0}],
         "row for table 't' has unknown columns: ['a', 'w']"),
        ([{"id": 1, "v": "x"}],
         "value 'x' is not valid for data type integer"),
    ], ids=["missing", "none", "unknown", "uncoercible"])
    def test_messages_are_unchanged_and_nothing_loads(self, store, rows, message):
        table = StoredTable(KEYED, store)
        with pytest.raises(SchemaError) as raised:
            load_rows(table, rows)
        assert str(raised.value) == message
        assert table.num_rows == 0

    def test_absent_nullable_cells_load_as_null(self):
        table = StoredTable(SCHEMA, Store.COLUMN)
        load_rows(table, [{"id": 1, "b": True}, {"id": 2, "v": 4, "b": False}])
        assert table.column_values("v") == [None, 4]
