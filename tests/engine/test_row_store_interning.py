"""The row store's per-table string interning/factorization cache.

Group-by over a row-store string column used to ``np.unique``-sort the
decoded strings on every query (~20 ms at 100k rows); the cache factorizes
once per table state and serves ``(codes, dictionary)`` pairs to the
executor.  Results and cost charges must be indistinguishable from the
uncached path.
"""

import numpy as np
import pytest

from repro.engine.batch import EncodedColumn
from repro.engine.database import HybridDatabase
from repro.engine.row_store import InternedDictionary, RowStoreTable
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, insert, update


SCHEMA = TableSchema(
    "t",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("tag", DataType.VARCHAR),
        Column("value", DataType.DOUBLE),
        Column("note", DataType.VARCHAR, nullable=True),
    ),
)


def build_table(num_rows=50):
    table = RowStoreTable(SCHEMA)
    load_rows(
        table,
        ({"id": i, "tag": f"tag_{i % 5}", "value": float(i), "note": None}
         for i in range(num_rows)),
    )
    return table


class TestColumnInterned:
    def test_string_column_interns(self):
        table = build_table()
        interned = table.column_interned("tag")
        assert isinstance(interned, EncodedColumn)
        assert isinstance(interned.dictionary, InternedDictionary)
        assert interned.dictionary.nan_code is None
        # Sorted dictionary, round-trip identical to the raw values.
        values = interned.dictionary.values_array
        assert list(values) == sorted(values)
        assert interned.values.tolist() == [f"tag_{i % 5}" for i in range(50)]

    def test_factorization_is_cached(self):
        table = build_table()
        first = table.column_interned("tag")
        second = table.column_interned("tag")
        assert first.codes is second.codes
        assert first.dictionary is second.dictionary

    def test_nullable_column_does_not_intern(self):
        table = build_table()
        assert table.column_interned("note") is None

    def test_numeric_column_does_not_intern(self):
        table = build_table()
        assert table.column_interned("value") is None
        assert table.column_interned("id") is None

    def test_empty_table_does_not_intern(self):
        assert RowStoreTable(SCHEMA).column_interned("tag") is None


class TestInvalidation:
    def test_update_invalidates(self):
        table = build_table()
        before = table.column_interned("tag")
        table.update_rows([0], {"tag": "zzz"})
        after = table.column_interned("tag")
        assert after.dictionary is not before.dictionary
        assert after.values[0] == "zzz"

    def test_delete_invalidates(self):
        table = build_table()
        table.column_interned("tag")
        table.delete_rows([0, 1])
        after = table.column_interned("tag")
        assert len(after) == 48

    def test_append_of_known_values_extends_the_codes(self):
        table = build_table()
        before = table.column_interned("tag")
        table.insert_rows([{"id": 1000, "tag": "tag_0", "value": 1.0, "note": None}])
        after = table.column_interned("tag")
        assert after.dictionary is before.dictionary  # suffix-encoded, no rebuild
        assert len(after) == 51
        assert after.values[-1] == "tag_0"

    def test_append_of_new_value_rebuilds(self):
        table = build_table()
        before = table.column_interned("tag")
        table.insert_rows([{"id": 1000, "tag": "brand_new", "value": 1.0,
                            "note": None}])
        after = table.column_interned("tag")
        assert after.dictionary is not before.dictionary
        assert "brand_new" in after.dictionary.values_array


class TestThroughTheExecutor:
    @pytest.fixture
    def databases(self, sales_schema, sales_rows):
        pair = {}
        for store in (Store.ROW, Store.COLUMN):
            database = HybridDatabase()
            database.create_table(sales_schema, store)
            database.load_rows("sales", sales_rows)
            pair[store] = database
        return pair

    def test_group_by_results_match_column_store(self, databases):
        query = (
            aggregate("sales").sum("revenue").count().group_by("region").build()
        )
        row_result = databases[Store.ROW].execute(query)
        column_result = databases[Store.COLUMN].execute(query)
        key = lambda row: row["region"]
        assert sorted(row_result.rows, key=key) == sorted(
            column_result.rows, key=key
        )

    def test_warm_cache_charges_identical_costs(self, databases):
        query = aggregate("sales").sum("revenue").group_by("region").build()
        database = databases[Store.ROW]
        cold = database.execute(query)
        warm = database.execute(query)
        assert warm.cost.components == cold.cost.components
        # Interleaved DML invalidates and re-factorizes — still identical.
        database.execute(update("sales", {"region": "region_x"},
                                predicate=None))
        after_dml = database.execute(query)
        assert after_dml.cost.components == cold.cost.components

    def test_multi_key_group_by(self, databases):
        query = (
            aggregate("sales").count().group_by("region", "status").build()
        )
        row_rows = databases[Store.ROW].execute(query).rows
        column_rows = databases[Store.COLUMN].execute(query).rows
        key = lambda row: (row["region"], row["status"])
        assert sorted(row_rows, key=key) == sorted(column_rows, key=key)
