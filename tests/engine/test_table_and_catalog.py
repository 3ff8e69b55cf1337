"""Tests for StoredTable (store conversion), statistics and the catalog."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.partitioning import TablePartitioning, VerticalPartitionSpec
from repro.engine.schema import TableSchema
from repro.engine.statistics import (
    compute_table_statistics,
    statistics_from_schema,
)
from repro.engine.table import StoredTable, load_rows
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.errors import CatalogError


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema.build(
        "inventory",
        [
            ("id", DataType.INTEGER),
            ("warehouse", DataType.VARCHAR),
            ("amount", DataType.INTEGER),
        ],
        primary_key=["id"],
    )


@pytest.fixture
def rows():
    return [
        {"id": i, "warehouse": f"w{i % 3}", "amount": i * 2} for i in range(50)
    ]


class TestStoredTable:
    def test_conversion_round_trip_preserves_rows(self, schema, rows):
        table = StoredTable(schema, Store.ROW)
        load_rows(table, rows)
        original = table.all_rows()
        table.convert_to(Store.COLUMN)
        assert table.store is Store.COLUMN
        assert table.all_rows() == original
        table.convert_to(Store.ROW)
        assert table.store is Store.ROW
        assert table.all_rows() == original

    def test_conversion_charges_layout_conversion(self, schema, rows):
        table = StoredTable(schema, Store.ROW)
        load_rows(table, rows)
        accountant = CostAccountant()
        table.convert_to(Store.COLUMN, accountant)
        assert accountant.snapshot()["layout_conversion"] == pytest.approx(
            50 * schema.num_columns * 70.0
        )

    def test_conversion_to_same_store_is_noop(self, schema, rows):
        table = StoredTable(schema, Store.ROW)
        load_rows(table, rows)
        accountant = CostAccountant()
        table.convert_to(Store.ROW, accountant)
        assert accountant.snapshot() == {}


class TestStatistics:
    def test_compute_statistics_from_table(self, schema, rows):
        table = StoredTable(schema, Store.COLUMN)
        load_rows(table, rows)
        statistics = compute_table_statistics(table)
        assert statistics.num_rows == 50
        assert statistics.column("warehouse").num_distinct == 3
        assert statistics.column("id").min_value == 0
        assert statistics.column("id").max_value == 49
        assert 0 < statistics.compression_rate <= 1.0

    def test_statistics_from_schema_defaults(self, schema):
        statistics = statistics_from_schema(schema, num_rows=10_000)
        assert statistics.num_rows == 10_000
        assert statistics.column("id").num_distinct == 10_000  # primary key
        assert statistics.column("warehouse").num_distinct == 1_000  # default cap

    def test_scaled_statistics(self, schema, rows):
        table = StoredTable(schema, Store.ROW)
        load_rows(table, rows)
        statistics = compute_table_statistics(table)
        scaled = statistics.scaled(10)
        assert scaled.num_rows == 10
        assert scaled.column("id").num_distinct == 10

    def test_code_bytes_estimate_positive(self, schema, rows):
        table = StoredTable(schema, Store.COLUMN)
        load_rows(table, rows)
        statistics = compute_table_statistics(table)
        assert statistics.column_code_bytes("warehouse") == 50  # one byte per code


class TestCatalog:
    def test_register_and_lookup(self, schema):
        catalog = Catalog()
        catalog.register_table(schema, Store.ROW)
        assert catalog.has_table("inventory")
        assert catalog.store_of("inventory") is Store.ROW
        assert catalog.table_names() == ["inventory"]

    def test_duplicate_registration_rejected(self, schema):
        catalog = Catalog()
        catalog.register_table(schema)
        with pytest.raises(CatalogError):
            catalog.register_table(schema)

    def test_unknown_table_rejected(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.entry("missing")
        with pytest.raises(CatalogError):
            catalog.drop_table("missing")

    def test_set_store_clears_partitioning(self, schema):
        catalog = Catalog()
        catalog.register_table(schema, Store.ROW)
        partitioning = TablePartitioning(
            vertical=VerticalPartitionSpec(("warehouse",), ("amount",))
        )
        catalog.set_partitioning("inventory", partitioning)
        assert catalog.entry("inventory").is_partitioned
        catalog.set_store("inventory", Store.COLUMN)
        assert not catalog.entry("inventory").is_partitioned
        assert catalog.store_of("inventory") is Store.COLUMN

    def test_describe_mentions_layout(self, schema):
        catalog = Catalog()
        catalog.register_table(schema, Store.COLUMN)
        assert "column store" in catalog.describe()

    def test_statistics_default_when_absent(self, schema):
        catalog = Catalog()
        catalog.register_table(schema)
        statistics = catalog.statistics_of("inventory")
        assert statistics.num_rows == 0
