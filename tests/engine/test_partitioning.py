"""Tests for horizontal/vertical partitioning specs and PartitionedTable."""

import pytest

from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    PartitionedTable,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import TableSchema
from repro.engine.table import StoredTable, load_rows
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.errors import PartitioningError
from repro.query.predicates import ge


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema.build(
        "orders",
        [
            ("id", DataType.INTEGER),
            ("amount", DataType.DOUBLE),
            ("region", DataType.VARCHAR),
            ("status", DataType.VARCHAR),
        ],
        primary_key=["id"],
    )


@pytest.fixture
def rows():
    return [
        {"id": i, "amount": i * 1.0, "region": f"r{i % 4}", "status": "open"}
        for i in range(100)
    ]


def both_partitioning() -> TablePartitioning:
    return TablePartitioning(
        horizontal=HorizontalPartitionSpec(predicate=ge("id", 80)),
        vertical=VerticalPartitionSpec(
            row_store_columns=("status",), column_store_columns=("amount", "region")
        ),
    )


class TestSpecs:
    def test_vertical_spec_rejects_overlap(self):
        with pytest.raises(PartitioningError):
            VerticalPartitionSpec(("a", "b"), ("b", "c"))

    def test_vertical_spec_validation(self, schema):
        spec = VerticalPartitionSpec(("status",), ("amount", "region"))
        spec.validate(schema)
        with pytest.raises(PartitioningError):
            VerticalPartitionSpec(("status",), ("amount",)).validate(schema)  # missing region
        with pytest.raises(PartitioningError):
            VerticalPartitionSpec(("status", "id"), ("amount", "region")).validate(schema)
        with pytest.raises(PartitioningError):
            VerticalPartitionSpec(("status", "missing"), ("amount", "region")).validate(schema)

    def test_partitioning_requires_some_spec(self):
        with pytest.raises(PartitioningError):
            TablePartitioning()

    def test_horizontal_unknown_column_rejected(self, schema):
        partitioning = TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("missing", 1))
        )
        with pytest.raises(PartitioningError):
            partitioning.validate(schema)

    def test_store_of_vertical_columns(self, schema):
        spec = VerticalPartitionSpec(("status",), ("amount", "region"))
        assert spec.store_of("status", schema) is Store.ROW
        assert spec.store_of("amount", schema) is Store.COLUMN
        assert spec.store_of("id", schema) is Store.COLUMN

    def test_describe_mentions_both_schemes(self, schema):
        description = both_partitioning().describe()
        assert "horizontal" in description
        assert "vertical" in description


class TestPartitionedTable:
    def test_from_table_routes_rows(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        assert partitioned.num_rows == 100
        assert partitioned.hot.num_rows == 20      # id >= 80
        assert partitioned.main_num_rows == 80
        assert partitioned.has_vertical_split
        assert partitioned.vertical_row_part.schema.column_names == ("id", "status")
        assert set(partitioned.vertical_col_part.schema.column_names) == {
            "id", "amount", "region"
        }

    def test_all_rows_round_trip(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        reconstructed = sorted(partitioned.all_rows(), key=lambda row: row["id"])
        assert reconstructed == rows

    def test_inserts_route_to_hot_partition(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        partitioned.insert_rows(
            [{"id": 500, "amount": 1.0, "region": "r0", "status": "new"}]
        )
        assert partitioned.hot.num_rows == 21
        assert partitioned.main_num_rows == 80

    def test_vertical_only_insert_splits_columns(self, schema, rows):
        partitioning = TablePartitioning(
            vertical=VerticalPartitionSpec(("status",), ("amount", "region"))
        )
        partitioned = PartitionedTable(schema, partitioning)
        partitioned.insert_rows(
            [{"id": 1, "amount": 2.0, "region": "r1", "status": "open"}]
        )
        assert partitioned.num_rows == 1
        assert partitioned.vertical_row_part.num_rows == 1
        assert partitioned.vertical_col_part.num_rows == 1

    def test_migrate_hot_to_main(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        tables = []
        for _ in range(2):
            table = PartitionedTable.from_table(base, both_partitioning())
            table.insert_rows(
                [{"id": 500, "amount": 0.25, "region": "zz", "status": "new"}]
            )
            tables.append(table)
        partitioned, reference = tables
        accountant = CostAccountant()
        moved = partitioned.migrate_hot_to_main(accountant)
        assert moved == 21
        assert partitioned.hot.num_rows == 0
        assert partitioned.main_num_rows == 101
        assert partitioned.num_rows == 101
        expected = CostAccountant()
        expected.charge_layout_conversion(21 * schema.num_columns)
        assert accountant.snapshot() == expected.snapshot()
        # The row-dict route — append the hot rows to every main part, then
        # merge — reaches the same codes and dictionaries.
        reference._insert_into_main(reference.hot.all_rows(), None)
        reference.merge_delta()
        for part, twin in zip(partitioned.main_parts, reference.main_parts):
            assert part.all_rows() == twin.all_rows()
            if part.store is Store.COLUMN:
                for name in part.schema.column_names:
                    got = part.backend.compressed_column(name)
                    want = twin.backend.compressed_column(name)
                    assert got.codes.tolist() == want.codes.tolist(), name
                    assert list(got.dictionary.values) == list(want.dictionary.values)

    def test_to_stored_table_collapses_layout(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        collapsed = partitioned.to_stored_table(Store.COLUMN)
        assert collapsed.store is Store.COLUMN
        assert sorted(collapsed.all_rows(), key=lambda r: r["id"]) == rows

    def test_parts_for_columns_routing(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        assert partitioned.main_parts_for_columns(["amount"]) == [
            partitioned.vertical_col_part
        ]
        assert partitioned.main_parts_for_columns(["status"]) == [
            partitioned.vertical_row_part
        ]
        assert len(partitioned.main_parts_for_columns(["amount", "status"])) == 2
        # Key-only access goes to the row part (indexed point lookups).
        assert partitioned.main_parts_for_columns(["id"]) == [
            partitioned.vertical_row_part
        ]

    def test_statistics_helpers(self, schema, rows):
        base = StoredTable(schema, Store.ROW)
        load_rows(base, rows)
        partitioned = PartitionedTable.from_table(base, both_partitioning())
        assert partitioned.column_distinct_count("region") == 4
        assert partitioned.column_min_max("id") == (0, 99)
        assert 0 < partitioned.compression_rate() <= 1.0
