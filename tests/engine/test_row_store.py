"""Tests for the row store backend."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.errors import ExecutionError
from repro.query.predicates import between, eq, ge, gt


@pytest.fixture
def schema() -> TableSchema:
    return TableSchema.build(
        "items",
        [
            ("id", DataType.INTEGER),
            ("name", DataType.VARCHAR),
            ("price", DataType.DOUBLE),
            ("stock", DataType.INTEGER),
        ],
        primary_key=["id"],
    )


@pytest.fixture
def table(schema) -> RowStoreTable:
    store = RowStoreTable(schema)
    load_rows(
        store,
        ({"id": i, "name": f"item_{i % 5}", "price": i * 1.5, "stock": i % 10}
         for i in range(100)),
    )
    return store


class TestBasics:
    def test_store_identity(self, table):
        assert table.store is Store.ROW

    def test_num_rows_and_memory(self, table):
        assert table.num_rows == 100
        assert table.memory_bytes == 100 * table.row_width_bytes

    def test_no_compression(self, table):
        assert table.compression_rate() == 1.0
        assert table.compression_rate("price") == 1.0

    def test_primary_key_is_indexed_by_default(self, table):
        assert table.has_index("id")
        assert not table.has_index("price")


class TestInserts:
    def test_insert_appends_rows(self, table):
        positions = table.insert_rows([{"id": 200, "name": "new", "price": 1.0, "stock": 1}])
        assert positions == [100]
        assert table.num_rows == 101

    def test_duplicate_primary_key_rejected(self, table):
        with pytest.raises(ExecutionError):
            table.insert_rows([{"id": 5, "name": "dup", "price": 1.0, "stock": 1}])

    def test_insert_charges_append_and_index_costs(self, schema):
        table = RowStoreTable(schema)
        accountant = CostAccountant()
        table.insert_rows([{"id": 1, "name": "a", "price": 1.0, "stock": 1}], accountant)
        components = accountant.snapshot()
        assert components.get("row_append", 0) > 0
        assert components.get("index_insert", 0) > 0


class TestFilterPositions:
    def test_none_predicate_returns_none(self, table):
        assert table.filter_positions(None) is None

    def test_equality_on_primary_key_uses_index(self, table):
        accountant = CostAccountant()
        positions = table.filter_positions(eq("id", 7), accountant)
        assert list(positions) == [7]
        assert "row_scan" not in accountant.snapshot()
        assert accountant.snapshot().get("index_probe", 0) > 0

    def test_range_on_primary_key_uses_sorted_index(self, table):
        accountant = CostAccountant()
        positions = table.filter_positions(between("id", 10, 14), accountant)
        assert sorted(int(p) for p in positions) == [10, 11, 12, 13, 14]
        assert "row_scan" not in accountant.snapshot()

    def test_open_range_on_primary_key(self, table):
        positions = table.filter_positions(ge("id", 95))
        assert sorted(int(p) for p in positions) == [95, 96, 97, 98, 99]
        positions = table.filter_positions(gt("id", 97))
        assert sorted(int(p) for p in positions) == [98, 99]

    def test_unindexed_predicate_scans_full_tuples(self, table):
        accountant = CostAccountant()
        positions = table.filter_positions(eq("name", "item_2"), accountant)
        assert len(positions) == 20
        assert accountant.snapshot().get("row_scan", 0) == pytest.approx(
            100 * table.row_width_bytes * 0.5
        )


class TestReads:
    def test_fetch_all_rows(self, table):
        rows = table.fetch_rows(None)
        assert len(rows) == 100
        assert rows[3]["name"] == "item_3"

    def test_fetch_projected_rows(self, table):
        rows = table.fetch_rows([1, 2], columns=["id", "price"])
        assert rows == [{"id": 1, "price": 1.5}, {"id": 2, "price": 3.0}]

    def test_column_values_full_and_positions(self, table):
        assert table.column_values("stock", [10, 11]) == [0, 1]
        assert len(table.column_values("stock")) == 100

    def test_scan_columns_single_pass_charges_one_scan(self, table):
        accountant = CostAccountant()
        values = table.scan_columns(["price", "stock"], None, accountant)
        assert len(values["price"]) == 100
        assert accountant.snapshot()["row_scan"] == pytest.approx(
            100 * table.row_width_bytes * 0.5
        )


class TestUpdatesAndDeletes:
    def test_update_changes_values_and_maintains_index(self, table):
        count = table.update_rows([5], {"price": 99.0, "id": 500})
        assert count == 1
        assert table.fetch_rows([5], ["id", "price"]) == [{"id": 500, "price": 99.0}]
        assert list(table.filter_positions(eq("id", 500))) == [5]
        assert list(table.filter_positions(eq("id", 5))) == []

    def test_update_empty_assignments_is_noop(self, table):
        assert table.update_rows([1], {}) == 0

    def test_delete_removes_rows_and_rebuilds_indexes(self, table):
        removed = table.delete_rows([0, 1, 2])
        assert removed == 3
        assert table.num_rows == 97
        # Former row id=3 is now at position 0 and still findable via the index.
        assert list(table.filter_positions(eq("id", 3))) == [0]

    def test_statistics_helpers(self, table):
        assert table.column_distinct_count("name") == 5
        assert table.column_min_max("id") == (0, 99)


# -- zone synopses under DML -------------------------------------------------------------


ZONE_SCHEMA = TableSchema.build(
    "zoned",
    [
        Column("id", DataType.INTEGER),
        Column("name", DataType.VARCHAR, nullable=True),
        Column("price", DataType.DOUBLE, nullable=True),
        Column("stock", DataType.INTEGER, nullable=True),
    ],
    primary_key=["id"],
)
ZONE_VALUES = {
    "name": st.sampled_from([None, "a", "b", "m", "z"]),
    "price": st.sampled_from([None, float("nan"), -3.5, 0.0, 2.25, 99.0]),
    "stock": st.sampled_from([None, -1, 0, 3, 7, 50]),
}


def zones_from_scratch(table: RowStoreTable) -> dict:
    fresh = RowStoreTable(table.schema)
    load_rows(fresh, table.all_rows())
    return {name: fresh.column_zone(name) for name in table.schema.column_names}


class TestZoneExactnessUnderDml:
    """``column_zone`` is exact after every mutation, however it got there.

    Inserts widen the fresh synopses, an update carries the synopses of the
    columns it does not assign to the new epoch and drops the assigned ones,
    a delete drops everything — and zones answer zero-scan ``MIN``/``MAX``,
    so each must equal a recomputation from the rows: min, max, NULL count,
    NaN presence, row count.
    """

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_interleavings_match_recomputation(self, data):
        table = RowStoreTable(ZONE_SCHEMA)
        next_id = 0
        columns = ZONE_SCHEMA.column_names
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            kind = data.draw(
                st.sampled_from(["insert", "update", "update_extreme", "delete"]),
                label="kind",
            )
            if kind == "insert" or table.num_rows == 0:
                rows = [
                    {"id": next_id + i,
                     **{name: data.draw(values) for name, values in ZONE_VALUES.items()}}
                    for i in range(data.draw(st.integers(1, 4), label="rows"))
                ]
                next_id += len(rows)
                table.insert_rows(rows)
            elif kind == "delete":
                table.delete_rows(data.draw(
                    st.lists(st.integers(0, table.num_rows - 1), max_size=3),
                    label="doomed",
                ))
            else:
                assigned = data.draw(
                    st.lists(st.sampled_from(sorted(ZONE_VALUES)), min_size=1,
                             max_size=3, unique=True),
                    label="assigned",
                )
                assignments = {name: data.draw(ZONE_VALUES[name]) for name in assigned}
                if kind == "update_extreme":
                    # Overwrite the row holding the current min or max.
                    zone = table.column_zone(assigned[0])
                    values = table.column_values(assigned[0])
                    extreme = data.draw(st.sampled_from(
                        [zone.min_value, zone.max_value]
                    ))
                    positions = [values.index(extreme)] if zone.has_values else []
                else:
                    positions = data.draw(
                        st.lists(st.integers(0, table.num_rows - 1), max_size=3,
                                 unique=True),
                        label="positions",
                    )
                table.update_rows(positions, assignments)
            # Reading only some zones leaves the others stale for the next
            # step: fresh, stale and never-computed synopses all occur.
            expected = zones_from_scratch(table)
            for name in data.draw(st.lists(st.sampled_from(columns), unique=True),
                                  label="read"):
                assert table.column_zone(name) == expected[name], (kind, name)
        expected = zones_from_scratch(table)
        for name in columns:
            assert table.column_zone(name) == expected[name]

    def test_update_carries_the_zones_it_does_not_assign(self, table):
        """``UPDATE .. SET price`` then ``WHERE id = k``: no reduction over ``id``."""
        zones = {name: table.column_zone(name) for name in table.schema.column_names}
        scanned = []
        column_array = table._column_array
        table._column_array = lambda name: scanned.append(name) or column_array(name)

        assert table.update_rows([7], {"price": 1_000.0}) == 1
        assert list(table.filter_positions(eq("id", 7))) == [7]
        for name in ("id", "name", "stock"):
            assert table.column_zone(name) is zones[name]
        assert scanned == []
        # The assigned column is recomputed, not widened: exact either way.
        assert table.column_zone("price").max_value == 1_000.0
        assert table.update_rows([7], {"price": 1.0}) == 1
        assert table.column_zone("price").max_value == 99 * 1.5
        assert scanned == ["price", "price"]
