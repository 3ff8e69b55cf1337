"""Materialized-view engine tests: refresh, catalog, freshness.

The refresh contract under test: a view's rows are stamped with per-unit
zone-epoch tokens; DML only bumps epochs (maintenance is off the DML path),
and a stale view is brought up to date by executing its query through the
engine's executor (``HybridDatabase.materialize``) — so a refreshed view
always equals the recompute-per-query reference, and bills what it bills.
"""

import math

import pytest

from repro.engine.database import HybridDatabase
from repro.engine.matview import (
    REFRESH_FULL,
    REFRESH_INITIAL,
    REFRESH_NOOP,
    MaterializedView,
    matview_disabled,
    matview_enabled,
)
from repro.engine.partitioning import HorizontalPartitionSpec, TablePartitioning
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.errors import CatalogError
from repro.query.builder import aggregate, insert, select, update
from repro.query.predicates import CompareOp, Comparison

pytestmark = pytest.mark.matview

SCHEMA = TableSchema(
    "facts",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("region", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE),
        Column("quantity", DataType.INTEGER),
    ),
)


def make_rows(n, start=0):
    return [
        {
            "id": start + i,
            "region": f"r{i % 3}",
            "amount": float(i),
            "quantity": i % 5,
        }
        for i in range(n)
    ]


def build_database(store=Store.COLUMN, num_rows=60):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=store)
    database.load_rows("facts", make_rows(num_rows))
    return database


def grouped_query():
    return aggregate("facts").sum("amount").count().group_by("region").build()


def sorted_rows(rows):
    return sorted(rows, key=lambda row: str(sorted(row.items())))


class TestRefresh:
    def test_initial_then_noop(self):
        database = build_database()
        view = MaterializedView("mv", grouped_query())
        table = database.table_object("facts")

        result = database.materialize(view)
        assert result.kind == REFRESH_INITIAL
        assert view.is_fresh(table)
        assert sorted_rows(view.result_rows) == sorted_rows(
            database.execute(grouped_query()).rows
        )

        again = database.materialize(view)
        assert again.kind == REFRESH_NOOP
        assert again.cost.components == {}

    @pytest.mark.parametrize("store", [Store.ROW, Store.COLUMN])
    def test_refresh_tracks_dml(self, store):
        database = build_database(store=store)
        view = MaterializedView("mv", grouped_query())
        table = database.table_object("facts")
        database.materialize(view)

        database.execute(insert("facts", make_rows(5, start=1000)))
        assert not view.is_fresh(table)
        database.materialize(view)
        assert view.is_fresh(table)
        assert sorted_rows(view.result_rows) == sorted_rows(
            database.execute(grouped_query()).rows
        )

        database.execute(
            update("facts", {"amount": 999.0},
                   Comparison("quantity", CompareOp.EQ, 1))
        )
        assert not view.is_fresh(table)
        database.materialize(view)
        assert sorted_rows(view.result_rows) == sorted_rows(
            database.execute(grouped_query()).rows
        )

    def test_hot_only_dml_stales_the_view(self):
        """Hot-only DML makes the view stale; the refresh re-runs the query."""
        database = build_database(store=Store.COLUMN, num_rows=80)
        database.apply_partitioning(
            "facts",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(
                    predicate=Comparison("id", CompareOp.GE, 70)
                )
            ),
        )
        table = database.table_object("facts")
        view = MaterializedView("mv", grouped_query())
        database.materialize(view)

        # Inserts route to the hot partition; main's epochs stay put.
        database.execute(insert("facts", make_rows(4, start=2000)))
        assert not view.is_fresh(table)
        result = database.materialize(view)
        assert result.kind == REFRESH_FULL
        assert view.is_fresh(table)
        assert sorted_rows(view.result_rows) == sorted_rows(
            database.execute(grouped_query()).rows
        )

    def test_nan_group_key_refreshes_to_the_reference(self):
        """A NaN among the group keys survives the refresh as one group."""
        database = build_database(num_rows=20)
        database.execute(
            insert("facts", [
                {"id": 500, "region": "rX", "amount": float("nan"), "quantity": 1},
            ])
        )
        query = (
            aggregate("facts").count().sum("quantity").group_by("amount").build()
        )
        table = database.table_object("facts")
        view = MaterializedView("mv", query)
        assert database.materialize(view).kind == REFRESH_INITIAL

        database.execute(insert("facts", make_rows(3, start=600)))
        result = database.materialize(view)
        assert result.kind == REFRESH_FULL

        reference = database.execute(query).rows
        assert len(view.result_rows) == len(reference)
        nan_rows = [
            row for row in view.result_rows
            if isinstance(row["amount"], float) and math.isnan(row["amount"])
        ]
        assert len(nan_rows) == 1

    def test_refresh_bills_the_query_execution(self):
        """A refresh's bill is the bill of executing the view's query."""
        database = build_database(store=Store.COLUMN, num_rows=200)
        database.apply_partitioning(
            "facts",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(
                    predicate=Comparison("id", CompareOp.GE, 190)
                )
            ),
        )
        view = MaterializedView("mv", grouped_query())
        initial = database.materialize(view)
        assert initial.cost.components == (
            database.execute(grouped_query()).cost.components
        )

        database.execute(insert("facts", make_rows(2, start=3000)))
        refreshed = database.materialize(view)
        assert refreshed.execution.agg_strategies
        assert refreshed.cost.components == (
            database.execute(grouped_query()).cost.components
        )


class TestViewValidation:
    def test_rejects_non_aggregations(self):
        with pytest.raises(CatalogError):
            MaterializedView("mv", select("facts").build())

    def test_rejects_joins(self):
        dim = TableSchema.build(
            "dims", [("k", DataType.INTEGER), ("v", DataType.VARCHAR)],
            primary_key=["k"],
        )
        assert dim is not None
        query = (
            aggregate("facts").sum("amount")
            .join("dims", "quantity", "k").build()
        )
        with pytest.raises(CatalogError):
            MaterializedView("mv", query)

    def test_rejects_placeholders(self):
        from repro.query.parser import parse

        query = parse("SELECT sum(amount) FROM facts WHERE quantity = ?")
        with pytest.raises(CatalogError):
            MaterializedView("mv", query)


class TestDatabaseViewDDL:
    def test_create_view_materializes_immediately(self):
        database = build_database()
        view = database.create_view("mv", grouped_query())
        assert database.view_names() == ["mv"]
        assert view.is_fresh(database.table_object("facts"))
        assert database.catalog.has_view("mv")
        assert "mv" in database.describe()

    def test_duplicate_name_and_fingerprint_rejected(self):
        database = build_database()
        database.create_view("mv", grouped_query())
        with pytest.raises(CatalogError):
            database.create_view("mv", aggregate("facts").count().build())
        with pytest.raises(CatalogError):
            database.create_view("other", grouped_query())

    def test_matching_view_by_fingerprint(self):
        database = build_database()
        created = database.create_view("mv", grouped_query())
        assert database.matching_view(grouped_query()) is created
        assert database.matching_view(aggregate("facts").count().build()) is None
        assert database.matching_view(select("facts").build()) is None

    def test_drop_table_cascades_views(self):
        database = build_database()
        database.create_view("mv", grouped_query())
        database.drop_table("facts")
        assert database.view_names() == []
        assert not database.catalog.has_view("mv")

    def test_view_catalog_version_bumps(self):
        database = build_database()
        catalog = database.catalog
        version = catalog.view_catalog_version
        database.create_view("mv", grouped_query())
        assert catalog.view_catalog_version > version

        version = catalog.view_catalog_version
        database.refresh_view("mv")  # explicit refresh is a catalog event
        assert catalog.view_catalog_version > version

        version = catalog.view_catalog_version
        database.drop_view("mv")
        assert catalog.view_catalog_version > version

    def test_refresh_view_reports_staleness(self):
        database = build_database()
        database.create_view("mv", grouped_query())
        assert database.refresh_view("mv").kind == REFRESH_NOOP
        database.execute(insert("facts", make_rows(2, start=700)))
        assert database.refresh_view("mv").kind != REFRESH_NOOP


def test_toggle_nests_and_restores():
    assert matview_enabled()
    with matview_disabled():
        assert not matview_enabled()
        with matview_disabled():
            assert not matview_enabled()
        assert not matview_enabled()
    assert matview_enabled()
