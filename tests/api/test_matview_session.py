"""Materialized views through the session: serving, EXPLAIN, advisor, caching.

The serving contract: a statement whose fingerprint matches a view is
answered from the materialized rows — after re-executing the view's query
through the plan's own paths if the base table changed, billed as that
execution plus one ``view_scan`` — and the rewrite is visible in ``EXPLAIN``
/ ``EXPLAIN ANALYZE``.  With ``matview_disabled()`` the same statement takes
the base path and charges bit-identically to a session that never had views.
Plan-cache keys carry the view-catalog version, so creating or dropping a
view re-plans cached statements instead of silently serving the pre-view
plan.
"""

import pytest

from repro.api import connect
from repro.core import OnlineAdvisorMonitor
from repro.engine import (
    HorizontalPartitionSpec,
    Store,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.context import scope
from repro.engine.matview import REFRESH_NOOP, matview_disabled
from repro.errors import CatalogError, QueryError, QueryTimeoutError
from repro.query.builder import aggregate
from repro.query.predicates import ge
from repro.testing.faults import FaultPlan, inject

pytestmark = pytest.mark.matview

SQL = "SELECT sum(revenue) FROM sales GROUP BY region"
INSERT = ("INSERT INTO sales (id, region, product, revenue, quantity, status) "
          "VALUES (50001, 'region_0', 1, 123.0, 2, 'open')")


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.COLUMN))


def sorted_rows(rows):
    return sorted(rows, key=lambda row: str(sorted(row.items())))


class TestViewServing:
    def test_served_rows_match_base(self, session):
        with matview_disabled():
            reference = session.sql(SQL)
        session.create_view("mv_sales", SQL)
        result = session.sql(SQL)
        assert result.view_hits == {"mv_sales": "served"}
        assert sorted_rows(result.rows) == sorted_rows(reference.rows)

    def test_disabled_toggle_is_bit_identical(self, session):
        plain = session.sql(SQL)
        session.create_view("mv_sales", SQL)
        with matview_disabled():
            result = session.sql(SQL)
        assert result.view_hits == {}
        assert sorted_rows(result.rows) == sorted_rows(plain.rows)
        assert result.cost.components == plain.cost.components

    def test_stale_view_refreshed_before_serving(self, session):
        session.create_view("mv_sales", SQL)
        session.sql(INSERT)
        result = session.sql(SQL)
        assert result.view_hits == {"mv_sales": "served after full refresh"}
        with matview_disabled():
            reference = session.sql(SQL)
        assert sorted_rows(result.rows) == sorted_rows(reference.rows)

    def test_serving_charges_view_scan_only(self, session):
        session.create_view("mv_sales", SQL)
        result = session.sql(SQL)
        assert set(result.cost.components) == {"query_overhead", "view_scan"}


def _partition_both_ways(session):
    session.apply_partitioning(
        "sales",
        TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("id", 900)),
            vertical=VerticalPartitionSpec(
                row_store_columns=("status", "product"),
                column_store_columns=("region", "revenue", "quantity"),
            ),
        ),
    )


@pytest.mark.parametrize("layout", ["row", "column", "partitioned"])
def test_stale_serve_bills_the_base_query_plus_one_view_scan(
        database_factory, layout):
    """The bill has one home: a stale serve is the statement's own execution.

    Component for component, ``cost(stale serve)`` is the cost of the same
    statement under ``matview_disabled()`` plus exactly one ``view_scan``.
    """
    store = Store.ROW if layout == "row" else Store.COLUMN
    session = connect(database=database_factory(store))
    if layout == "partitioned":
        _partition_both_ways(session)
    session.create_view("mv_sales", SQL)
    view_scan = session.sql(SQL).cost.components["view_scan"]

    session.sql(INSERT)  # lands in hot on the partitioned layout
    stale = session.sql(SQL)
    assert stale.view_hits == {"mv_sales": "served after full refresh"}
    with matview_disabled():
        base = session.sql(SQL)
    expected = dict(base.cost.components)
    expected["view_scan"] = view_scan
    assert stale.cost.components == expected
    if layout == "partitioned":
        assert "partition_overhead" in expected
    # ... and it carries that execution's telemetry, like the base run.
    assert stale.agg_strategies == base.agg_strategies
    assert stale.scan_stats == base.scan_stats


class TestExplainRendering:
    def test_explain_shows_rewrite(self, session):
        session.create_view("mv_sales", SQL)
        text = session.explain(SQL)
        assert "rewrite: materialized view mv_sales [view " in text

    def test_explain_analyze_shows_serving(self, session):
        session.create_view("mv_sales", SQL)
        text = session.explain(SQL, analyze=True)
        assert "materialized view:" in text
        assert "mv_sales" in text
        assert "served" in text

    def test_explain_analyze_of_a_stale_serve_shows_the_refresh(self, session):
        """A stale serve prints the tier and pruning of the execution it ran."""
        session.apply_partitioning(
            "sales",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(predicate=ge("id", 900))
            ),
        )
        session.create_view("mv_sales", SQL)
        fresh = session.explain(SQL, analyze=True)
        assert "aggregate pushdown:" not in fresh
        assert "partitions (scanned/skipped):" not in fresh

        session.sql(INSERT)
        with matview_disabled():
            base = session.explain(SQL, analyze=True)
        stale = session.explain(SQL, analyze=True)
        assert "served after full refresh" in stale

        def block_of(text, header):
            lines = text.splitlines()
            start = lines.index("  " + header)
            return lines[start:start + 2]

        for header in ("aggregate pushdown:", "partitions (scanned/skipped):"):
            assert block_of(stale, header) == block_of(base, header)

    def test_explain_without_view_is_unchanged(self, session):
        before = session.explain(SQL)
        assert "materialized view" not in before
        assert "rewrite:" not in before


class TestSessionCounters:
    def test_hits_misses_and_refresh_kinds(self, session):
        session.create_view("mv_sales", SQL)
        session.sql(SQL)
        session.sql(SQL)
        stats = session.stats()
        assert stats.view_rewrite_hits == 2
        assert stats.view_rewrite_misses == 0
        assert stats.view_full_refreshes == 0

        with matview_disabled():
            session.sql(SQL)
        assert session.stats().view_rewrite_misses == 1

        session.sql(INSERT)
        session.sql(SQL)
        stats = session.stats()
        assert stats.view_rewrite_hits == 3
        assert stats.view_full_refreshes == 1
        assert stats.view_incremental_refreshes == 0

    def test_hot_only_dml_refreshes_fully_on_partitioned_base(self, session):
        # Inserts route to the hot partition; the view goes stale all the
        # same and the next serve re-executes its query.
        session.apply_partitioning(
            "sales",
            TablePartitioning(
                horizontal=HorizontalPartitionSpec(predicate=ge("id", 900))
            ),
        )
        session.create_view("mv_sales", SQL)
        assert session.refresh_view("mv_sales").kind == REFRESH_NOOP
        session.sql(INSERT)
        before = session.stats().view_full_refreshes
        result = session.sql(SQL)
        assert result.view_hits == {"mv_sales": "served after full refresh"}
        stats = session.stats()
        assert stats.view_full_refreshes == before + 1
        assert stats.view_incremental_refreshes == 0
        with matview_disabled():
            reference = session.sql(SQL)
        assert sorted_rows(result.rows) == sorted_rows(reference.rows)
        assert session.sql(SQL).view_hits == {"mv_sales": "served"}


class TestPlanCacheInteraction:
    def test_create_view_invalidates_cached_plans(self, session):
        """Regression: a stale cache hit would bypass a freshly created view.

        The plan-cache key carries the view-catalog version; without it the
        second ``session.sql(SQL)`` below would reuse the pre-view plan (no
        rewrite recorded) and silently keep scanning the base table.
        """
        session.sql(SQL)
        session.sql(SQL)
        stats = session.stats()
        assert (stats.plan_cache_hits, stats.plan_cache_misses) == (1, 1)

        session.create_view("mv_sales", SQL)
        result = session.sql(SQL)
        assert result.view_hits == {"mv_sales": "served"}
        stats = session.stats()
        assert stats.plan_cache_misses == 2  # re-planned after the create

    def test_drop_view_invalidates_cached_plans(self, session):
        session.create_view("mv_sales", SQL)
        assert session.sql(SQL).view_hits != {}
        session.drop_view("mv_sales")
        result = session.sql(SQL)
        assert result.view_hits == {}
        assert session.stats().plan_cache_misses == 2

    def test_explicit_refresh_bumps_view_version(self, session):
        session.create_view("mv_sales", SQL)
        version = session.database.catalog.view_catalog_version
        session.refresh_view("mv_sales")
        assert session.database.catalog.view_catalog_version > version


class TestViewDDL:
    def test_views_listing_and_lookup(self, session):
        session.create_view("mv_sales", SQL)
        assert session.views() == ["mv_sales"]
        view = session.view("mv_sales")
        assert view.name == "mv_sales"
        assert view.table == "sales"
        session.drop_view("mv_sales")
        assert session.views() == []

    @pytest.mark.parametrize("failure", ["query_error", "timeout"])
    def test_failed_create_view_registers_nothing(self, session, failure):
        """Regression: a view whose first materialization fails never existed."""
        database = session.database
        catalog = database.catalog
        version = catalog.view_catalog_version
        if failure == "query_error":
            bad = aggregate("sales").sum("no_such_column").build()
            with pytest.raises(QueryError):
                database.create_view("mv_bad", bad)
        else:
            with scope(0.0), pytest.raises(QueryTimeoutError):
                database.create_view("mv_bad", session.bind(SQL))
        assert session.views() == []
        assert not catalog.has_view("mv_bad")
        assert catalog.view_catalog_version == version
        # The name stays reusable.
        session.create_view("mv_bad", SQL)
        assert session.sql(SQL).view_hits == {"mv_bad": "served"}

    def test_duplicate_view_is_rejected_before_executing(self, session):
        session.create_view("mv_sales", SQL)
        plan = FaultPlan(crash_at=None)  # record hits, never fire
        with inject(plan):
            with pytest.raises(CatalogError):
                session.create_view("mv_sales", "SELECT count(*) FROM sales")
            with pytest.raises(CatalogError):
                session.create_view("mv_other", SQL)
        assert plan.hits == []
        assert session.views() == ["mv_sales"]


class TestAdvisorIntegration:
    def test_monitor_recommends_recurring_aggregate(self, session):
        monitor = OnlineAdvisorMonitor.for_session(session)
        for _ in range(3):
            session.sql(SQL)
        assert list(monitor.recurring_aggregates().values()) == [3]

        recommendations = monitor.recommend_views()
        assert len(recommendations) == 1
        recommendation = recommendations[0]
        assert recommendation.table == "sales"
        assert recommendation.view.startswith("mv_sales_")
        assert recommendation.occurrences == 3
        assert recommendation.estimated_view_ms < recommendation.estimated_base_ms
        assert recommendation.estimated_benefit_ms > 0
        assert recommendation.estimated_speedup > 1.0

        # The what-if plans render through the EXPLAIN renderer (both sides).
        text = recommendation.explain()
        assert "without view:" in text
        assert "with view:" in text
        assert f"rewrite: materialized view {recommendation.view}" in text

        # Re-advising is served from the shared EstimateMemo.
        hits_before = session.advisor().cost_model.cache_hits
        monitor.recommend_views()
        assert session.advisor().cost_model.cache_hits > hits_before

        # Creating the recommended view closes the loop: the recurring
        # statement is now answered from it, and it stops being recommended.
        session.create_view(recommendation.view, recommendation.query)
        result = session.sql(SQL)
        assert result.view_hits == {recommendation.view: "served"}
        assert monitor.recommend_views() == []

    def test_below_occurrence_floor_not_recommended(self, session):
        monitor = OnlineAdvisorMonitor.for_session(session)
        session.sql(SQL)
        assert monitor.recommend_views() == []
        assert monitor.recommend_views(min_occurrences=1) != []
