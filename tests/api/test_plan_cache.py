"""Plan-cache behaviour: hits on repetition, invalidation on layout change."""

import pytest

from repro.api import connect
from repro.engine import (
    DataType,
    HorizontalPartitionSpec,
    Store,
    TablePartitioning,
    TableSchema,
)
from repro.errors import BindError
from repro.query import aggregate, eq, select


SQL = "SELECT sum(revenue) FROM sales GROUP BY region"


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.ROW))


def plan_counts(session):
    stats = session.stats()
    return stats.plan_cache_hits, stats.plan_cache_misses


class TestPlanCacheHits:
    def test_repeated_sql_hits(self, session):
        session.sql(SQL)
        hits0, misses0 = plan_counts(session)
        session.sql(SQL)
        session.sql(SQL)
        hits, misses = plan_counts(session)
        assert hits == hits0 + 2
        assert misses == misses0

    def test_structurally_equal_ast_queries_share_a_plan(self, session):
        session.execute(aggregate("sales").sum("revenue").group_by("region").build())
        session.execute(aggregate("sales").sum("revenue").group_by("region").build())
        hits, misses = plan_counts(session)
        assert (hits, misses) == (1, 1)

    def test_different_literals_are_one_plan(self, session):
        first = session.sql("SELECT id FROM sales WHERE id = 1")
        second = session.sql("SELECT id FROM sales WHERE id = 2")
        assert (first.rows, second.rows) == ([{"id": 1}], [{"id": 2}])
        hits, misses = plan_counts(session)
        assert (hits, misses) == (1, 1)
        assert session.stats().plan_cache_size == 1

    def test_text_prepared_and_ast_literals_are_one_plan_each(self, session):
        for key in (1, 2, 3):
            session.sql(f"SELECT id FROM sales WHERE id = {key}")
            session.prepare(f"SELECT id FROM sales WHERE id = {key}").execute()
            session.execute(select("sales").columns("id").where(eq("id", key)).build())
        hits, misses = plan_counts(session)
        # Text (prepared or not) keys by its literal-free text, an AST by its
        # literal-free fingerprint.  `prepare` looks its plan up once itself.
        assert (hits, misses) == (10, 2)

    @pytest.mark.parametrize("other", [
        "SELECT id FROM sales WHERE id > 1",           # another operator
        "SELECT id FROM sales WHERE quantity = 1",     # another column
        "SELECT id, status FROM sales WHERE id = 1",   # another projection
        "SELECT id FROM sales WHERE id = 1 LIMIT 1",   # LIMIT is shape
        "SELECT id FROM sales WHERE id = ?",           # a placeholder is shape
        "DELETE FROM sales WHERE id = 1",              # another statement
    ])
    def test_different_shapes_are_different_plans(self, session, other):
        session.sql("SELECT id FROM sales WHERE id = 1")
        session.sql(other, [1] if "?" in other else None)
        hits, misses = plan_counts(session)
        assert (hits, misses) == (0, 2)

    def test_plan_reuse_does_not_change_results_or_costs(self, session, row_database):
        first = session.sql(SQL)
        second = session.sql(SQL)  # served from the plan cache
        legacy = row_database.execute(
            aggregate("sales").sum("revenue").group_by("region").build()
        )
        assert second.rows == first.rows == legacy.rows
        assert second.cost.components == legacy.cost.components


class TestPlanCacheInvalidation:
    def test_ddl_invalidates(self, session, sales_schema):
        session.sql(SQL)
        session.drop_table("sales")
        session.create_table(sales_schema, Store.ROW)
        session.sql(SQL)
        hits, misses = plan_counts(session)
        assert hits == 0 and misses == 2

    def test_store_move_invalidates(self, session):
        session.sql(SQL)
        plan_row = session.plan_for(SQL)
        assert plan_row.table_plans[0].store is Store.ROW
        session.move_table("sales", Store.COLUMN)
        session.sql(SQL)
        plan_column = session.plan_for(SQL)
        assert plan_column.table_plans[0].store is Store.COLUMN
        stats = session.stats()
        # one miss before the move, one after; the plan_for calls hit.
        assert stats.plan_cache_misses == 2

    def test_repartitioning_invalidates(self, session):
        session.sql(SQL)
        from repro.query.predicates import ge

        partitioning = TablePartitioning(
            horizontal=HorizontalPartitionSpec(
                predicate=ge("id", 900),
                hot_store=Store.ROW, cold_store=Store.COLUMN,
            )
        )
        session.apply_partitioning("sales", partitioning)
        session.sql(SQL)
        plan = session.plan_for(SQL)
        assert plan.table_plans[0].partitioned
        stats = session.stats()
        assert stats.plan_cache_misses == 2

    def test_stats_refresh_invalidates(self, session):
        session.sql(SQL)
        session.refresh_statistics("sales")
        session.sql(SQL)
        stats = session.stats()
        assert stats.plan_cache_misses == 2

    def test_plain_dml_does_not_invalidate(self, session):
        session.sql(SQL)
        session.sql("UPDATE sales SET status = 'x' WHERE id = 1")
        session.sql(SQL)
        stats = session.stats()
        # The SELECT plan is reused; only the UPDATE added a miss.
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_misses == 2

    def test_delta_merge_keeps_plans(self, database_factory):
        """A merge that moved rows changes how rows are stored, not which."""
        session = connect(database=database_factory(Store.COLUMN))
        session.sql(SQL)
        session.sql("INSERT INTO sales (id, region, product, revenue, quantity, "
                    "status) VALUES (99999, 'north', 1, 1.0, 2, 'ok')")
        merged = session.merge_deltas("sales")
        assert merged > 0
        session.sql(SQL)
        stats = session.stats()
        # One miss for the SELECT, one for the INSERT; the post-merge
        # SELECT reuses its plan.
        assert stats.plan_cache_misses == 2
        assert stats.plan_cache_hits == 1

    def test_empty_delta_merge_keeps_plans(self, database_factory):
        """A no-op merge must not spuriously invalidate cached plans."""
        session = connect(database=database_factory(Store.COLUMN))
        session.sql(SQL)
        assert session.merge_deltas("sales") == 0
        session.sql(SQL)
        stats = session.stats()
        assert stats.plan_cache_hits == 1
        assert stats.plan_cache_misses == 1

    def test_clear_caches_resets_estimate_memo(self, session):
        session.sql(SQL)
        # Executing prices nothing: the estimate is priced when first read.
        assert session.stats().estimate_memo_misses == 0
        session.explain(SQL)
        stats = session.stats()
        assert stats.estimate_memo_misses > 0
        session.clear_caches()
        stats = session.stats()
        assert stats.estimate_memo_hits == 0
        assert stats.estimate_memo_misses == 0
        # The next statement re-plans (a fresh miss on the emptied cache)
        # and its EXPLAIN re-prices from scratch.
        session.explain(SQL)
        stats = session.stats()
        assert stats.plan_cache_misses == 2
        assert stats.plan_cache_hits == 1
        assert stats.estimate_memo_misses > 0

    def test_invalidation_is_per_table(self, database_factory, sales_schema):
        session = connect(database=database_factory(Store.ROW))
        other = TableSchema.build(
            "other", [("k", DataType.INTEGER)], primary_key=["k"]
        )
        session.create_table(other, Store.ROW)
        session.sql(SQL)
        session.sql("SELECT count(*) FROM other")
        # Touching `other` must not invalidate the `sales` plan.
        session.move_table("other", Store.COLUMN)
        session.sql(SQL)
        stats = session.stats()
        assert stats.plan_cache_hits == 1


class TestPlanCacheEviction:
    def test_lru_evicts_by_shape(self, database_factory):
        session = connect(database=database_factory(Store.ROW),
                          plan_cache_capacity=2)
        for key in range(5):  # one shape: one plan, however many literals
            session.sql(f"SELECT id FROM sales WHERE id = {key}")
        assert session.stats().plan_cache_evictions == 0
        session.sql("SELECT id FROM sales WHERE quantity = 1")
        session.sql("SELECT id FROM sales WHERE id = 5")      # refreshes its use
        session.sql("SELECT status FROM sales WHERE id = 1")  # evicts `quantity =`
        stats = session.stats()
        assert stats.plan_cache_size == 2
        assert stats.plan_cache_evictions == 1
        misses = stats.plan_cache_misses
        session.sql("SELECT id FROM sales WHERE id = 6")
        assert session.stats().plan_cache_misses == misses
        session.sql("SELECT id FROM sales WHERE quantity = 2")
        assert session.stats().plan_cache_misses == misses + 1


# -- the template's resolution: once per (template, layout) ---------------------------


@pytest.fixture
def resolutions(monkeypatch):
    """Every resolve-phase run of the session's statements, by template."""
    from repro.api import session as session_module

    resolved = []
    resolve = session_module.resolve

    def counting(query, catalog):
        resolved.append(query)
        return resolve(query, catalog)

    monkeypatch.setattr(session_module, "resolve", counting)
    return resolved


POINT = "SELECT id FROM sales WHERE id = {}"


class TestResolutionPerTemplateAndLayout:
    def test_distinct_literals_of_one_shape_resolve_once(self, session, resolutions):
        for key in range(300):
            assert session.sql(POINT.format(key)).rows == [{"id": key}]
        assert len(resolutions) == 1

    def test_a_resolved_template_still_rejects_each_bad_value(self, session,
                                                               resolutions):
        for key in range(300):
            session.sql(POINT.format(key))
        with pytest.raises(BindError) as literal:
            session.sql(POINT.format("'x'"))
        assert str(literal.value) == (
            "literal 'x' (str) does not type-check against column sales.id "
            "(integer)"
        )
        update = "UPDATE sales SET quantity = ? WHERE id = {}"
        for key in range(3):
            session.sql(update.format(key), [key + 1])
        with pytest.raises(BindError) as parameter:
            session.sql(update.format(3), ["many"])
        assert str(parameter.value) == (
            "parameter ? = 'many' is not valid for column sales.quantity (integer)"
        )
        assert session.sql(POINT.format(7)).rows == [{"id": 7}]
        assert len(resolutions) == 2

    def test_date_strings_coerce_per_execution(self, resolutions):
        import datetime

        schema = TableSchema.build(
            "visits", [("id", DataType.INTEGER), ("day", DataType.DATE)],
            primary_key=["id"],
        )
        session = connect()
        session.create_table(schema, Store.ROW)
        session.load_rows("visits", [
            {"id": i, "day": datetime.date(2024, 1, 1 + i)} for i in range(10)
        ])
        sql = "SELECT id FROM visits WHERE day >= '2024-01-{:02d}'"
        for day in (3, 8, 5):
            bound = session.plan_for(sql.format(day)).query
            assert bound.predicate.value == datetime.date(2024, 1, day)
            assert [row["id"] for row in session.sql(sql.format(day)).rows] == list(
                range(day - 1, 10)
            )
        with pytest.raises(BindError, match="not a valid date"):
            session.sql("SELECT id FROM visits WHERE day >= '2024-13-01'")
        assert len(resolutions) == 1

    @pytest.mark.parametrize("change", [
        "drop and create", "store move", "apply", "statistics refresh",
    ])
    def test_a_layout_change_resolves_again(self, session, sales_schema,
                                            sales_rows, resolutions, change):
        session.sql(POINT.format(1))
        session.sql(POINT.format(2))
        assert len(resolutions) == 1
        if change == "drop and create":
            session.drop_table("sales")
            session.create_table(sales_schema, Store.ROW)
            session.load_rows("sales", sales_rows)
        elif change == "store move":
            session.move_table("sales", Store.COLUMN)
        elif change == "apply":
            from repro.core.advisor.recommendation import (
                Recommendation,
                StorageLayout,
            )
            from repro.query.predicates import ge

            partitioning = TablePartitioning(
                horizontal=HorizontalPartitionSpec(predicate=ge("id", 900))
            )
            session.apply(Recommendation(StorageLayout({"sales": partitioning})))
        else:
            session.refresh_statistics("sales")
        assert session.sql(POINT.format(3)).rows == [{"id": 3}]
        assert session.sql(POINT.format(4)).rows == [{"id": 4}]
        assert len(resolutions) == 2

    def test_another_tables_change_keeps_the_resolution(self, session,
                                                        resolutions):
        other = TableSchema.build("other", [("k", DataType.INTEGER)],
                                  primary_key=["k"])
        session.sql(POINT.format(1))
        session.create_table(other, Store.ROW)
        session.move_table("other", Store.COLUMN)
        session.sql(POINT.format(2))
        assert len(resolutions) == 1

    def test_a_recreated_table_binds_against_its_new_types(self, session,
                                                           resolutions):
        sql = "SELECT id FROM sales WHERE region = {}"
        assert session.sql(sql.format("'region_1'")).rows
        session.drop_table("sales")
        retyped = TableSchema.build(
            "sales", [("id", DataType.INTEGER), ("region", DataType.INTEGER)],
            primary_key=["id"],
        )
        session.create_table(retyped, Store.ROW)
        session.load_rows("sales", [{"id": i, "region": i % 3} for i in range(9)])
        with pytest.raises(BindError, match="type-check"):
            session.sql(sql.format("'region_1'"))
        assert [row["id"] for row in session.sql(sql.format(1)).rows] == [1, 4, 7]
        assert len(resolutions) == 2
