"""Parse → bind → plan round-trips and physical-plan contents."""

import pytest

from repro.api import connect
from repro.api.binder import bind, statement_parameters
from repro.engine import DataType, Store, TableSchema
from repro.engine.partitioning import TablePartitioning, VerticalPartitionSpec
from repro.errors import BindError, QueryError
from repro.query.ast import Parameter
from repro.query.fingerprint import query_fingerprint
from repro.query.parser import parse
from repro.query.predicates import Between, Comparison


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.ROW))


class TestBindRoundTrips:
    def test_select_round_trip(self, session):
        template = session.parse("SELECT id FROM sales WHERE id = ?")
        assert isinstance(template.predicate.value, Parameter)
        bound = session.bind(template, [5])
        assert bound.predicate == Comparison(
            "id", bound.predicate.op, 5
        )
        plan = session.plan_for(template)
        assert plan.query is template
        assert plan.table_plans[0].table == "sales"

    def test_bound_literals_survive_unchanged(self, session):
        # Binding must not rewrite already-valid literals (cost/result parity
        # with the legacy path depends on it).
        template = session.parse("SELECT id FROM sales WHERE revenue > 10.5")
        bound = session.bind(template)
        assert bound is template

    def test_between_parameters_bind_in_order(self, session):
        template = session.parse(
            "SELECT count(*) FROM sales WHERE quantity BETWEEN ? AND ?"
        )
        bound = session.bind(template, [2, 8])
        assert isinstance(bound.predicate, Between)
        assert (bound.predicate.low, bound.predicate.high) == (2, 8)

    def test_statement_parameters_order(self, session):
        template = session.parse(
            "UPDATE sales SET status = ?, quantity = ? WHERE id = ?"
        )
        parameters = statement_parameters(template)
        assert [p.index for p in parameters] == [0, 1, 2]

    def test_partial_bind_keeps_placeholders(self, session):
        template = session.parse("SELECT id FROM sales WHERE id = ?")
        bound = session.bind(template, partial=True)
        assert isinstance(bound.predicate.value, Parameter)

    def test_partial_bind_still_validates_names(self, session):
        template = session.parse("SELECT nope FROM sales WHERE id = ?")
        with pytest.raises(BindError, match="no column"):
            session.bind(template, partial=True)

    def test_join_columns_validate(self, session, sales_schema):
        other = TableSchema.build(
            "dim", [("id", DataType.INTEGER), ("label", DataType.VARCHAR)],
            primary_key=["id"],
        )
        session.create_table(other, Store.COLUMN)
        query = parse(
            "SELECT sum(revenue) FROM sales JOIN dim ON sales.product = dim.id "
            "GROUP BY dim.label"
        )
        bound = session.bind(query)
        assert bound.joins[0].table == "dim"
        with pytest.raises(BindError, match="no column"):
            session.bind(
                parse(
                    "SELECT sum(revenue) FROM sales JOIN dim ON "
                    "sales.product = dim.nope GROUP BY dim.label"
                )
            )


class TestQualifiedPredicateColumns:
    """``WHERE sales.id = 3`` means ``WHERE id = 3``; no store sees a qualifier."""

    STATEMENTS = [
        ("SELECT id, quantity FROM sales WHERE {q}quantity >= 3 AND {q}id < 40", False),
        ("SELECT count(*), max(revenue) FROM sales WHERE {q}quantity >= 3", False),
        ("SELECT sum(revenue) FROM sales WHERE {q}id BETWEEN 5 AND 30 "
         "GROUP BY region", False),
        ("UPDATE sales SET quantity = 1 WHERE {q}id = 3", True),
        ("DELETE FROM sales WHERE {q}quantity <= 3 AND {q}id > 10", True),
    ]

    @pytest.mark.parametrize("store", [Store.ROW, Store.COLUMN])
    @pytest.mark.parametrize("statement, writes", STATEMENTS)
    def test_own_table_qualifier_binds_to_the_bare_column(
        self, database_factory, store, statement, writes
    ):
        qualified = connect(database=database_factory(store))
        bare = connect(database=database_factory(store))
        sql = statement.format(q="sales.")
        assert qualified.bind(sql) == bare.bind(statement.format(q=""))
        got = qualified.sql(sql)
        expected = bare.sql(statement.format(q=""))
        assert got.rows == expected.rows
        assert got.affected_rows == expected.affected_rows
        assert got.cost.components == expected.cost.components
        if writes:
            assert expected.affected_rows > 0
            assert (qualified.sql("SELECT * FROM sales").rows
                    == bare.sql("SELECT * FROM sales").rows)
        else:
            assert expected.rows

    def test_foreign_qualifier_is_a_bind_error(self, session):
        other = TableSchema.build(
            "dim", [("id", DataType.INTEGER), ("quantity", DataType.INTEGER)],
            primary_key=["id"],
        )
        session.create_table(other, Store.ROW)
        for sql in (
            "SELECT id FROM sales WHERE dim.quantity = 1",
            "SELECT count(*) FROM sales WHERE dim.quantity = 1",
            "UPDATE sales SET quantity = 1 WHERE dim.id = 3",
            "DELETE FROM sales WHERE dim.id = 3",
        ):
            with pytest.raises(BindError, match="neither selects from nor joins"):
                session.bind(sql)
        # A predicate on a *joined* table binds (the name resolves) and keeps
        # the executor's explicit refusal.
        joined = (
            "SELECT sum(revenue) FROM sales JOIN dim ON sales.product = dim.id "
            "WHERE dim.quantity = 1"
        )
        assert session.bind(joined).predicate == Comparison(
            "dim.quantity", session.bind(joined).predicate.op, 1
        )
        with pytest.raises(QueryError, match="predicates on joined tables"):
            session.sql(joined)


class TestFingerprints:
    def test_equal_content_equal_fingerprint(self):
        first = parse("SELECT id FROM sales WHERE id = 5")
        second = parse("SELECT id FROM sales WHERE id = 5")
        assert first is not second
        assert query_fingerprint(first) == query_fingerprint(second)

    def test_literal_type_distinguished(self):
        assert query_fingerprint(parse("SELECT id FROM sales WHERE id = 1")) != \
            query_fingerprint(parse("SELECT id FROM sales WHERE id = 1.0"))

    def test_placeholders_distinguished_from_literals(self):
        assert query_fingerprint(parse("SELECT id FROM sales WHERE id = ?")) != \
            query_fingerprint(parse("SELECT id FROM sales WHERE id = 5"))


class TestPhysicalPlanContents:
    def test_row_store_index_choice(self, session):
        plan = session.plan_for("SELECT id FROM sales WHERE id = 7")
        assert plan.table_plans[0].access == "index lookup(id)"
        plan = session.plan_for("SELECT id FROM sales WHERE id BETWEEN 1 AND 5")
        assert plan.table_plans[0].access == "index range scan(id)"
        plan = session.plan_for("SELECT id FROM sales WHERE quantity = 3")
        assert plan.table_plans[0].access == "full scan + predicate"

    @pytest.mark.parametrize("indexes", [
        (), ("hash",), ("sorted",), ("hash", "sorted"),
    ])
    @pytest.mark.parametrize("condition", [
        "quantity = 3", "quantity < 3", "quantity BETWEEN 2 AND 4",
    ])
    def test_printed_access_is_the_access_taken(self, session, indexes, condition):
        """EXPLAIN's access line agrees with the components the scan charged."""
        table = session.database.table_object("sales")
        if "hash" in indexes:
            table.create_hash_index("quantity")
        if "sorted" in indexes:
            table.create_sorted_index("quantity")
        sql = f"SELECT id FROM sales WHERE {condition}"
        access = session.plan_for(sql).table_plans[0].access
        components = set(session.execute(sql).cost.components)
        equality = condition.startswith("quantity =")
        if "sorted" in indexes or (equality and "hash" in indexes):
            kind = "index lookup" if equality else "index range scan"
            assert access == f"{kind}(quantity)"
            assert "index_probe" in components
            assert not components & {"row_scan", "predicate_eval"}
        else:
            assert access == "full scan + predicate"
            assert {"row_scan", "predicate_eval"} <= components
            assert "index_probe" not in components
        assert f"row store, {table.num_rows} rows, {access}" in session.explain(
            sql, analyze=True
        )

    def test_column_store_access(self, database_factory):
        session = connect(database=database_factory(Store.COLUMN))
        plan = session.plan_for("SELECT id FROM sales WHERE region = 'region_1'")
        assert plan.table_plans[0].access == "dictionary-coded scan(region)"
        assert plan.table_plans[0].store is Store.COLUMN

    def test_estimate_is_populated(self, session):
        plan = session.plan_for("SELECT sum(revenue) FROM sales GROUP BY region")
        assert plan.estimate.total_ms > 0
        assert plan.estimate.assignment == {"sales": Store.ROW}
        assert sum(plan.estimate.per_term_ms.values()) == pytest.approx(
            plan.estimate.total_ms
        )
        assert sum(plan.estimate.per_table_ms.values()) == pytest.approx(
            plan.estimate.total_ms
        )

    def test_vertical_pruning_note(self, session):
        partitioning = TablePartitioning(
            vertical=VerticalPartitionSpec(
                row_store_columns=("status", "quantity"),
                column_store_columns=("region", "product", "revenue"),
            )
        )
        session.apply_partitioning("sales", partitioning)
        plan = session.plan_for("SELECT sum(revenue) FROM sales GROUP BY region")
        table_plan = plan.table_plans[0]
        assert table_plan.partitioned
        assert "vertical pruning: 1 of 2" in table_plan.pruning
        # Results still correct through the partitioned plan.
        result = session.sql("SELECT count(*) FROM sales")
        assert result.rows[0]["count_star"] == 1000

    def test_fingerprints_recorded(self, session):
        plan = session.plan_for("SELECT count(*) FROM sales")
        assert plan.layout_fingerprint == (
            ("sales", session.database.table_version("sales")),
        )
        assert set(plan.statistics_fingerprints) == {"sales"}
