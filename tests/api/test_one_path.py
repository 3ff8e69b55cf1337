"""One statement path: ad-hoc text ≡ prepared statement ≡ AST.

Every statement is a prepared statement — literals are lifted out of SQL
text before the grammar runs, the plan cache is keyed by statement *shape*,
values are bound per execution — so the three ways of issuing one statement
must agree on everything observable: rows, ``CostBreakdown``, the order of
charges and the ``EXPLAIN`` text.  What a cached plan says about *one*
statement (decisions, view match, estimate) must be that statement's own,
and lifted literals must keep literal semantics.
"""

import datetime
import importlib.util
import pathlib
import random

import pytest

from repro.api import connect
from repro.engine import DataType, Store, TableSchema
from repro.engine.database import HybridDatabase
from repro.engine.executor import access
from repro.engine.executor import agg_pushdown
from repro.engine import shard
from repro.errors import BindError
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    SelectQuery,
    UpdateQuery,
)
from repro.query.predicates import And, Between, Comparison

_FUZZ_PATH = (
    pathlib.Path(__file__).parent.parent / "engine" / "test_differential_fuzz.py"
)
_spec = importlib.util.spec_from_file_location("engine_differential_fuzz", _FUZZ_PATH)
fuzz = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fuzz)

STATEMENTS_PER_SEED = 60
DML_EVERY = 10


# -- rendering the fuzzer's ASTs as SQL text ------------------------------------------------


class NotSql(Exception):
    """The statement has no spelling in the SQL-ish grammar."""


def _literal(value, values):
    """SQL spelling of *value*; with *values*, a ``?`` and the value aside."""
    if value is None:
        return "NULL"  # a keyword constant: part of the shape either way
    if isinstance(value, float) and value != value:
        raise NotSql("NaN has no literal form a prepared statement shares")
    if values is not None:
        values.append(value)
        return "?"
    return f"'{value}'" if isinstance(value, str) else repr(value)


def _where(predicate, values):
    if predicate is None:
        return ""
    leaves = predicate.predicates if isinstance(predicate, And) else (predicate,)
    parts = []
    for leaf in leaves:
        if isinstance(leaf, Comparison):
            parts.append(f"{leaf.column} {leaf.op.value} "
                         f"{_literal(leaf.value, values)}")
        elif isinstance(leaf, Between) and leaf.include_low and leaf.include_high:
            parts.append(f"{leaf.column} BETWEEN {_literal(leaf.low, values)} "
                         f"AND {_literal(leaf.high, values)}")
        else:
            raise NotSql(type(leaf).__name__)
    return " WHERE " + " AND ".join(parts)


def to_sql(query, values=None):
    """*query* as SQL text — literals inline, or ``?`` with *values* filled."""
    if isinstance(query, SelectQuery):
        columns = ", ".join(query.columns) or "*"
        return f"SELECT {columns} FROM {query.table}{_where(query.predicate, values)}"
    if isinstance(query, AggregationQuery):
        specs = ", ".join(f"{spec.function.value}({spec.column})"
                          for spec in query.aggregates)
        joins = "".join(
            f" JOIN {join.table} ON {query.table}.{join.left_column} = "
            f"{join.table}.{join.right_column}" for join in query.joins
        )
        where = _where(query.predicate, values)
        group = f" GROUP BY {', '.join(query.group_by)}" if query.group_by else ""
        return f"SELECT {specs} FROM {query.table}{joins}{where}{group}"
    if isinstance(query, InsertQuery):
        if len(query.rows) != 1:
            raise NotSql("multi-row INSERT")
        (row,) = query.rows
        cells = ", ".join(_literal(value, values) for value in row.values())
        return f"INSERT INTO {query.table} ({', '.join(row)}) VALUES ({cells})"
    if isinstance(query, UpdateQuery):
        assigned = ", ".join(f"{name} = {_literal(value, values)}"
                             for name, value in query.assignments.items())
        return f"UPDATE {query.table} SET {assigned}{_where(query.predicate, values)}"
    assert isinstance(query, DeleteQuery)
    return f"DELETE FROM {query.table}{_where(query.predicate, values)}"


def random_statement(rng, step, next_id):
    if step and step % DML_EVERY == 0:
        return fuzz.random_dml(rng, next_id)
    if rng.random() < 0.4:
        return fuzz.random_select(rng), next_id
    return fuzz.random_aggregation(rng), next_id


# -- (a) the differential ---------------------------------------------------------------------


@pytest.mark.fuzz
@pytest.mark.parametrize("store", [Store.ROW, Store.COLUMN])
@pytest.mark.parametrize("seed", range(3))
def test_text_prepared_and_ast_agree(seed, store, charge_trace):
    """The stream of ``test_session_differential.py``, three ways."""
    rng = random.Random(1000 + seed)
    num_rows = rng.choice([0, rng.randrange(1, 80), rng.randrange(80, 220)])
    rows = fuzz.generate_rows(rng, num_rows)
    sessions = []
    for _ in range(3):
        database = HybridDatabase()
        database.create_table(fuzz.FACTS_SCHEMA, store=store)
        database.create_table(fuzz.DIM_SCHEMA, store=store)
        if rows:
            database.load_rows("facts", rows)
        database.load_rows("customers", fuzz.generate_dim_rows())
        sessions.append(connect(database=database))
    by_text, by_prepare, by_ast = sessions
    next_id = num_rows
    compared = 0

    for step in range(STATEMENTS_PER_SEED):
        query, next_id = random_statement(rng, step, next_id)
        try:
            text = to_sql(query)
            values = []
            prepared = by_prepare.prepare(to_sql(query, values))
        except NotSql:
            # Keep the three databases in step; nothing to compare.
            for session in sessions:
                session.execute(query)
            charge_trace.take()
            continue
        compared += 1
        context = f"seed={seed} step={step} store={store.value}: {text}"

        plans = [by_text.explain(text), prepared.explain(values or None),
                 by_ast.explain(query)]
        assert plans[0] == plans[1] == plans[2], context
        charge_trace.take()

        results, traces = [], []
        for run in (lambda: by_text.sql(text),
                    lambda: prepared.execute(values or None),
                    lambda: by_ast.execute(query)):
            results.append(run())
            traces.append(charge_trace.take())
        reference = results[2]
        for result, trace in zip(results[:2], traces[:2]):
            fuzz.assert_rows_equivalent(context, reference.rows, result.rows)
            assert result.affected_rows == reference.affected_rows, context
            assert result.cost.components == reference.cost.components, context
            assert trace == traces[2], context
            assert result.scan_stats == reference.scan_stats, context
            assert result.agg_strategies == reference.agg_strategies, context

    assert compared >= STATEMENTS_PER_SEED // 4
    final = "SELECT * FROM facts"
    for session in (by_text, by_prepare):
        fuzz.assert_rows_equivalent(
            f"seed={seed} final state", by_ast.sql(final).rows, session.sql(final).rows
        )
    # Distinct literals of one shape share a plan: fewer plans than statements.
    stats = by_text.stats()
    assert stats.plan_cache_misses < stats.queries_executed
    assert stats.plan_cache_evictions == 0


# -- (b) lifted literals are literals, not parameters -------------------------------------------


@pytest.fixture
def session(database_factory):
    return connect(database=database_factory(Store.ROW))


class TestLiteralSemantics:
    def test_a_string_for_an_integer_column_is_a_bind_error(self, session):
        with pytest.raises(BindError, match="type-check"):
            session.sql("SELECT id FROM sales WHERE id = '17'")
        # ... which a user parameter would have been coerced past.
        assert session.sql("SELECT id FROM sales WHERE id = ?", ["17"]).rows == [
            {"id": 17}
        ]
        # The shape's cached plan does not launder the next literal either.
        assert session.sql("SELECT id FROM sales WHERE id = 17").rows == [{"id": 17}]
        with pytest.raises(BindError, match="type-check"):
            session.sql("SELECT id FROM sales WHERE id = '18'")
        with pytest.raises(BindError, match="type-check"):
            session.sql("UPDATE sales SET quantity = 'many' WHERE id = 1")
        with pytest.raises(BindError, match="type-check"):
            session.sql("SELECT id FROM sales WHERE region = 5")

    def test_literals_keep_the_type_the_caller_wrote(self, session):
        bound = session.bind("UPDATE sales SET revenue = 5 WHERE id = 7")
        assert bound.assignments == {"revenue": 5}
        assert type(bound.assignments["revenue"]) is int
        # ... where a parameter is coerced to the column's type.
        bound = session.bind("UPDATE sales SET revenue = ? WHERE id = 7", [5])
        assert type(bound.assignments["revenue"]) is float
        assert session.parse("UPDATE sales SET revenue = 5 WHERE id = 7") == bound

    def test_literals_and_parameters_mix(self, session):
        sql = ("SELECT id FROM sales WHERE region = 'region_3' AND id < ? "
               "AND quantity >= 1")
        expected = [row["id"] for row in session.sql(
            "SELECT id FROM sales WHERE region = 'region_3' AND id < 40 "
            "AND quantity >= 1"
        ).rows]
        assert expected
        assert [row["id"] for row in session.sql(sql, [40]).rows] == expected
        statement = session.prepare(sql.replace("?", ":top"))
        assert [p.label for p in statement.parameters] == [":top"]
        assert [row["id"] for row in statement.execute({"top": 40.0}).rows] == expected
        with pytest.raises(BindError, match="no params were supplied"):
            session.sql(sql)
        with pytest.raises(BindError, match="no placeholders"):
            session.sql("SELECT id FROM sales WHERE id = 3", [3])

    def test_date_strings_still_coerce(self):
        schema = TableSchema.build(
            "visits", [("id", DataType.INTEGER), ("day", DataType.DATE)],
            primary_key=["id"],
        )
        session = connect()
        session.create_table(schema, Store.COLUMN)
        session.load_rows("visits", [
            {"id": i, "day": datetime.date(2024, 1, 1 + i)} for i in range(10)
        ])
        for sql in ("SELECT id FROM visits WHERE day >= '2024-01-08'",
                    "SELECT id FROM visits WHERE day >= '2024-01-09'"):
            bound = session.bind(sql)
            assert isinstance(bound.predicate.value, datetime.date)
            assert [row["id"] for row in session.sql(sql).rows] == list(
                range(bound.predicate.value.day - 1, 10)
            )
        session.sql("INSERT INTO visits (id, day) VALUES (10, '2024-02-01')")
        assert session.sql("SELECT count(*) FROM visits WHERE day > '2024-01-31'"
                           ).rows == [{"count_star": 1}]
        with pytest.raises(BindError, match="not a valid date"):
            session.sql("SELECT id FROM visits WHERE day >= 'yesterday'")


# -- (c) a plan seen for a statement is that statement's ----------------------------------------


class TestPlansAreTheStatementsOwn:
    @pytest.fixture
    def events(self):
        schema = TableSchema.build(
            "events",
            [("id", DataType.INTEGER), ("day", DataType.INTEGER),
             ("kind", DataType.VARCHAR), ("value", DataType.DOUBLE)],
            primary_key=["id"],
        )
        session = connect()
        session.create_table(schema, Store.COLUMN)
        session.load_rows("events", [
            {"id": i, "day": i % 100, "kind": f"k{i % 4}", "value": float(i)}
            for i in range(400)
        ])
        return session

    def test_explain_of_the_second_literal(self, events):
        first = events.explain("SELECT id FROM events WHERE day <= 10")
        second = events.explain("SELECT id FROM events WHERE day <= 500")
        pruned = events.explain("SELECT id FROM events WHERE day <= -5")
        assert events.stats().plan_cache_misses == 1  # one shape, one plan
        assert "predicate: day <= 10" in first
        assert "predicate: day <= 500" in second
        assert "predicate: day <= -5" in pruned
        assert "zone pruning: 0 scanned, 1 skipped" in pruned
        assert "zone pruning" not in first and "zone pruning" not in second

        def estimate_of(text):
            lines = text.splitlines()
            return lines[1], lines[lines.index("  estimated cost terms (ms):"):]

        assert estimate_of(first) != estimate_of(second) != estimate_of(pruned)
        # A fresh session that only ever saw one of them renders the same.
        for sql, text in (("SELECT id FROM events WHERE day <= 500", second),
                          ("SELECT id FROM events WHERE day <= -5", pruned)):
            other = connect(database=events.database)
            assert other.explain(sql) == text

    def test_plan_for_of_the_second_literal(self, events):
        low = events.plan_for("SELECT count(*), max(day) FROM events WHERE day <= 10")
        everything = events.plan_for(
            "SELECT count(*), max(day) FROM events WHERE day <= 500"
        )
        assert events.stats().plan_cache_misses == 1
        assert low.paths is everything.paths
        assert low.query.predicate.value == 10
        assert everything.query.predicate.value == 500
        assert low.fingerprint != everything.fingerprint
        # `day <= 500` holds for every row: answered from the synopsis.
        assert everything.table_plans[0].aggregate_strategy.tier == "zero-scan"
        assert low.table_plans[0].aggregate_strategy.tier != "zero-scan"
        assert low.estimated_ms != everything.estimated_ms
        # Execution consumes the very decisions the plan shows.
        result = events.sql("SELECT count(*), max(day) FROM events WHERE day <= 500")
        assert result.agg_strategies["events"] == (
            everything.table_plans[0].aggregate_strategy.describe()
        )
        assert events.plan_for(
            "SELECT count(*), max(day) FROM events WHERE day <= 500"
        ) is everything

    def test_estimate_is_priced_on_first_read(self, events):
        sql = "SELECT sum(value) FROM events WHERE day <= {} GROUP BY kind"
        for day in range(20):
            events.sql(sql.format(day))
        assert events.stats().estimate_memo_misses == 0
        plan = events.plan_for(sql.format(5))
        assert events.stats().estimate_memo_misses == 0
        assert plan.estimate is plan.estimate
        assert events.stats().estimate_memo_misses == 1
        fresh = connect(database=events.database).plan_for(sql.format(5))
        assert plan.estimate == fresh.estimate

    def test_listeners_get_the_plan_of_the_executed_statement(self, events):
        seen = []
        events.add_plan_listener(
            lambda bound, plan, result: seen.append((bound, plan, result))
        )
        events.sql("SELECT id FROM events WHERE day = 3")
        events.sql("SELECT id FROM events WHERE day = 4")
        statement = events.prepare("SELECT id FROM events WHERE day = ?")
        statement.execute([5])
        assert [plan.query.predicate.value for _, plan, _ in seen] == [3, 4, 5]
        for bound, plan, result in seen:
            assert plan.query is bound
            assert len(result.rows) == 4
            assert plan.estimated_ms == events.plan_for(bound).estimated_ms


# -- (e) views match the bound statement ---------------------------------------------------------


@pytest.mark.matview
def test_a_view_serves_its_own_literal_only(session):
    five = "SELECT sum(revenue) FROM sales WHERE quantity = 5 GROUP BY region"
    six = five.replace("= 5", "= 6")
    base = {sql: session.sql(sql) for sql in (five, six)}
    session.create_view("mv_five", five)

    served = session.sql(five)
    assert served.view_hits == {"mv_five": "served"}
    assert sorted(map(str, served.rows)) == sorted(map(str, base[five].rows))
    other = session.sql(six)
    assert other.view_hits == {}
    assert other.rows == base[six].rows
    assert other.cost.components == base[six].cost.components
    # Same shape, one plan — and the plan knows a view may match it.
    assert session.plan_for(five).paths is session.plan_for(six).paths
    assert session.plan_for(five).view_rewrite.view == "mv_five"
    assert session.plan_for(six).view_rewrite is None
    assert "rewrite: materialized view mv_five" in session.explain(five)
    assert "rewrite:" not in session.explain(six)
    # The AST, or the text prepared: it is the bound statement that matches.
    assert session.execute(session.parse(five)).view_hits == {"mv_five": "served"}
    assert session.prepare(five).execute().view_hits == {"mv_five": "served"}
    assert session.prepare(six).execute().view_hits == {}
    stats = session.stats()
    assert (stats.view_rewrite_hits, stats.view_rewrite_misses) == (3, 0)


# -- (f) recurring texts re-derive nothing ---------------------------------------------------------


@pytest.fixture
def derivations(monkeypatch):
    """Count every scan / aggregate / shard decision derived."""
    counts = {"scan": 0, "aggregate": 0, "shard": 0}

    def counting(kind, derive):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return derive(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(access.AccessPath, "_derive_decision",
                        counting("scan", access.AccessPath._derive_decision))
    monkeypatch.setattr(access, "derive_aggregate_strategy",
                        counting("aggregate", agg_pushdown.derive_aggregate_strategy))
    monkeypatch.setattr(access, "derive_shard_decision",
                        counting("shard", shard.derive_shard_decision))
    return counts


@pytest.mark.parametrize("store", [Store.ROW, Store.COLUMN])
def test_sibling_literals_of_a_recurring_shape_rederive_nothing(
    database_factory, store, derivations
):
    session = connect(database=database_factory(store))
    selects = [f"SELECT id, revenue FROM sales WHERE product = {p}" for p in range(16)]
    windows = [
        f"SELECT sum(revenue), count(*) FROM sales WHERE product BETWEEN {p} AND {p + 9} "
        "GROUP BY region" for p in range(0, 40, 10)
    ]
    for _ in range(2):  # warm-up: every sibling derives once
        for sql in selects + windows:
            session.sql(sql)
    assert derivations["scan"] == 20 and derivations["aggregate"] == 4
    before = dict(derivations)
    stats = session.stats()
    for _ in range(3):
        for sql in selects + windows:
            session.sql(sql)
    assert derivations == before
    after = session.stats()
    assert after.plan_cache_misses == stats.plan_cache_misses == 2
    assert after.statements_parsed == stats.statements_parsed == 2
    # A write moves the zone token: each sibling re-derives exactly once more.
    session.sql("UPDATE sales SET quantity = 1 WHERE id = 1")
    for _ in range(2):
        for sql in selects:
            session.sql(sql)
    assert derivations["scan"] == before["scan"] + 1 + 16


@pytest.mark.parametrize("store, derived", [(Store.ROW, 1), (Store.COLUMN, 10)])
def test_a_path_that_can_never_shard_derives_no_shard_verdicts(
    database_factory, store, derived, derivations
):
    """Structural ineligibility is the path's: a row-store path decides it
    when built, so its statements derive no shard verdict (the one counted
    is the planner's, for ``EXPLAIN``); a column-store path derives one per
    distinct statement, as before."""
    session = connect(database=database_factory(store))
    for key in range(10):
        session.sql(f"SELECT id FROM sales WHERE product = {key}")
    assert derivations["shard"] == derived
    path = session.plan_for("SELECT id FROM sales WHERE product = 1").paths["sales"]
    assert path.never_shards == (
        "not a plain column store" if store is Store.ROW else None
    )


@pytest.mark.shard
def test_a_table_moved_to_the_column_store_shards_on_its_next_statement(
    database_factory,
):
    """The store move builds a new path, and the new path may shard: the
    next statement is the gate's to decide."""
    session = connect(database=database_factory(Store.ROW))
    sql = "SELECT sum(revenue), count(*) FROM sales GROUP BY region"
    with shard.shard_config(fan_out=2, min_rows=1):
        assert session.sql(sql).shard_stats == {}
        assert "shards:" not in session.explain(sql)
        session.move_table("sales", Store.COLUMN)
        moved = session.sql(sql)
        assert moved.shard_stats["sales"][0] == 2
        assert session.plan_for(sql).paths["sales"].never_shards is None
        assert "shards: fan-out 2" in session.explain(sql)
    session.close()


# -- SessionStats says what happened ----------------------------------------------------------------


def test_parse_counters_count_grammar_runs(session):
    for key in range(10):
        session.sql(f"SELECT id FROM sales WHERE id = {key}")
    stats = session.stats()
    assert (stats.statements_parsed, stats.parse_cache_hits) == (1, 9)  # template
    for key in range(10):
        session.sql(f"SELECT id FROM sales WHERE id = {key}")
    stats = session.stats()
    assert (stats.statements_parsed, stats.parse_cache_hits) == (1, 19)  # exact text
    # `session.parse` goes through the same two memos.
    parsed = session.parse("SELECT id FROM sales WHERE id = 99")
    assert parsed.predicate.value == 99
    assert session.parse("SELECT id FROM sales WHERE id = 99") is parsed
    stats = session.stats()
    assert (stats.statements_parsed, stats.parse_cache_hits) == (1, 21)
    assert (stats.plan_cache_hits, stats.plan_cache_misses) == (19, 1)
    # An AST statement parses nothing and is a plan lookup like any other
    # (by its literal-free fingerprint: its first one plans).
    session.execute(parsed)
    session.execute(session.parse("SELECT id FROM sales WHERE id = 98"))
    stats = session.stats()
    assert (stats.statements_parsed, stats.parse_cache_hits) == (1, 22)
    assert (stats.plan_cache_hits, stats.plan_cache_misses) == (20, 2)
