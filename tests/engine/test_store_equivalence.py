"""Property-based tests: both stores must return identical query results.

The storage advisor only makes sense if moving a table between stores never
changes query semantics — only costs.  These tests generate random data and
random queries and assert that the row store and the column store agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.column_store import ColumnStoreTable
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.types import DataType
from repro.query.predicates import Between, CompareOp, Comparison

SCHEMA = TableSchema.build(
    "events",
    [
        ("id", DataType.INTEGER),
        ("category", DataType.VARCHAR),
        ("amount", DataType.DOUBLE),
        ("priority", DataType.INTEGER),
    ],
    primary_key=["id"],
)


rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=1_000),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=1,
    max_size=120,
).map(
    lambda triples: [
        {"id": i, "category": c, "amount": float(a), "priority": p}
        for i, (c, a, p) in enumerate(triples)
    ]
)


def build_both(rows):
    row_store = RowStoreTable(SCHEMA)
    load_rows(row_store, rows)
    column_store = ColumnStoreTable(SCHEMA)
    load_rows(column_store, rows)
    return row_store, column_store


class TestStoreEquivalence:
    @given(rows=rows_strategy, value=st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=40, deadline=None)
    def test_equality_filter_agrees(self, rows, value):
        row_store, column_store = build_both(rows)
        predicate = Comparison("amount", CompareOp.EQ, float(value))
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(
        rows=rows_strategy,
        low=st.integers(min_value=0, max_value=500),
        width=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_filter_agrees(self, rows, low, width):
        row_store, column_store = build_both(rows)
        predicate = Between("amount", float(low), float(low + width))
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(rows=rows_strategy, op=st.sampled_from(list(CompareOp)),
           threshold=st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_comparison_operators_agree(self, rows, op, threshold):
        row_store, column_store = build_both(rows)
        predicate = Comparison("priority", op, threshold)
        row_positions = set(int(p) for p in row_store.filter_positions(predicate))
        column_positions = set(int(p) for p in column_store.filter_positions(predicate))
        assert row_positions == column_positions

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_full_materialisation_agrees(self, rows):
        row_store, column_store = build_both(rows)
        assert row_store.all_rows() == column_store.all_rows()

    @given(rows=rows_strategy, category=st.sampled_from(["a", "b", "c", "d"]))
    @settings(max_examples=30, deadline=None)
    def test_column_values_after_filter_agree(self, rows, category):
        row_store, column_store = build_both(rows)
        predicate = Comparison("category", CompareOp.EQ, category)
        row_positions = row_store.filter_positions(predicate)
        column_positions = column_store.filter_positions(predicate)
        assert row_store.column_values("amount", row_positions) == (
            column_store.column_values("amount", column_positions)
        )

    @given(rows=rows_strategy, new_priority=st.integers(min_value=10, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_updates_agree(self, rows, new_priority):
        row_store, column_store = build_both(rows)
        predicate = Comparison("category", CompareOp.EQ, "a")
        row_store.update_rows(
            row_store.filter_positions(predicate) if rows else [], {"priority": new_priority}
        )
        column_store.update_rows(
            column_store.filter_positions(predicate) if rows else [], {"priority": new_priority}
        )
        assert row_store.all_rows() == column_store.all_rows()

    @given(rows=rows_strategy)
    @settings(max_examples=30, deadline=None)
    def test_integer_sum_stays_integral_on_every_path(self, rows):
        """SUM over an int column is an int everywhere — including the
        scalar reference (whose accumulator historically started at the
        float 0.0 and drifted to float where the vectorized paths kept
        ints) and the code-domain reduction, with identical values."""
        from repro.engine.database import HybridDatabase
        from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
        from repro.engine.executor.aggregates import aggregate_values
        from repro.engine.types import Store
        from repro.query.ast import AggregateFunction
        from repro.query.builder import aggregate

        expected = sum(row["priority"] for row in rows)
        scalar = aggregate_values(
            AggregateFunction.SUM, [row["priority"] for row in rows]
        )
        assert scalar == expected and type(scalar) is int
        query = aggregate("events").sum("priority").build()
        for store in Store:
            database = HybridDatabase()
            database.create_table(SCHEMA, store=store)
            database.load_rows("events", rows)
            for context in (aggregate_pushdown_disabled, None):
                if context is None:
                    value = database.execute(query).rows[0]["sum_priority"]
                else:
                    with context():
                        value = database.execute(query).rows[0]["sum_priority"]
                assert value == expected, store
                assert type(value) is int, (store, context)


NULLABLE_SCHEMA = TableSchema(
    "ledger",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("team", DataType.VARCHAR),
        Column("k", DataType.INTEGER, nullable=True),
        Column("q", DataType.BIGINT, nullable=True),
        Column("b", DataType.BOOLEAN, nullable=True),
    ),
)


def _nullable_rows():
    """400 rows; ``k`` repeats a few small values (so the ungrouped SUM stays
    in the dictionary domain), ``q`` holds values past 2**53, and every fifth,
    seventh or eleventh cell of the three is NULL."""
    return [
        {
            "id": i,
            "team": f"team_{i % 3}",
            "k": None if i % 5 == 0 else i % 4,
            "q": None if i % 7 == 0 else 2 ** 60 + i % 6,
            "b": None if i % 11 == 0 else i % 9 == 0,
        }
        for i in range(400)
    ]


class TestNullableIntegerAggregates:
    """SUM / AVG over a *nullable* integer or boolean column: the column
    store's dictionary keeps NULL in an object-typed slot, and the
    dictionary-domain reduction once coerced such a dictionary to float64 —
    ``SUM(k)`` read ``513.0`` for ``513`` and ``SUM(q)`` lost its low digits.
    The differential fuzzer compares with ``math.isclose`` and saw neither;
    these compare ``repr`` — value *and* type."""

    QUERIES = {
        "ungrouped": lambda b: b,
        "grouped": lambda b: b.group_by("team"),
        "filtered": lambda b: b.where(Comparison("id", CompareOp.LT, 300)),
        "filtered and grouped": lambda b: b.group_by("team").where(
            Between("id", 50, 350)
        ),
    }

    @pytest.mark.parametrize("shape", sorted(QUERIES))
    def test_column_store_matches_row_store_in_value_and_type(self, shape):
        from repro.engine.database import HybridDatabase
        from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled
        from repro.engine.types import Store
        from repro.query.builder import aggregate

        query = self.QUERIES[shape](
            aggregate("ledger").sum("k").sum("q").sum("b")
            .avg("k").avg("q").avg("b")
        ).build()
        results = {}
        for store in Store:
            database = HybridDatabase()
            database.create_table(NULLABLE_SCHEMA, store=store)
            database.load_rows("ledger", _nullable_rows())
            results[store] = database.execute(query).rows
            with aggregate_pushdown_disabled():
                assert repr(database.execute(query).rows) == repr(results[store])
        assert repr(results[Store.COLUMN]) == repr(results[Store.ROW])
        for row in results[Store.COLUMN]:
            for name in ("sum_k", "sum_q", "sum_b"):
                assert type(row[name]) is int, (name, row[name])
        if shape == "ungrouped":
            rows = _nullable_rows()
            assert results[Store.COLUMN][0]["sum_q"] == sum(
                row["q"] for row in rows if row["q"] is not None
            )


# -- a NaN bound ----------------------------------------------------------------------


NAN = float("nan")

NAN_SCHEMA = TableSchema(
    "readings",
    (
        Column("id", DataType.INTEGER, primary_key=True),  # sorted-indexed in the row store
        Column("x", DataType.DOUBLE),
        Column("y", DataType.DOUBLE, nullable=True),
        Column("k", DataType.INTEGER),
        Column("day", DataType.INTEGER),
    ),
)


def _nan_rows(with_nan):
    return [
        {
            "id": i,
            "x": NAN if with_nan and i % 5 == 0 else float(i % 7),
            "y": None if i % 4 == 0 else (NAN if with_nan and i % 6 == 0 else float(i % 9)),
            "k": i % 11,
            "day": i,
        }
        for i in range(40)
    ]


class TestNanBounds:
    """``BETWEEN`` with a NaN bound: the scalar evaluator tests BETWEEN by
    exclusion (``value < low`` / ``value > high``), which a NaN bound never
    triggers — it is an open side, inclusive or not — and an ordered
    comparison with NaN matches no row.  Every layout answers that, whether
    the predicate comes as an AST or through ``?`` parameters, before and
    after a position-index build, with zone pruning on or off.

    Inclusive bounds (all SQL ``BETWEEN`` can say) always agreed; an
    *exclusive* NaN bound (``Between(..., include_low=False)``) was bisected
    by the column store's dictionary and by the row store's sorted index into
    an empty range, and the sorted index handed out every row for ``id >=
    NaN``.
    """

    BOUNDS = [(NAN, 5), (2, NAN), (NAN, NAN), (None, NAN), (NAN, None)]

    @staticmethod
    def _session(layout, with_nan):
        from repro.api import connect
        from repro.engine.partitioning import HorizontalPartitionSpec, TablePartitioning
        from repro.engine.types import Store

        session = connect()
        session.create_table(NAN_SCHEMA, Store.ROW if layout == "row" else Store.COLUMN)
        session.load_rows("readings", _nan_rows(with_nan))
        if layout == "hot+main":
            session.apply_partitioning("readings", TablePartitioning(
                horizontal=HorizontalPartitionSpec(Comparison("day", CompareOp.GE, 30))
            ))
        return session

    @staticmethod
    def _ids(result):
        return sorted(row["id"] for row in result.rows)

    @pytest.mark.parametrize("with_nan", [False, True], ids=["no-nan-cells", "nan-cells"])
    @pytest.mark.parametrize("layout", ["row", "column", "hot+main"])
    def test_every_layout_answers_the_scalar_evaluator(self, layout, with_nan):
        from repro.engine.zonemap import zone_pruning_disabled
        from repro.query.builder import select

        rows = _nan_rows(with_nan)
        session = self._session(layout, with_nan)
        predicates = [
            Between(column, low, high, include_low, include_high)
            for column in ("id", "x", "y", "k")
            for low, high in self.BOUNDS
            for include_low in (True, False)
            for include_high in (True, False)
        ] + [
            Comparison(column, op, NAN)
            for column in ("id", "x", "y", "k") for op in CompareOp
        ]

        def answers():
            for predicate in predicates:
                expected = sorted(r["id"] for r in rows if predicate.evaluate(r))
                query = select("readings").columns("id").where(predicate).build()
                assert self._ids(session.execute(query)) == expected, predicate
                with zone_pruning_disabled():
                    assert self._ids(session.execute(query)) == expected, predicate

        answers()
        if layout == "column":
            table = session.database.table_object("readings")
            for name in ("id", "x", "y", "k"):
                table.backend.compressed_column(name).build_position_index()
            answers()

    @pytest.mark.parametrize("layout", ["row", "column", "hot+main"])
    def test_parameters_bind_a_nan_bound_alike(self, layout):
        rows = _nan_rows(True)
        session = self._session(layout, True)
        for column in ("x", "y"):
            sql = f"SELECT id FROM readings WHERE {column} BETWEEN ? AND ?"
            for low, high in ((NAN, 5.0), (2.0, NAN), (NAN, NAN)):
                predicate = Between(column, low, high)
                expected = sorted(r["id"] for r in rows if predicate.evaluate(r))
                assert self._ids(session.sql(sql, [low, high])) == expected
