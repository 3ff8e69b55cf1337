"""Scalar/vectorized equivalence of the columnar batch pipeline.

The batch pipeline (see ``repro.engine.executor`` docstring) must be a pure
wall-clock optimisation: identical query results, identical
:class:`CostBreakdown` charges.  These tests pin that down with

* property-style randomized workloads executed against both stores
  (results must agree, costs must be deterministic),
* direct scalar-vs-vectorized comparisons for predicate evaluation and
  grouped aggregation, and
* edge cases: empty tables, all-NULL columns, single-row batches.
"""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.batch import (
    ColumnBatch,
    EncodedColumn,
    values_to_array,
    vectorized_value_mask,
)
from repro.engine.column_store import ColumnStoreTable
from repro.engine.compression import ColumnDictionary, CompressedColumn
from repro.engine.database import HybridDatabase
from repro.engine.executor import aggregates as aggregates_module
from repro.engine.executor.aggregates import (
    GroupedAggregation,
    aggregate_values,
    merge_partition_partials,
    partition_partial_rows,
)
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import Column, TableSchema
from repro.engine.table import load_rows
from repro.engine.types import DataType, Store
from repro.query.ast import AggregateFunction, AggregateSpec
from repro.query.builder import aggregate, select
from repro.query.predicates import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
)

NAN = float("nan")

# A division over an empty code slot, a NaN compared where a mask should have
# excluded it: numpy only warns.  Here that is an error.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SCHEMA = TableSchema.build(
    "facts",
    [
        ("id", DataType.INTEGER),
        ("region", DataType.VARCHAR),
        ("amount", DataType.DOUBLE),
        ("quantity", DataType.INTEGER),
    ],
    primary_key=["id"],
)


def make_rows(rng, n):
    return [
        {
            "id": i,
            "region": f"region_{rng.randrange(5)}",
            "amount": round(rng.uniform(0.0, 100.0), 2),
            "quantity": rng.randrange(0, 10),
        }
        for i in range(n)
    ]


def build_databases(rows):
    databases = {}
    for store in Store:
        database = HybridDatabase()
        database.create_table(SCHEMA, store=store)
        if rows:
            database.load_rows("facts", rows)
        databases[store] = database
    return databases


def random_queries(rng):
    predicates = [
        None,
        Comparison("amount", CompareOp.GE, round(rng.uniform(0, 100), 1)),
        Between("quantity", 2, 7),
        Or((Comparison("region", CompareOp.EQ, "region_1"),
            Comparison("quantity", CompareOp.LT, 3))),
        And((Comparison("amount", CompareOp.LT, 80.0),
             Not(Comparison("region", CompareOp.EQ, "region_0")))),
        InList("region", ("region_2", "region_3")),
    ]
    queries = []
    for predicate in predicates:
        builder = aggregate("facts").sum("amount").avg("quantity").count()
        if rng.random() < 0.5:
            builder = builder.group_by("region")
        if predicate is not None:
            builder = builder.where(predicate)
        queries.append(builder.build())
        sel = select("facts")
        if predicate is not None:
            sel = sel.where(predicate)
        queries.append(sel.build())
    queries.append(aggregate("facts").min("amount").max("amount").build())
    queries.append(aggregate("facts").min("region").max("region").build())
    return queries


def assert_rows_equal(left, right):
    assert len(left) == len(right)
    for row_left, row_right in zip(left, right):
        assert set(row_left) == set(row_right)
        for key in row_left:
            value_left, value_right = row_left[key], row_right[key]
            if isinstance(value_left, float) or isinstance(value_right, float):
                assert value_left == pytest.approx(value_right)
            else:
                assert value_left == value_right


class TestRandomizedWorkloadEquivalence:
    """Both stores agree on results; cost accounting is deterministic."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_stores_agree_and_costs_are_deterministic(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng, rng.randrange(1, 200))
        databases = build_databases(rows)
        twin = build_databases(rows)  # independently built duplicate
        for query in random_queries(rng):
            results = {
                store: database.execute(query)
                for store, database in databases.items()
            }
            assert_rows_equal(results[Store.ROW].rows, results[Store.COLUMN].rows)
            # Re-executing the same query on an identically built database
            # must charge the bit-identical CostBreakdown: the vectorized
            # pipeline may not perturb accounting.
            for store, result in results.items():
                twin_result = twin[store].execute(query)
                assert twin_result.cost.components == result.cost.components
                assert_rows_equal(result.rows, twin_result.rows)

    def test_empty_table(self):
        databases = build_databases([])
        query = aggregate("facts").sum("amount").group_by("region").build()
        for database in databases.values():
            result = database.execute(query)
            assert result.rows == []
        ungrouped = aggregate("facts").sum("amount").count().build()
        for database in databases.values():
            result = database.execute(ungrouped)
            assert result.rows == [{"sum_amount": None, "count_star": 0}]

    def test_nan_rows_agree_across_stores_and_scalar(self):
        rows = [
            {"id": 0, "region": "a", "amount": 0.0, "quantity": 1},
            {"id": 1, "region": "a", "amount": float("nan"), "quantity": 2},
            {"id": 2, "region": "b", "amount": 5.0, "quantity": 3},
            {"id": 3, "region": "b", "amount": 20.0, "quantity": 4},
        ]
        databases = build_databases(rows)
        predicates = [
            Between("amount", -1.0, 10.0),
            Comparison("amount", CompareOp.GE, 1.0),
            Comparison("amount", CompareOp.LT, 30.0),
            Comparison("amount", CompareOp.NE, 5.0),
        ]
        for predicate in predicates:
            expected = [row["id"] for row in rows if predicate.evaluate(row)]
            for store, database in databases.items():
                result = database.execute(select("facts").where(predicate).build())
                assert [row["id"] for row in result.rows] == expected, (
                    f"{predicate!r} on {store}"
                )

    def test_single_row_batch(self):
        rows = make_rows(random.Random(9), 1)
        databases = build_databases(rows)
        query = (
            aggregate("facts").sum("amount").group_by("region")
            .where(Comparison("quantity", CompareOp.GE, 0)).build()
        )
        results = [db.execute(query).rows for db in databases.values()]
        assert_rows_equal(results[0], results[1])
        assert len(results[0]) == 1


NULLABLE_SCHEMA = TableSchema(
    "sparse",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("note", DataType.VARCHAR, nullable=True),
        Column("score", DataType.DOUBLE, nullable=True),
    ),
)


class TestAllNullColumns:
    def test_all_null_column_aggregates_and_filters(self):
        rows = [{"id": i} for i in range(10)]
        for store_cls in (RowStoreTable, ColumnStoreTable):
            table = store_cls(NULLABLE_SCHEMA)
            load_rows(table, rows)
            assert table.column_values("score") == [None] * 10
            null_positions = table.filter_positions(IsNull("score"))
            assert list(null_positions) == list(range(10))
            eq_positions = table.filter_positions(
                Comparison("score", CompareOp.EQ, 1.0)
            )
            assert len(eq_positions) == 0

    def test_null_inserts_into_all_null_dictionary(self):
        # Per-row inserts of NULL must keep working once the dictionary holds
        # NULL (regression guard for the bisect-based dictionary lookup).
        table = ColumnStoreTable(NULLABLE_SCHEMA)
        table.insert_rows([{"id": 1}])
        table.insert_rows([{"id": 2}, {"id": 3, "score": None}])
        assert table.column_values("score") == [None, None, None]
        table.update_rows([0], {"note": None})
        assert table.column_values("note") == [None, None, None]

    def test_all_null_aggregation_through_executor(self):
        rows = [{"id": i} for i in range(5)]
        database = HybridDatabase()
        database.create_table(NULLABLE_SCHEMA, store=Store.COLUMN)
        database.load_rows("sparse", rows)
        result = database.execute(
            aggregate("sparse").sum("score").count("score").count().build()
        )
        assert result.rows == [
            {"sum_score": None, "count_score": 0, "count_star": 5}
        ]


class TestVectorizedPredicateMask:
    """vectorized_value_mask must match Predicate.evaluate row-at-a-time."""

    values_strategy = st.lists(
        st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
        min_size=0,
        max_size=40,
    )

    @given(values=values_strategy, threshold=st.integers(min_value=-5, max_value=5),
           op=st.sampled_from(list(CompareOp)))
    @settings(max_examples=60, deadline=None)
    def test_comparison_with_nulls(self, values, threshold, op):
        arrays = {"x": values_to_array(values)}
        predicate = Comparison("x", op, threshold)
        mask = vectorized_value_mask(predicate, arrays, len(values))
        assert mask is not None
        expected = [predicate.evaluate({"x": value}) for value in values]
        assert mask.tolist() == expected

    @pytest.mark.parametrize("op", list(CompareOp))
    def test_nullable_nan_column_compares_without_warning(self, op):
        """An object column holding NULL and NaN: numpy answers the ordered
        comparison right but used to warn ``invalid value encountered``."""
        values = [None, float("nan"), 1.5, 5.0]
        predicate = Comparison("x", op, 1.0)
        mask = vectorized_value_mask(predicate, {"x": values_to_array(values)}, 4)
        assert mask.tolist() == [predicate.evaluate({"x": value}) for value in values]

    @given(values=values_strategy)
    @settings(max_examples=40, deadline=None)
    def test_composite_predicates(self, values):
        arrays = {"x": values_to_array(values)}
        predicate = Or((
            And((Comparison("x", CompareOp.GE, -1), Comparison("x", CompareOp.LE, 2))),
            Not(Comparison("x", CompareOp.NE, 4)),
            IsNull("x"),
            Between("x", -4, -3),
            InList("x", (5, None)),
        ))
        mask = vectorized_value_mask(predicate, arrays, len(values))
        assert mask is not None
        expected = [predicate.evaluate({"x": value}) for value in values]
        assert mask.tolist() == expected

    def test_null_literal_never_matches(self):
        arrays = {"x": values_to_array([1, 2, None])}
        for op in CompareOp:
            mask = vectorized_value_mask(Comparison("x", op, None), arrays, 3)
            assert mask.tolist() == [False, False, False]

    def test_nan_fails_between_like_scalar(self):
        values = [0.0, float("nan"), 5.0, 20.0]
        arrays = {"x": values_to_array(values)}
        predicate = Between("x", -1.0, 10.0)
        mask = vectorized_value_mask(predicate, arrays, 4)
        expected = [predicate.evaluate({"x": value}) for value in values]
        assert expected == [True, False, True, False]  # NaN fails both comparisons
        assert mask.tolist() == expected

    def test_nul_string_literal_falls_back_to_scalar(self):
        values = ["b", "0\x00", "a", "0"]
        arrays = {"x": values_to_array(values)}
        for predicate in (
            Comparison("x", CompareOp.EQ, "0\x00"),
            InList("x", ("0\x00",)),
            Between("x", "0\x00", "a"),
        ):
            mask = vectorized_value_mask(predicate, arrays, 4)
            expected = [predicate.evaluate({"x": value}) for value in values]
            assert mask is None or mask.tolist() == expected
        # And the end-to-end path still answers correctly via the fallback.
        from repro.engine.batch import evaluate_predicate_mask

        mask = evaluate_predicate_mask(Comparison("x", CompareOp.EQ, "0\x00"), arrays, 4)
        assert mask.tolist() == [False, True, False, False]

    def test_nan_in_list_literal_matches_nothing(self):
        # IN is chained equality: a NaN member matches no row (NaN == NaN is
        # false), in the scalar reference and vectorially alike — identity
        # matching would depend on how a store boxes its floats.
        from repro.engine.batch import evaluate_predicate_mask

        nan = float("nan")
        values = [1.0, nan, -2.0, None]
        arrays = {"x": values_to_array(values)}
        predicate = InList("x", (nan, -2.0))
        mask = vectorized_value_mask(predicate, arrays, 4)
        expected = [predicate.evaluate({"x": value}) for value in values]
        assert mask is not None
        assert mask.tolist() == expected == [False, False, True, False]
        assert evaluate_predicate_mask(predicate, arrays, 4).tolist() == expected


ALL_FIVE = (
    AggregateSpec(AggregateFunction.SUM, "a"),
    AggregateSpec(AggregateFunction.AVG, "a", alias="avg_a"),
    AggregateSpec(AggregateFunction.MIN, "a", alias="min_a"),
    AggregateSpec(AggregateFunction.MAX, "a", alias="max_a"),
    AggregateSpec(AggregateFunction.COUNT, "a", alias="count_a"),
    AggregateSpec(AggregateFunction.COUNT, "*"),
)


def encoded(values, orphans=()):
    """*values* as an ``EncodedColumn`` whose dictionary also holds
    *orphans* — entries no row uses, as after an UPDATE, a DELETE or a
    filter."""
    dtype = (
        DataType.VARCHAR if any(isinstance(value, str) for value in values)
        else DataType.DOUBLE
    )
    dictionary = ColumnDictionary(dtype)
    codes = dictionary.bulk_build(list(orphans) + list(values))
    return EncodedColumn(codes[len(orphans):], dictionary)


#: Multiples of 1/8 (never -0.0): every sum of a few hundred is exact in any
#: order, so split-then-merge can be compared bit for bit too.
eighths = st.integers(-40, 40).map(lambda i: i / 8)


@st.composite
def encoded_group_bys(draw):
    """``(key columns, aggregate input, num_rows)`` with 1-3 encoded keys.

    Dictionaries carry orphaned entries (two keys with 70 of them put the
    combined space past the dense bound, fewer keep it inside; either way
    capacity >> rows), the NULL key, and — for float keys — NaN.
    """
    num_rows = draw(st.one_of(st.integers(0, 40), st.integers(300, 400)))
    keys = []
    for _ in range(draw(st.integers(1, 3))):
        pool = draw(st.sampled_from([
            ["a", "b", "c", None],
            [0.5, 1.5, None],
            [0.5, float("nan"), 2.5],
        ]))
        values = draw(st.lists(st.sampled_from(pool),
                               min_size=num_rows, max_size=num_rows))
        if num_rows and draw(st.booleans()):
            # A key whose only row is the last: the first-occurrence search
            # must grow its prefix to the full pass.
            values[-1] = "lonely" if isinstance(pool[0], str) else 99.5
        orphan_count = draw(st.sampled_from([0, 3, 70]))
        if isinstance(pool[0], str):
            orphans = [f"orphan{i}" for i in range(orphan_count)]
        else:
            orphans = [100.0 + i for i in range(orphan_count)]
        if draw(st.booleans()):
            orphans.append(None)
        keys.append(encoded(values, orphans))
    kind = draw(st.sampled_from(
        ["encoded float", "encoded int", "float array", "int array", "objects"]
    ))
    element = st.integers(-9, 9) if kind.endswith("int") else eighths
    if "int" not in kind:
        element = st.one_of(element, st.builds(float, st.just("nan")))
    if kind in ("encoded float", "encoded int", "objects"):
        element = st.one_of(st.none(), element)
    amounts = draw(st.lists(element, min_size=num_rows, max_size=num_rows))
    if kind.startswith("encoded"):
        amounts = encoded(amounts, orphans=[77 if kind == "encoded int" else 77.5])
    else:
        amounts = values_to_array(amounts)
        if kind == "int array":
            amounts = amounts.astype(np.int64)
        elif kind == "float array":
            amounts = amounts.astype(np.float64)
    return keys, amounts, num_rows


class TestGroupedAggregationEquivalence:
    """The vectorized group-by — encoded keys grouped in code space, plain
    keys factorized by np.unique — must match the scalar accumulator loop
    exactly: same groups in the same order, floats bit for bit, ints as ints
    (``repr`` pins all of that, and NaN to NaN)."""

    @given(case=encoded_group_bys(),
           first_prefix=st.sampled_from([1, 4, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_by_code_matches_scalar(self, case, first_prefix):
        keys, amounts, num_rows = case
        aggregation = GroupedAggregation(
            aggregates=ALL_FIVE,
            group_by_names=[f"k{index}" for index in range(len(keys))],
        )
        inputs = [amounts] * 5 + [None]
        # A short first prefix makes a few hundred rows walk every growth
        # step of the first-occurrence search.
        with mock.patch.object(aggregates_module, "_FIRST_PREFIX", first_prefix):
            by_code = aggregation._run_grouped_vectorized(inputs, keys, num_rows)
            result = aggregation.run(inputs, keys, num_rows)
        scalar = aggregation._run_grouped_scalar(inputs, keys, num_rows)
        # NaN keys group in code space too: every NaN is one group.
        assert by_code is not None
        assert repr(by_code) == repr(result) == repr(scalar)

    @given(case=encoded_group_bys(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_split_then_merge_matches_unsplit(self, case, data):
        keys, amounts, num_rows = case
        names = [f"k{index}" for index in range(len(keys))]
        part_of_row = np.asarray(data.draw(st.lists(
            st.integers(0, 2), min_size=num_rows, max_size=num_rows
        )), dtype=np.int64)
        partials = []
        for part in range(3):
            rows = np.flatnonzero(part_of_row == part)
            if len(rows):
                partials.append(partition_partial_rows(
                    ALL_FIVE, names,
                    [amounts.take(rows) if isinstance(amounts, EncodedColumn)
                     else amounts[rows]] * 5 + [None],
                    [column.take(rows) for column in keys], len(rows),
                ))
        merged = merge_partition_partials(ALL_FIVE, names, partials)
        # The concatenation of the parts in part order is what the merge
        # must reproduce, emission order included.
        order = np.argsort(part_of_row, kind="stable")
        unsplit = GroupedAggregation(aggregates=ALL_FIVE, group_by_names=names).run(
            [amounts.take(order) if isinstance(amounts, EncodedColumn)
             else amounts[order]] * 5 + [None],
            [column.take(order) for column in keys], num_rows,
        )
        assert repr(merged) == repr(unsplit)

    @pytest.mark.parametrize("num_rows", [1, 5_000, 70_000])
    def test_first_occurrence_at_both_ends(self, num_rows):
        # Code 2's only row is the last (the prefix search's worst case: it
        # must grow to the full pass), code 1's first row is row 0, and the
        # 5 000-entry dictionary dwarfs the rows at the small sizes.
        words = [f"w{i:04d}" for i in range(5_000)]
        values = ["w0001"] + ["w0003", "w0001"] * ((num_rows - 1) // 2)
        values[-1] = "w0002"
        keys = [encoded(values, orphans=words)]
        amounts = values_to_array([float(i % 7) for i in range(len(values))])
        aggregation = GroupedAggregation(
            aggregates=(AggregateSpec(AggregateFunction.SUM, "a"),
                        AggregateSpec(AggregateFunction.COUNT, "*")),
            group_by_names=["k"],
        )
        by_code = aggregation._run_grouped_vectorized(
            [amounts, None], keys, len(values)
        )
        assert by_code == aggregation._run_grouped_scalar(
            [amounts, None], keys, len(values)
        )
        assert by_code[-1]["k"] == "w0002" and by_code[-1]["count_star"] == 1

    @pytest.mark.parametrize("aggregates, bytes_per_row", [
        ((AggregateSpec(AggregateFunction.SUM, "v"),
          AggregateSpec(AggregateFunction.COUNT, "*")), 8.5),
        ((AggregateSpec(AggregateFunction.COUNT, "*"),), 0.5),
    ])
    def test_each_row_is_read_once_per_aggregate(self, aggregates, bytes_per_row):
        """A guard that reads no clock: the peak of traced allocations
        during a code-space group-by.  SUM gathers one float64 weight per
        row (8 bytes); a per-row renumbering of the group ids would hold a
        second n-long array next to it (16), a per-aggregate recount or
        renumbering would give COUNT(*) one (8)."""
        num_rows = 200_000
        rng = np.random.default_rng(7)
        group = ColumnDictionary(DataType.VARCHAR)
        group.bulk_build([f"g{i:02d}" for i in range(16)])
        value = ColumnDictionary(DataType.INTEGER)
        value.bulk_build(list(range(1, 100)))
        keys = [EncodedColumn(rng.integers(0, 16, num_rows), group)]
        inputs = [
            None if spec.column == "*"
            else EncodedColumn(rng.integers(0, 99, num_rows), value)
            for spec in aggregates
        ]
        aggregation = GroupedAggregation(aggregates=aggregates, group_by_names=["g"])
        aggregation.run(inputs, keys, num_rows)  # warm: decoded dictionaries cache
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rows = aggregation.run(inputs, keys, num_rows)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 16
        assert peak / num_rows <= bytes_per_row

    @pytest.mark.parametrize("seed", range(5))
    def test_vectorized_matches_scalar(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 120)
        keys = values_to_array([f"k{rng.randrange(6)}" for _ in range(n)])
        second = values_to_array([rng.randrange(3) for _ in range(n)])
        amounts = values_to_array([round(rng.uniform(-5, 5), 3) for _ in range(n)])
        aggregation = GroupedAggregation(
            aggregates=(
                AggregateSpec(AggregateFunction.SUM, "a"),
                AggregateSpec(AggregateFunction.AVG, "a", alias="avg_a"),
                AggregateSpec(AggregateFunction.MIN, "a", alias="min_a"),
                AggregateSpec(AggregateFunction.MAX, "a", alias="max_a"),
                AggregateSpec(AggregateFunction.COUNT, "*"),
            ),
            group_by_names=["k", "s"],
        )
        inputs = [amounts, amounts, amounts, amounts, None]
        vectorized = aggregation._run_grouped_vectorized(inputs, [keys, second], n)
        scalar = aggregation._run_grouped_scalar(inputs, [keys, second], n)
        assert vectorized is not None
        assert_rows_equal(vectorized, scalar)

    @pytest.mark.parametrize("order, least", [
        ((5.0, NAN, 1.0), 1.0), ((NAN, 5.0, 1.0), 1.0), ((NAN, NAN), NAN),
    ])
    def test_nan_minmax_matches_scalar_fold(self, order, least):
        # NaN ranks above every number: MAX is NaN if any input is, MIN only
        # if every input is — in the vectorized path and the scalar fold, in
        # any row order.
        values = values_to_array(list(order))
        aggregation = GroupedAggregation(
            aggregates=(
                AggregateSpec(AggregateFunction.MIN, "v"),
                AggregateSpec(AggregateFunction.MAX, "v"),
            ),
            group_by_names=[],
        )
        row = aggregation.run([values, values], [], len(order))[0]
        reference_min = aggregate_values(AggregateFunction.MIN, values.tolist())
        reference_max = aggregate_values(AggregateFunction.MAX, values.tolist())
        assert repr(row["min_v"]) == repr(reference_min) == repr(least)
        assert repr(row["max_v"]) == repr(reference_max) == "nan"
        keys = values_to_array(["g"] * len(order))
        grouped = GroupedAggregation(
            aggregates=(AggregateSpec(AggregateFunction.MIN, "v"),),
            group_by_names=["k"],
        ).run([values], [keys], len(order))
        assert repr(grouped[0]["min_v"]) == repr(reference_min)

    def test_null_group_keys_fall_back(self):
        keys = values_to_array(["a", None, "a", None])
        amounts = values_to_array([1.0, 2.0, 3.0, 4.0])
        aggregation = GroupedAggregation(
            aggregates=(AggregateSpec(AggregateFunction.SUM, "a"),),
            group_by_names=["k"],
        )
        rows = aggregation.run([amounts], [keys], 4)
        assert rows == [{"k": "a", "sum_a": 4.0}, {"k": None, "sum_a": 6.0}]


class TestColumnarMaintenance:
    """Satellite fixes: dictionary insert shift, bulk extend, columnar delete."""

    def test_mid_dictionary_insert_shifts_codes(self):
        column = CompressedColumn("v", DataType.VARCHAR)
        for value in ["b", "d", "b"]:
            column.append(value)
        column.append("c")  # inserts mid-dictionary, shifting "d"
        assert column.all_values() == ["b", "d", "b", "c"]
        assert list(column.dictionary.values) == ["b", "c", "d"]
        assert column.dictionary.encode_existing("d") == 2

    def test_extend_matches_per_value_append(self):
        rng = random.Random(3)
        values = [rng.randrange(20) for _ in range(200)]
        bulk = CompressedColumn("v", DataType.INTEGER)
        bulk.extend(values[:50])
        bulk.extend(values[50:])
        reference = CompressedColumn("v", DataType.INTEGER)
        for value in values:
            reference.append(value)
        assert bulk.all_values() == reference.all_values()
        assert list(bulk.dictionary.values) == list(reference.dictionary.values)
        assert bulk.codes.tolist() == reference.codes.tolist()

    @pytest.mark.parametrize("seed", range(3))
    def test_columnar_delete_matches_row_store(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng, 60)
        row_store = RowStoreTable(SCHEMA)
        load_rows(row_store, rows)
        column_store = ColumnStoreTable(SCHEMA)
        load_rows(column_store, rows)
        doomed = rng.sample(range(60), 25)
        assert row_store.delete_rows(doomed) == column_store.delete_rows(doomed)
        assert row_store.all_rows() == column_store.all_rows()
        # The dictionaries shrink to the surviving values: rebuilding from
        # scratch yields the identical column state.
        rebuilt = ColumnStoreTable(SCHEMA)
        load_rows(rebuilt, column_store.all_rows())
        for name in SCHEMA.column_names:
            assert (
                column_store.column_distinct_count(name)
                == rebuilt.column_distinct_count(name)
            )
            assert column_store.column_values(name) == rebuilt.column_values(name)

    def test_delete_all_rows(self):
        column_store = ColumnStoreTable(SCHEMA)
        load_rows(column_store, make_rows(random.Random(1), 10))
        assert column_store.delete_rows(list(range(10))) == 10
        assert column_store.num_rows == 0
        assert column_store.all_rows() == []
        # The emptied table accepts fresh rows.
        load_rows(column_store, make_rows(random.Random(2), 3))
        assert column_store.num_rows == 3


class TestColumnBatch:
    def test_take_concat_to_rows(self):
        batch = ColumnBatch.from_lists(
            {"a": [1, 2, 3], "b": ["x", "y", "z"]}
        )
        taken = batch.take(np.array([True, False, True]))
        assert taken.num_rows == 2
        assert taken.to_rows() == [{"a": 1, "b": "x"}, {"a": 3, "b": "z"}]
        merged = ColumnBatch.concat([taken, batch])
        assert merged.num_rows == 5
        assert merged.column_list("a") == [1, 3, 1, 2, 3]

    def test_null_mask(self):
        batch = ColumnBatch.from_lists({"a": [1, None, 3]})
        assert batch.null_mask("a").tolist() == [False, True, False]
        assert ColumnBatch.from_lists({"a": [1, 2]}).null_mask("a") is None
