"""Late materialization: codes travel the pipeline, values appear at the end.

Pins the tentpole contract of the dictionary-code pipeline:

* a group-by over a dictionary-encoded string column factorizes via the
  carried codes — the dictionary decodes one value per *group*, never the
  whole column (counted by instrumenting ``ColumnDictionary.decode_array``);
* the :class:`CostBreakdown` of every query is bit-identical to the
  decode-up-front pipeline (late materialization is a wall-clock
  optimisation, not a cost-model change);
* edge cases keep the scalar reference semantics: NaN/None group keys on
  dictionary columns, empty dictionaries, dictionary entries orphaned by
  updates and deletes, and joins mixing encoded and plain key columns.
"""

import random

import numpy as np
import pytest

from repro.engine.batch import ColumnBatch, EncodedColumn
from repro.engine.column_store import ColumnStoreTable
from repro.engine.compression import ColumnDictionary
from repro.engine.database import HybridDatabase
from repro.engine.executor.aggregates import GroupedAggregation
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.table import StoredTable, load_rows
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, select
from repro.query.predicates import Between, CompareOp, Comparison, between, eq, ge, ne

SCHEMA = TableSchema.build(
    "facts",
    [
        ("id", DataType.INTEGER),
        ("region", DataType.VARCHAR),
        ("amount", DataType.DOUBLE),
        ("quantity", DataType.INTEGER),
        ("customer", DataType.INTEGER),
    ],
    primary_key=["id"],
)

DIM_SCHEMA = TableSchema.build(
    "customers",
    [
        ("customer_id", DataType.INTEGER),
        ("segment", DataType.VARCHAR),
        ("score", DataType.DOUBLE),
    ],
    primary_key=["customer_id"],
)


def make_rows(n, rng=None):
    rng = rng or random.Random(17)
    return [
        {
            "id": i,
            "region": f"region_{rng.randrange(6)}",
            "amount": round(rng.uniform(0.0, 100.0), 2),
            "quantity": rng.randrange(0, 9),
            "customer": rng.randrange(20),
        }
        for i in range(n)
    ]


def make_dim_rows(n=15):
    return [
        {"customer_id": i, "segment": f"seg_{i % 4}", "score": float(i)}
        for i in range(n)
    ]


def build_database(store, rows, dim_rows=None):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=store)
    if rows:
        database.load_rows("facts", rows)
    if dim_rows is not None:
        database.create_table(DIM_SCHEMA, store=store)
        database.load_rows("customers", dim_rows)
    return database


class DecodeCounter:
    """Counts values decoded per dictionary object."""

    def __init__(self, monkeypatch):
        self.decoded = {}
        original = ColumnDictionary.decode_array

        def counting_decode_array(dictionary, codes):
            key = id(dictionary)
            self.decoded[key] = self.decoded.get(key, 0) + len(codes)
            return original(dictionary, codes)

        monkeypatch.setattr(ColumnDictionary, "decode_array", counting_decode_array)

    def total(self):
        return sum(self.decoded.values())


class TestDecodeCounting:
    """The acceptance criterion: group keys decode per group, not per row."""

    def test_string_group_by_decodes_one_value_per_group(self, monkeypatch):
        rows = make_rows(500)
        database = build_database(Store.COLUMN, rows)
        num_groups = len({row["region"] for row in rows})

        counter = DecodeCounter(monkeypatch)
        result = database.execute(
            aggregate("facts").count().group_by("region").build()
        )
        assert len(result.rows) == num_groups
        # Only the per-group key values were decoded — not the 500-row
        # column (the old pipeline decoded all rows, then np.unique re-sorted
        # the decoded strings).
        assert counter.total() == num_groups

    def test_group_by_with_aggregate_decodes_only_per_group_values(self, monkeypatch):
        rows = make_rows(400)
        database = build_database(Store.COLUMN, rows)
        num_groups = len({row["region"] for row in rows})

        counter = DecodeCounter(monkeypatch)
        result = database.execute(
            aggregate("facts").sum("amount").group_by("region").build()
        )
        assert len(result.rows) == num_groups
        # Aggregate pushdown: amount sums in the dictionary domain (the
        # weights gather reads the dictionary's value array directly, no
        # decode call); only the per-*group* region keys decode.  Before the
        # pushdown the sum decoded all 400 amount values first.
        assert counter.total() == num_groups

    def test_group_by_with_aggregate_decodes_per_row_when_pushdown_disabled(
        self, monkeypatch
    ):
        from repro.engine.executor.agg_pushdown import aggregate_pushdown_disabled

        rows = make_rows(400)
        database = build_database(Store.COLUMN, rows)
        num_groups = len({row["region"] for row in rows})

        counter = DecodeCounter(monkeypatch)
        with aggregate_pushdown_disabled():
            result = database.execute(
                aggregate("facts").sum("amount").group_by("region").build()
            )
        assert len(result.rows) == num_groups
        # The decode-then-reduce reference: amount decodes once per row,
        # region once per group.
        assert counter.total() == len(rows) + num_groups

    def test_group_by_emission_matches_first_occurrence_order(self):
        rows = make_rows(300)
        column_result = build_database(Store.COLUMN, rows).execute(
            aggregate("facts").count().group_by("region").build()
        )
        seen = []
        for row in rows:
            if row["region"] not in seen:
                seen.append(row["region"])
        assert [row["region"] for row in column_result.rows] == seen

    def test_select_does_not_decode_unfetched_columns(self, monkeypatch):
        rows = make_rows(200)
        database = build_database(Store.COLUMN, rows)
        counter = DecodeCounter(monkeypatch)
        result = database.execute(
            select("facts").columns("id").where(eq("region", "region_1")).build()
        )
        expected = [row["id"] for row in rows if row["region"] == "region_1"]
        assert [row["id"] for row in result.rows] == expected
        # The region predicate ran on codes (dictionary translated the
        # literal); only the selected id values were decoded.
        assert counter.total() == len(expected)


def forced_decode(table, column, positions=None, accountant=None):
    return table.column_array(column, positions, accountant)


class TestCostBreakdownBitIdentical:
    """Late materialization must not perturb the simulated cost accounting."""

    def queries(self):
        return [
            aggregate("facts").count().group_by("region").build(),
            aggregate("facts").sum("amount").avg("quantity").group_by("region").build(),
            aggregate("facts").sum("amount").group_by("region", "quantity").build(),
            aggregate("facts").min("region").max("region").build(),
            (
                aggregate("facts").sum("amount")
                .where(between("amount", 10.0, 60.0)).group_by("region").build()
            ),
            (
                aggregate("facts").sum("customers.score").count()
                .join("customers", "customer", "customer_id")
                .group_by("customers.segment").build()
            ),
            select("facts").where(eq("region", "region_2")).build(),
            select("facts").columns("id", "amount").where(ge("quantity", 5)).build(),
        ]

    @pytest.mark.parametrize("store", list(Store))
    def test_costs_and_rows_match_decode_up_front_pipeline(self, store, monkeypatch):
        rows = make_rows(250)
        dim_rows = make_dim_rows()
        late = build_database(store, rows, dim_rows)
        eager = build_database(store, rows, dim_rows)
        late_results = [late.execute(query) for query in self.queries()]
        monkeypatch.setattr(StoredTable, "column_batched", forced_decode)
        eager_results = [eager.execute(query) for query in self.queries()]
        for late_result, eager_result in zip(late_results, eager_results):
            assert late_result.cost.components == eager_result.cost.components
            assert late_result.rows == eager_result.rows

    def test_partitioned_costs_match_decode_up_front_pipeline(self, monkeypatch):
        rows = make_rows(250)
        partitioning = TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("id", 200)),
            vertical=VerticalPartitionSpec(
                row_store_columns=("quantity", "customer"),
                column_store_columns=("region", "amount"),
            ),
        )
        late = build_database(Store.COLUMN, rows)
        late.apply_partitioning("facts", partitioning)
        eager = build_database(Store.COLUMN, rows)
        eager.apply_partitioning("facts", partitioning)
        queries = [
            aggregate("facts").sum("amount").group_by("region").build(),
            aggregate("facts").count().where(between("amount", 5.0, 80.0)).build(),
            select("facts").where(eq("region", "region_3")).build(),
        ]
        late_results = [late.execute(query) for query in queries]
        monkeypatch.setattr(StoredTable, "column_batched", forced_decode)
        eager_results = [eager.execute(query) for query in queries]
        for late_result, eager_result in zip(late_results, eager_results):
            assert late_result.cost.components == eager_result.cost.components
            assert late_result.rows == eager_result.rows


NULLABLE_SCHEMA = TableSchema(
    "sparse",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("note", DataType.VARCHAR, nullable=True),
        Column("score", DataType.DOUBLE, nullable=True),
        Column("amount", DataType.DOUBLE),
    ),
)


class TestGroupKeyEdgeCases:
    def test_nan_group_keys_match_row_store(self):
        nan = float("nan")
        rows = [
            {"id": 0, "region": "a", "amount": 1.0, "quantity": 1, "customer": 0},
            {"id": 1, "region": "a", "amount": nan, "quantity": 2, "customer": 0},
            {"id": 2, "region": "b", "amount": nan, "quantity": 3, "customer": 0},
            {"id": 3, "region": "b", "amount": 4.0, "quantity": 4, "customer": 0},
        ]
        query = aggregate("facts").count().sum("quantity").group_by("amount").build()
        results = {
            store: build_database(store, rows).execute(query).rows
            for store in Store
        }
        # NaN equals every NaN: the two NaN rows are one group, in both
        # stores and in the scalar reference.
        scalar = GroupedAggregation(query.aggregates, ["amount"])._run_grouped_scalar(
            [None, [row["quantity"] for row in rows]],
            [[row["amount"] for row in rows]], len(rows),
        )
        def canonical(rows_out):
            return sorted(
                (repr(row["amount"]), row["count_star"], row["sum_quantity"])
                for row in rows_out
            )
        assert canonical(scalar) == [("1.0", 1, 1), ("4.0", 1, 4), ("nan", 2, 5)]
        for rows_out in results.values():
            assert canonical(rows_out) == canonical(scalar)

    def test_none_group_key_on_all_null_dictionary_column(self):
        rows = [{"id": i, "amount": float(i)} for i in range(6)]
        for store in Store:
            database = HybridDatabase()
            database.create_table(NULLABLE_SCHEMA, store=store)
            database.load_rows("sparse", rows)
            result = database.execute(
                aggregate("sparse").count().sum("amount").group_by("note").build()
            )
            assert result.rows == [
                {"note": None, "count_star": 6, "sum_amount": 15.0}
            ], store

    def test_empty_dictionary_group_by(self):
        for store in Store:
            database = build_database(store, [])
            result = database.execute(
                aggregate("facts").count().group_by("region").build()
            )
            assert result.rows == []

    def test_update_orphaned_dictionary_entry_is_not_a_group(self):
        rows = make_rows(30)
        databases = {store: build_database(store, rows) for store in Store}
        query = aggregate("facts").count().group_by("region").build()
        for database in databases.values():
            # Rewrite every region_0 row: the dictionary entry survives
            # unused (a code gap); it must not surface as an empty group.
            from repro.query.builder import update

            database.execute(update("facts", {"region": "rewritten"}, eq("region", "region_0")))
        row_rows = databases[Store.ROW].execute(query).rows
        column_rows = databases[Store.COLUMN].execute(query).rows
        assert sorted(
            (row["region"], row["count_star"]) for row in row_rows
        ) == sorted((row["region"], row["count_star"]) for row in column_rows)
        assert all(row["count_star"] > 0 for row in column_rows)

    def test_post_delete_group_by_matches_row_store(self):
        rows = make_rows(60)
        databases = {store: build_database(store, rows) for store in Store}
        from repro.query.builder import delete

        for database in databases.values():
            database.execute(delete("facts", eq("region", "region_2")))
            database.execute(delete("facts", between("amount", 0.0, 20.0)))
        query = aggregate("facts").sum("amount").count().group_by("region").build()
        row_rows = databases[Store.ROW].execute(query).rows
        column_rows = databases[Store.COLUMN].execute(query).rows
        assert sorted(row["region"] for row in row_rows) == sorted(
            row["region"] for row in column_rows
        )
        by_region_row = {row["region"]: row for row in row_rows}
        by_region_column = {row["region"]: row for row in column_rows}
        for region, row in by_region_row.items():
            assert row["count_star"] == by_region_column[region]["count_star"]
            assert row["sum_amount"] == pytest.approx(
                by_region_column[region]["sum_amount"]
            )


class TestJoinSides:
    """Joins over every combination of encoded and plain key columns."""

    @pytest.mark.parametrize("base_store", list(Store))
    @pytest.mark.parametrize("dim_store", list(Store))
    def test_mixed_store_joins_agree(self, base_store, dim_store):
        rows = make_rows(120)
        dim_rows = make_dim_rows(12)  # customers 12..19 have no partner
        database = HybridDatabase()
        database.create_table(SCHEMA, store=base_store)
        database.load_rows("facts", rows)
        database.create_table(DIM_SCHEMA, store=dim_store)
        database.load_rows("customers", dim_rows)
        result = database.execute(
            aggregate("facts").sum("amount").count()
            .join("customers", "customer", "customer_id")
            .group_by("customers.segment").build()
        )
        # Scalar reference: per-row accumulation over the matching rows.
        reference = {}
        segment_of = {row["customer_id"]: row["segment"] for row in dim_rows}
        for row in rows:
            segment = segment_of.get(row["customer"])
            if segment is None:
                continue
            entry = reference.setdefault(segment, [0.0, 0])
            entry[0] += row["amount"]
            entry[1] += 1
        assert {row["customers.segment"] for row in result.rows} == set(reference)
        for row in result.rows:
            expected_sum, expected_count = reference[row["customers.segment"]]
            assert row["sum_amount"] == pytest.approx(expected_sum)
            assert row["count_star"] == expected_count

    def test_shared_dictionary_probe_matches_value_probe(self):
        from repro.engine.executor.join import _keyed_positions, _probe_positions

        dictionary = ColumnDictionary(DataType.VARCHAR)
        values = ["a", "b", "b", "c", "a", "d", "c"]
        codes = dictionary.bulk_build(values)
        build = EncodedColumn(codes[:4], dictionary)
        probe = EncodedColumn(codes[2:], dictionary)
        positions = _keyed_positions(build, probe)
        reference = _probe_positions(build.values, probe.values)
        assert positions.tolist() == reference.tolist()

    def test_translated_dictionary_probe_matches_value_probe(self):
        from repro.engine.executor.join import _keyed_positions, _probe_positions

        build_dictionary = ColumnDictionary(DataType.VARCHAR)
        build = EncodedColumn(
            build_dictionary.bulk_build(["x", "y", "y", "z"]), build_dictionary
        )
        probe_dictionary = ColumnDictionary(DataType.VARCHAR)
        probe = EncodedColumn(
            probe_dictionary.bulk_build(["y", "q", "z", "z", "x", "q"]),
            probe_dictionary,
        )
        positions = _keyed_positions(build, probe)
        reference = _probe_positions(build.values, probe.values)
        assert positions.tolist() == reference.tolist()
        assert (positions >= 0).tolist() == [True, False, True, True, True, False]

    def test_nan_keys_never_match_on_shared_dictionary_self_join(self):
        # A self-join carries the same dictionary object on both sides, so
        # the probe runs on raw codes — where the NaN code would match
        # itself although NaN != NaN by value.  The row store (native float
        # probe) never matches NaN; the code path must agree.
        nan = float("nan")
        schema = TableSchema.build(
            "t",
            [("id", DataType.INTEGER), ("k", DataType.DOUBLE)],
            primary_key=["id"],
        )
        rows = [
            {"id": 0, "k": nan},
            {"id": 1, "k": 1.0},
            {"id": 2, "k": nan},
        ]
        query = aggregate("t").count().join("t", "k", "k").build()
        counts = {}
        for store in Store:
            database = HybridDatabase()
            database.create_table(schema, store=store)
            database.load_rows("t", rows)
            counts[store] = database.execute(query).rows[0]["count_star"]
        assert counts[Store.ROW] == counts[Store.COLUMN] == 1

    def test_empty_probe_dictionary(self):
        from repro.engine.executor.join import _keyed_positions

        build_dictionary = ColumnDictionary(DataType.VARCHAR)
        build = EncodedColumn(
            build_dictionary.bulk_build(["x", "y"]), build_dictionary
        )
        probe_dictionary = ColumnDictionary(DataType.VARCHAR)
        probe = EncodedColumn(np.empty(0, dtype=np.int64), probe_dictionary)
        assert _keyed_positions(build, probe).tolist() == []


class TestBatchRepresentation:
    def test_collect_batch_carries_codes_for_column_store(self):
        from repro.engine.executor.access import SimpleAccessPath
        from repro.engine.timing import CostAccountant

        table = StoredTable(SCHEMA, Store.COLUMN)
        load_rows(table, make_rows(50))
        batch = SimpleAccessPath(table).collect_batch(
            ["region", "amount"], None, CostAccountant()
        )
        assert isinstance(batch.encoded("region"), EncodedColumn)
        assert batch.column("region").tolist() == [
            row["region"] for row in table.all_rows()
        ]

    def test_take_keeps_codes(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        encoded = EncodedColumn(
            dictionary.bulk_build(["a", "b", "a", "c"]), dictionary
        )
        batch = ColumnBatch({"k": encoded})
        taken = batch.take(np.array([True, False, True, True]))
        assert isinstance(taken.raw("k"), EncodedColumn)
        assert taken.column_list("k") == ["a", "a", "c"]

    def test_concat_shares_dictionary_or_decodes(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        encoded = EncodedColumn(
            dictionary.bulk_build(["a", "b", "a"]), dictionary
        )
        shared = ColumnBatch.concat(
            [ColumnBatch({"k": encoded}), ColumnBatch({"k": encoded.take(np.array([0, 1]))})]
        )
        assert isinstance(shared.raw("k"), EncodedColumn)
        assert shared.column_list("k") == ["a", "b", "a", "a", "b"]

        other_dictionary = ColumnDictionary(DataType.VARCHAR)
        other = EncodedColumn(
            other_dictionary.bulk_build(["z", "a"]), other_dictionary
        )
        mixed = ColumnBatch.concat(
            [ColumnBatch({"k": encoded}), ColumnBatch({"k": other})]
        )
        assert isinstance(mixed.raw("k"), np.ndarray)
        assert mixed.column_list("k") == ["a", "b", "a", "z", "a"]

    def test_factorize_handles_code_gaps(self):
        dictionary = ColumnDictionary(DataType.VARCHAR)
        codes = dictionary.bulk_build(["a", "b", "c", "d"])
        # Use only a strict subset of the dictionary (as after an update that
        # orphaned entries): factorization compacts the used codes.
        encoded = EncodedColumn(codes[np.array([3, 1, 3, 1, 1])], dictionary)
        distinct_codes, inverse = encoded.factorize()
        assert distinct_codes.tolist() == [1, 3]
        assert inverse.tolist() == [1, 0, 1, 0, 0]


class TestCrossStorePredicateFixes:
    """Divergences the differential fuzzer flushed out, pinned individually."""

    def _pair(self, rows, schema=NULLABLE_SCHEMA, name="sparse"):
        databases = {}
        for store in Store:
            database = HybridDatabase()
            database.create_table(schema, store=store)
            database.load_rows(name, rows)
            databases[store] = database
        return databases

    def test_between_on_all_null_column_matches_row_store(self):
        rows = [{"id": i, "amount": float(i)} for i in range(5)]
        query = select("sparse").where(Between("note", "a", "b")).build()
        results = {
            store: database.execute(query).rows
            for store, database in self._pair(rows).items()
        }
        assert results[Store.ROW] == results[Store.COLUMN] == []

    def test_ne_on_all_null_column_matches_row_store(self):
        rows = [{"id": i, "amount": float(i)} for i in range(5)]
        query = select("sparse").where(ne("note", "x")).build()
        results = {
            store: database.execute(query).rows
            for store, database in self._pair(rows).items()
        }
        assert results[Store.ROW] == results[Store.COLUMN] == []

    def test_eq_null_literal_matches_row_store(self):
        rows = [{"id": i, "amount": float(i)} for i in range(4)]
        query = select("sparse").where(Comparison("note", CompareOp.EQ, None)).build()
        results = {
            store: database.execute(query).rows
            for store, database in self._pair(rows).items()
        }
        assert results[Store.ROW] == results[Store.COLUMN] == []

    def test_ordered_comparison_with_nan_literal_matches_row_store(self):
        nan = float("nan")
        rows = [
            {"id": 0, "amount": 1.0, "score": 2.0},
            {"id": 1, "amount": 2.0, "score": nan},
            {"id": 2, "amount": 3.0, "score": 0.5},
        ]
        for op in CompareOp:
            query = select("sparse").where(Comparison("score", op, nan)).build()
            results = {
                store: [row["id"] for row in database.execute(query).rows]
                for store, database in self._pair(rows).items()
            }
            assert results[Store.ROW] == results[Store.COLUMN], op
