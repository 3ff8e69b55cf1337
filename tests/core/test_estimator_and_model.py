"""Tests for cost-term extraction, parameters and the cost model."""

import pytest

from repro.core.cost_model import (
    COST_TERMS,
    CostModel,
    CostModelParameters,
    CostTermWeights,
    TableProfile,
    analytic_parameters,
    query_contributions,
)
from repro.engine import HybridDatabase, Store
from repro.engine.statistics import compute_table_statistics
from repro.errors import EstimationError
from repro.query import (
    Workload,
    aggregate,
    between,
    delete,
    eq,
    insert,
    select,
    update,
)


@pytest.fixture
def profiles(row_database):
    return CostModel.profiles_from_catalog(row_database.catalog)


@pytest.fixture
def cost_model():
    return CostModel()


class TestCostTermExtraction:
    def test_row_store_aggregation_scans_full_width(self, profiles):
        query = aggregate("sales").sum("revenue").build()
        (contribution,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        profile = profiles["sales"]
        assert contribution.terms["row_scan_bytes"] == pytest.approx(
            profile.num_rows * profile.row_width_bytes
        )
        assert "column_scan_bytes" not in contribution.terms

    def test_column_store_aggregation_scans_only_needed_columns(self, profiles):
        query = aggregate("sales").sum("revenue").group_by("region").build()
        (contribution,) = query_contributions(query, {"sales": Store.COLUMN}, profiles)
        profile = profiles["sales"]
        expected = profile.column_code_bytes("revenue") + profile.column_code_bytes("region")
        assert contribution.terms["column_scan_bytes"] == pytest.approx(expected)
        assert contribution.terms["group_rows"] == profile.num_rows

    def test_point_select_uses_index_on_row_store(self, profiles):
        query = select("sales").where(eq("id", 3)).build()
        (contribution,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        assert "row_scan_bytes" not in contribution.terms
        assert contribution.terms["index_probes"] == 1.0

    def test_point_select_scans_codes_on_column_store(self, profiles):
        query = select("sales").where(eq("id", 3)).build()
        (contribution,) = query_contributions(query, {"sales": Store.COLUMN}, profiles)
        assert contribution.terms["column_scan_bytes"] > 0
        assert contribution.terms["vector_compares"] == profiles["sales"].num_rows

    def test_non_key_select_scans_row_store(self, profiles):
        query = select("sales").where(eq("region", "region_1")).build()
        (contribution,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        assert contribution.terms["row_scan_bytes"] > 0

    def test_insert_terms_differ_by_store(self, profiles):
        query = insert("sales", [{"id": 10_000, "region": "r", "product": 1,
                                  "revenue": 1.0, "quantity": 1, "status": "s"}])
        (row_terms,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        (column_terms,) = query_contributions(query, {"sales": Store.COLUMN}, profiles)
        assert row_terms.terms["insert_bytes"] > 0
        assert "insert_cells" not in row_terms.terms
        assert column_terms.terms["insert_cells"] == profiles["sales"].schema.num_columns

    def test_update_charges_full_row_on_column_store(self, profiles):
        query = update("sales", {"status": "x"}, eq("id", 5))
        (row_terms,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        (column_terms,) = query_contributions(query, {"sales": Store.COLUMN}, profiles)
        assert row_terms.terms["update_cells"] == pytest.approx(1.0)
        assert column_terms.terms["update_cells"] == pytest.approx(
            profiles["sales"].schema.num_columns
        )

    def test_delete_terms(self, profiles):
        query = delete("sales", between("id", 0, 99))
        (contribution,) = query_contributions(query, {"sales": Store.ROW}, profiles)
        assert contribution.terms["update_cells"] > 0

    def test_join_query_produces_two_contributions(self, profiles, sales_schema):
        query = (
            aggregate("sales")
            .sum("revenue")
            .group_by("dim.label")
            .join("dim", "product", "id")
            .build()
        )
        # Provide a fake dimension profile.
        from repro.engine.schema import TableSchema
        from repro.engine.statistics import statistics_from_schema
        from repro.engine.types import DataType

        dim_schema = TableSchema.build(
            "dim", [("id", DataType.INTEGER), ("label", DataType.VARCHAR)], primary_key=["id"]
        )
        extended = dict(profiles)
        extended["dim"] = TableProfile(
            schema=dim_schema, statistics=statistics_from_schema(dim_schema, 100)
        )
        contributions = query_contributions(
            query, {"sales": Store.COLUMN, "dim": Store.ROW}, extended
        )
        assert len(contributions) == 2
        base = contributions[0]
        assert base.terms["join_build_rows"] == 100
        assert base.terms["join_probe_rows"] == profiles["sales"].num_rows
        assert base.terms["conversion_cells"] > 0  # different stores

    def test_missing_assignment_raises(self, profiles):
        query = aggregate("sales").sum("revenue").build()
        with pytest.raises(EstimationError):
            query_contributions(query, {}, profiles)


class TestParameters:
    def test_analytic_parameters_cover_all_groups(self):
        from repro.query.ast import QueryType

        parameters = analytic_parameters()
        for store in Store:
            for query_type in QueryType:
                weights = parameters.weights_for(store, query_type)
                assert weights.weights
                assert set(weights.weights) <= set(COST_TERMS)

    def test_weights_dot_product(self):
        weights = CostTermWeights({"rows": 2.0, "queries": 10.0})
        assert weights.cost_ns({"rows": 5, "queries": 1}) == pytest.approx(20.0)
        assert weights.cost_ms({"rows": 5, "queries": 1}) == pytest.approx(2e-5)

    def test_serialisation_round_trip(self):
        parameters = analytic_parameters()
        restored = CostModelParameters.from_dict(parameters.to_dict())
        for key, weights in parameters.per_store_and_type.items():
            assert restored.per_store_and_type[key].weights == weights.weights


class TestCostModel:
    def test_estimates_are_positive_and_store_specific(self, cost_model, profiles):
        query = aggregate("sales").sum("revenue").build()
        estimates = cost_model.estimate_query_per_store(query, profiles)
        assert estimates[Store.ROW] > 0
        assert estimates[Store.COLUMN] > 0
        assert estimates[Store.COLUMN] < estimates[Store.ROW]

    def test_oltp_queries_favour_row_store(self, cost_model, profiles):
        query = update("sales", {"status": "x"}, eq("id", 1))
        estimates = cost_model.estimate_query_per_store(query, profiles)
        assert estimates[Store.ROW] < estimates[Store.COLUMN]

    def test_workload_estimate_sums_queries(self, cost_model, profiles):
        workload = Workload([
            aggregate("sales").sum("revenue").build(),
            select("sales").where(eq("id", 1)).build(),
        ])
        estimate = cost_model.estimate_workload(workload, {"sales": Store.ROW}, profiles)
        assert estimate.total_ms == pytest.approx(sum(estimate.per_query_ms))
        assert len(estimate.per_query_ms) == 2

    def test_workload_estimate_requires_complete_assignment(self, cost_model, profiles):
        workload = Workload([aggregate("sales").sum("revenue").build()])
        with pytest.raises(EstimationError):
            cost_model.estimate_workload(workload, {}, profiles)

    def test_analytic_estimates_track_engine_runtimes(self, database_factory):
        """Without calibration the analytic model should be within ~40 % of the engine."""
        query = aggregate("sales").sum("revenue").avg("quantity").group_by("region").build()
        cost_model = CostModel()
        for store in Store:
            database = database_factory(store)
            actual = database.execute(query).runtime_ms
            profiles = CostModel.profiles_from_catalog(database.catalog)
            estimate = cost_model.estimate_query_ms(query, {"sales": store}, profiles)
            assert estimate == pytest.approx(actual, rel=0.4)


# -- pruning estimates: catalog statistics as zone units ---------------------------------


def _pruning_profile(columns, partitions=()):
    from repro.engine import DataType, TableSchema
    from repro.engine.statistics import (
        ColumnStatistics,
        PartitionStatistics,
        TableStatistics,
    )

    schema = TableSchema.build(
        "t", [("id", DataType.INTEGER), ("x", DataType.DOUBLE)], primary_key=["id"]
    )

    def column(spec):
        return {"x": ColumnStatistics("x", DataType.DOUBLE, 0, **spec)}

    statistics = TableStatistics(
        table="t", num_rows=100, row_width_bytes=schema.row_width_bytes,
        columns=column(columns),
        partitions=tuple(
            PartitionStatistics(label, num_rows, column(spec))
            for label, num_rows, spec in partitions
        ),
    )
    return TableProfile(schema=schema, statistics=statistics)


NAN = float("nan")
MAIN = dict(min_value=0.0, max_value=49.0, null_count=0)
HOT_ALL_NULL = dict(min_value=None, max_value=None, null_count=25)
HOT_SOME_NULL = dict(min_value=50.0, max_value=99.0, null_count=5)
HOT_NAN = dict(min_value=50.0, max_value=99.0, null_count=0, has_nan=True)


@pytest.mark.parametrize("columns, partitions, predicate, fraction", [
    # Table-wide statistics: a known range prunes, everything else is no synopsis.
    (dict(min_value=0.0, max_value=99.0), (), ("gt", 500.0), 0.0),
    (dict(min_value=0.0, max_value=99.0), (), ("gt", 50.0), 1.0),
    (dict(min_value=NAN, max_value=NAN), (), ("gt", 500.0), 1.0),
    (dict(min_value=0.0, max_value=NAN), (), ("gt", 500.0), 1.0),
    (dict(min_value=None, max_value=None), (), ("gt", 500.0), 1.0),
    (dict(min_value=0.0, max_value=None), (), ("gt", 500.0), 1.0),
    (dict(min_value=0.0, max_value=99.0), (), ("is_null",), 1.0),
    # Per-partition statistics are exact, null counts included.
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_SOME_NULL)), ("gt", 60.0), 0.25),
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_SOME_NULL)), ("is_null",), 0.25),
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_ALL_NULL)), ("gt", -1.0), 0.75),
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_ALL_NULL)), ("is_null",), 0.25),
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_NAN)), ("between", 200.0, 300.0), 0.25),
    (MAIN, (("main", 75, MAIN), ("hot", 25, HOT_NAN)), ("gt", 200.0), 0.0),
    (MAIN, (("main", 75, MAIN), ("hot", 25, dict(min_value=NAN, max_value=NAN,
                                                   null_count=0))),
     ("gt", 200.0), 0.25),
    (MAIN, (("main", 0, MAIN), ("hot", 0, MAIN)), ("gt", 200.0), 1.0),
])
def test_pruning_estimates_from_catalog_statistics(columns, partitions, predicate,
                                                   fraction):
    from repro.core.cost_model.estimator import partition_scan_fraction
    from repro.engine.zonemap import zone_pruning_disabled
    from repro.query.predicates import IsNull, gt

    built = {"gt": lambda value: gt("t.x", value), "is_null": lambda: IsNull("x"),
             "between": lambda low, high: between("x", low, high)}
    predicate = built[predicate[0]](*predicate[1:])
    profile = _pruning_profile(columns, partitions)
    assert partition_scan_fraction(predicate, profile) == pytest.approx(fraction)
    with zone_pruning_disabled():
        assert partition_scan_fraction(predicate, profile) == 1.0
