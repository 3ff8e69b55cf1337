"""Ablation benchmarks for the reproduction's design choices.

* device-constant scaling — the advisor's decisions should be invariant under
  a uniform re-scaling of the simulated device constants;
* calibrated vs. analytic cost model — calibration should not make the
  estimates worse;
* join-aware vs. independent table-level decisions — join-aware enumeration
  never yields a more expensive layout.
"""

import pytest

from repro.config import AdvisorConfig, DeviceModelConfig
from repro.core import CostModel, CostModelCalibrator, StorageAdvisor
from repro.core.advisor.table_level import TableLevelAdvisor
from repro.engine import HybridDatabase, Store
from repro.query import Workload, aggregate
from repro.workloads import (
    MixedWorkloadConfig,
    SyntheticTableConfig,
    build_mixed_workload,
    build_star_schema,
    build_star_workload,
    build_table,
)
from repro.workloads.star_schema import StarSchemaConfig


def _advisor_choice(device_config, workload, num_rows):
    database = HybridDatabase(device_config)
    build_table(SyntheticTableConfig(num_rows=num_rows)).load_into(database, Store.ROW)
    advisor = StorageAdvisor(device_config=device_config)
    recommendation = advisor.recommend(database, workload, include_partitioning=False)
    return recommendation.choice_for("facts")


def test_ablation_device_scaling_does_not_change_decisions(benchmark):
    """Uniformly scaling every device constant must not flip any decision."""
    table = build_table(SyntheticTableConfig(num_rows=8_000))

    def run():
        choices = {}
        for fraction in (0.0, 0.05):
            workload = build_mixed_workload(
                table.roles, MixedWorkloadConfig(num_queries=150, olap_fraction=fraction)
            )
            baseline = _advisor_choice(DeviceModelConfig(), workload, 8_000)
            scaled = _advisor_choice(DeviceModelConfig().scaled(3.0), workload, 8_000)
            choices[fraction] = (baseline, scaled)
        return choices

    choices = benchmark.pedantic(run, rounds=1, iterations=1)
    for baseline, scaled in choices.values():
        assert baseline == scaled


def test_ablation_calibration_improves_estimates(benchmark):
    """The calibrated cost model estimates at least as well as the analytic one."""
    table = build_table(SyntheticTableConfig(num_rows=15_000))
    query = aggregate("facts").sum("kf_0").avg("kf_1").group_by("grp_0").build()

    def run():
        report = CostModelCalibrator(sizes=(1_000, 3_000, 8_000)).calibrate()
        calibrated = CostModel(parameters=report.parameters)
        analytic = CostModel()
        errors = {"calibrated": 0.0, "analytic": 0.0}
        for store in Store:
            database = HybridDatabase()
            build_table(SyntheticTableConfig(num_rows=15_000)).load_into(database, store)
            actual = database.execute(query).runtime_ms
            profiles = CostModel.profiles_from_catalog(database.catalog)
            for name, model in (("calibrated", calibrated), ("analytic", analytic)):
                estimate = model.estimate_query_ms(query, {"facts": store}, profiles)
                errors[name] += abs(estimate - actual) / actual
        return errors

    errors = benchmark.pedantic(run, rounds=1, iterations=1)
    assert errors["calibrated"] <= errors["analytic"] * 1.05
    assert errors["calibrated"] < 0.4


def test_ablation_join_aware_enumeration_is_never_worse(benchmark):
    """Join-aware group optimisation must not produce a costlier layout than
    optimising every table independently."""
    star = build_star_schema(StarSchemaConfig(fact_rows=10_000, dimension_rows=500))
    workload = build_star_workload(star, num_queries=150, olap_fraction=0.05)

    def run():
        database = HybridDatabase()
        star_copy = build_star_schema(StarSchemaConfig(fact_rows=10_000, dimension_rows=500))
        star_copy.load_into(database)
        cost_model = CostModel()
        profiles = CostModel.profiles_from_catalog(database.catalog)
        joint = TableLevelAdvisor(cost_model).recommend(workload, profiles)
        # Independent decisions: optimise each table against its own queries only.
        independent = {}
        for table in ("fact", "dim"):
            result = TableLevelAdvisor(cost_model).recommend(
                Workload(
                    [q for q in workload if q.tables == (table,)] or
                    workload.queries_for_table(table)
                ),
                profiles,
            )
            independent[table] = result.assignment.get(table, Store.COLUMN)
        joint_cost = cost_model.estimate_workload_ms(workload, joint.assignment, profiles)
        independent_cost = cost_model.estimate_workload_ms(workload, independent, profiles)
        return joint_cost, independent_cost

    joint_cost, independent_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    assert joint_cost <= independent_cost * 1.001
