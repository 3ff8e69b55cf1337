"""The storage advisor façade (offline and online working modes, Section 4).

Typical offline usage::

    advisor = StorageAdvisor()
    advisor.initialize_cost_model()              # calibrate against the system
    recommendation = advisor.recommend(database, workload)
    print(recommendation.describe())
    advisor.apply(database, recommendation)      # or hand the DDL to the DBA

The online mode is provided by
:class:`~repro.core.advisor.monitor.OnlineAdvisorMonitor`, which records the
executed workload through an execution listener and periodically asks this
advisor for adaptation recommendations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.config import AdvisorConfig, DeviceModelConfig
from repro.core.advisor.ddl import apply_recommendation, statements_for_layout
from repro.core.advisor.partition_advisor import PartitionAdvisor, PartitioningDecision
from repro.core.advisor.recommendation import (
    Recommendation,
    StorageLayout,
    TableRecommendation,
    ViewRecommendation,
)
from repro.core.advisor.table_level import TableLevelAdvisor
from repro.core.cost_model.calibration import CalibrationReport, CostModelCalibrator
from repro.core.cost_model.estimator import TableProfile
from repro.core.cost_model.model import CostModel
from repro.engine.database import HybridDatabase
from repro.engine.matview import view_serve_cost
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics
from repro.engine.timing import CostBreakdown, DeviceModel
from repro.engine.types import Store
from repro.errors import AdvisorError
from repro.query.ast import AggregationQuery, split_qualified
from repro.query.workload import Workload

class StorageAdvisor:
    """Recommends the storage layout of a hybrid-store database."""

    def __init__(
        self,
        config: Optional[AdvisorConfig] = None,
        cost_model: Optional[CostModel] = None,
        device_config: Optional[DeviceModelConfig] = None,
    ) -> None:
        self.config = config or AdvisorConfig()
        self.device_config = device_config
        self.cost_model = cost_model or CostModel(device_config=device_config)
        self._table_level = TableLevelAdvisor(self.cost_model, self.config)
        self._partition_advisor = PartitionAdvisor(self.config)
        self.last_calibration: Optional[CalibrationReport] = None

    # -- cost model initialisation (offline mode, step 1) --------------------------------

    def initialize_cost_model(
        self, calibrator: Optional[CostModelCalibrator] = None
    ) -> CalibrationReport:
        """Calibrate the cost model against the execution engine.

        This is the paper's "initialize cost model" step: representative tests
        are run so that base costs and adjustment functions reflect the
        current system.  The fitted parameters replace the analytic defaults.
        """
        calibrator = calibrator or CostModelCalibrator(self.device_config)
        report = calibrator.calibrate()
        # The memo carries over: its keys include a parameters fingerprint,
        # so entries priced under the old parameters can never be served.
        self.cost_model = CostModel(parameters=report.parameters,
                                    device_config=self.device_config,
                                    memo=self.cost_model.memo)
        self._table_level = TableLevelAdvisor(self.cost_model, self.config)
        self.last_calibration = report
        return report

    # -- offline recommendation -------------------------------------------------------------

    def recommend(
        self,
        database: HybridDatabase,
        workload: Workload,
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Recommend a storage layout for *database* under *workload*."""
        database.refresh_statistics()
        profiles = self.cost_model.profiles_from_catalog(database.catalog)
        return self.recommend_from_profiles(workload, profiles, include_partitioning)

    def recommend_offline(
        self,
        schemas: Mapping[str, TableSchema],
        statistics: Mapping[str, TableStatistics],
        workload: Workload,
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Offline-mode recommendation from schema + basic statistics only.

        This is the cheap input path of Figure 4: no running database is
        needed, only the schema, (expected) table statistics and a recorded or
        expected workload.
        """
        profiles = {
            name: TableProfile(schema=schemas[name], statistics=statistics[name])
            for name in schemas
        }
        return self.recommend_from_profiles(workload, profiles, include_partitioning)

    def recommend_from_profiles(
        self,
        workload: Workload,
        profiles: Mapping[str, TableProfile],
        include_partitioning: bool = True,
    ) -> Recommendation:
        """Core recommendation logic shared by the offline and online modes."""
        if len(workload) == 0:
            raise AdvisorError("cannot recommend a layout for an empty workload")
        relevant = [table for table in workload.tables() if table in profiles]
        if not relevant:
            raise AdvisorError("the workload does not reference any known table")

        table_result = self._table_level.recommend(workload, profiles)
        layout = StorageLayout(dict(table_result.assignment))

        decisions: Dict[str, PartitioningDecision] = {}
        if include_partitioning:
            decisions = self._partition_advisor.recommend(
                workload, profiles, table_result.assignment
            )
            for table, decision in decisions.items():
                if decision.partitioning is not None:
                    layout.choices[table] = decision.partitioning

        table_recommendations = []
        for table in sorted(table_result.assignment):
            costs = table_result.per_table_costs.get(table, {})
            reason = ""
            decision = decisions.get(table)
            if decision is not None and decision.partitioning is not None:
                reason = decision.reason
            table_recommendations.append(
                TableRecommendation(
                    table=table,
                    choice=layout.choices[table],
                    estimated_ms_row=costs.get(Store.ROW, 0.0),
                    estimated_ms_column=costs.get(Store.COLUMN, 0.0),
                    reason=reason,
                )
            )

        row_only = {table: Store.ROW for table in table_result.assignment}
        column_only = {table: Store.COLUMN for table in table_result.assignment}
        recommendation = Recommendation(
            layout=layout,
            table_recommendations=table_recommendations,
            estimated_total_ms=self.cost_model.estimate_workload_ms(
                workload, layout.store_assignment(), profiles
            ),
            estimated_row_only_ms=self.cost_model.estimate_workload_ms(
                workload, row_only, profiles
            ),
            estimated_column_only_ms=self.cost_model.estimate_workload_ms(
                workload, column_only, profiles
            ),
        )
        recommendation.ddl_statements = statements_for_layout(layout)
        return recommendation

    # -- materialized-view recommendation ---------------------------------------------------------

    def recommend_views(
        self,
        database: HybridDatabase,
        workload: Workload,
        min_occurrences: int = 2,
    ) -> "list[ViewRecommendation]":
        """Propose materialized views for *workload*'s recurring aggregations.

        Recurrence is counted by query fingerprint — the same key the online
        monitor records and the planner's rewrite matches on.  Each eligible
        shape (aggregation, no joins, no placeholders, not already
        materialized) is priced through the shared
        :class:`~repro.core.cost_model.memo.EstimateMemo` exactly like store
        moves: base cost = the cost model's estimate under the current
        layout, view cost = query overhead plus a sequential read of the
        estimated materialized rows (the same byte formula the session
        charges when serving).  Proposals with positive total benefit are
        returned best-first, each carrying renderable base/rewritten plans.
        """
        if len(workload) == 0:
            raise AdvisorError("cannot recommend views for an empty workload")
        database.refresh_statistics()
        profiles = self.cost_model.profiles_from_catalog(database.catalog)
        device = DeviceModel(self.device_config)
        from repro.query.fingerprint import fingerprint_tokens, query_fingerprint

        shapes: Dict[str, list] = {}
        for query in workload:
            if not isinstance(query, AggregationQuery) or query.joins:
                continue
            if query.table not in profiles:
                continue
            if "v:param:" in fingerprint_tokens(query):
                continue
            fingerprint = query_fingerprint(query)
            shape = shapes.get(fingerprint)
            if shape is None:
                shapes[fingerprint] = [query, 1]
            else:
                shape[1] += 1

        recommendations: list = []
        for fingerprint in sorted(shapes):
            query, occurrences = shapes[fingerprint]
            if occurrences < min_occurrences:
                continue
            if database.catalog.view_for_fingerprint(fingerprint) is not None:
                continue
            assignment: Dict[str, Store] = {}
            for name in query.tables:
                entry = database.catalog.entry(name)
                assignment[name] = (
                    entry.store if not entry.is_partitioned else Store.COLUMN
                )
            base_ms = self.cost_model.estimate_query_ms(query, assignment, profiles)
            rows = self._estimated_view_rows(query, profiles[query.table])
            base_key = self.cost_model.estimate_key(query, assignment, profiles)
            view_ms = None
            if base_key is not None:
                view_ms = self.cost_model.memo.get(("matview-whatif",) + base_key)
            if view_ms is None:
                view_ms = view_serve_cost(device, rows, query).total_ms
                if base_key is not None:
                    self.cost_model.memo.put(
                        ("matview-whatif",) + base_key, view_ms
                    )
            if base_ms <= view_ms:
                continue  # serving the view would not beat the base plan
            name = f"mv_{query.table}_{fingerprint[:8]}"
            base_plan, view_plan = self._view_whatif_plans(
                database, query, name, fingerprint, view_ms
            )
            recommendations.append(
                ViewRecommendation(
                    view=name,
                    table=query.table,
                    fingerprint=fingerprint,
                    query=query,
                    occurrences=occurrences,
                    estimated_base_ms=base_ms,
                    estimated_view_ms=view_ms,
                    estimated_rows=rows,
                    base_plan=base_plan,
                    view_plan=view_plan,
                )
            )
        recommendations.sort(
            key=lambda item: item.estimated_benefit_ms, reverse=True
        )
        return recommendations

    @staticmethod
    def _estimated_view_rows(query: AggregationQuery, profile: TableProfile) -> int:
        """Estimated materialized row count: the group-key cardinality product."""
        if not query.group_by:
            return 1
        distinct = 1
        for name in query.group_by:
            _, column = split_qualified(name)
            statistics = profile.statistics.columns.get(column)
            if statistics is not None and statistics.num_distinct > 0:
                distinct *= statistics.num_distinct
        return max(1, min(distinct, max(profile.num_rows, 1)))

    def _view_whatif_plans(self, database, query, name, fingerprint, view_ms):
        """Hypothetical (base, rewritten) plans for a proposed view.

        Imported lazily — the api layer depends on the advisor, not the
        other way around.  The rewritten plan is the base plan with the
        :class:`~repro.api.plan.ViewRewrite` recorded and the estimate
        replaced by the view-serve price, so rendering both shows exactly
        what ``EXPLAIN`` would print before and after ``create_view``.
        """
        import dataclasses

        from repro.api.plan import CostEstimate, Planner, ViewRewrite

        planner = Planner(database, lambda: self.cost_model)
        base_plan = planner.plan(query)
        view_plan = dataclasses.replace(
            base_plan,
            view_rewrite=ViewRewrite(view=name, fingerprint=fingerprint),
            estimate=CostEstimate(
                total_ms=view_ms,
                per_table_ms={query.table: view_ms},
                per_term_ms={"view_scan": view_ms},
                assignment=dict(base_plan.estimate.assignment),
            ),
        )
        return base_plan, view_plan

    # -- applying recommendations ------------------------------------------------------------------

    def apply(
        self, database: HybridDatabase, recommendation: Recommendation
    ) -> Dict[str, CostBreakdown]:
        """Apply *recommendation* to *database* (the "automatic" option)."""
        return apply_recommendation(database, recommendation)
