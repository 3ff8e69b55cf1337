"""Online working mode: workload recording and periodic re-evaluation.

In the online mode the advisor "continuously recommend[s] beneficial storage
layout adaptations" from detailed workload statistics recorded at runtime
(Section 4).  :class:`OnlineAdvisorMonitor` attaches to a
:class:`~repro.engine.database.HybridDatabase` as an execution listener,
records every executed query (plus the extended workload statistics), and
after every ``online_reevaluation_interval`` queries re-runs the advisor.  An
adaptation is reported only when the estimated improvement over the current
layout exceeds the configured hysteresis threshold, so the layout does not
flap on noisy workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.config import AdvisorConfig
from repro.core.advisor.advisor import StorageAdvisor
from repro.core.advisor.recommendation import Recommendation, StorageLayout
from repro.core.statistics.workload_stats import WorkloadStatistics
from repro.engine.database import HybridDatabase
from repro.engine.executor.executor import QueryResult
from repro.engine.matview import view_rejection
from repro.engine.types import Store
from repro.query.ast import Query
from repro.query.workload import Workload

#: Callback invoked when the monitor finds a beneficial adaptation.
AdaptationCallback = Callable[[Recommendation], None]


@dataclass
class MonitorState:
    """Bookkeeping of the online monitor."""

    queries_since_evaluation: int = 0
    total_queries: int = 0
    evaluations: int = 0
    adaptations_found: int = 0
    last_recommendation: Optional[Recommendation] = None
    # Estimate drift, tracked when attached to a Session: sums of the plans'
    # estimated runtimes vs. the executions' actual (simulated) runtimes.
    estimated_ms_total: float = 0.0
    actual_ms_total: float = 0.0

    @property
    def estimation_drift(self) -> float:
        """``estimated / actual`` over all session-monitored queries (1.0 = spot on)."""
        if self.actual_ms_total <= 0.0:
            return 1.0
        return self.estimated_ms_total / self.actual_ms_total


class OnlineAdvisorMonitor:
    """Records the executed workload and periodically re-evaluates the layout."""

    def __init__(
        self,
        advisor: StorageAdvisor,
        database: HybridDatabase,
        config: Optional[AdvisorConfig] = None,
        window_size: int = 10_000,
        include_partitioning: bool = True,
        on_adaptation: Optional[AdaptationCallback] = None,
    ) -> None:
        self.advisor = advisor
        self.database = database
        self.config = config or advisor.config
        self.window_size = window_size
        self.include_partitioning = include_partitioning
        self.on_adaptation = on_adaptation
        self.recorded = Workload(name="online")
        self.statistics = WorkloadStatistics()
        self.state = MonitorState()
        self._attached = False
        self._session = None

    # -- lifecycle -------------------------------------------------------------------

    @classmethod
    def for_session(cls, session, **kwargs) -> "OnlineAdvisorMonitor":
        """Build a monitor over a :class:`repro.api.Session` and attach it.

        The monitor consumes the session's plan objects: besides recording
        every executed query for re-evaluation, it tracks the drift between
        the plans' estimated runtimes and the actual execution costs
        (:attr:`MonitorState.estimation_drift`) — no estimate is re-derived.
        """
        monitor = cls(session.advisor(), session.database, **kwargs)
        monitor.attach_session(session)
        return monitor

    def attach(self) -> None:
        """Start recording queries executed directly on the database.

        A no-op while a session is attached: session executions reach the
        database listeners too, so listening on both levels would record
        every session query twice.
        """
        if not self._attached and self._session is None:
            self.database.add_execution_listener(self._on_query)
            self._attached = True

    def detach(self) -> None:
        """Stop recording executed queries."""
        if self._attached:
            self.database.remove_execution_listener(self._on_query)
            self._attached = False

    def attach_session(self, session) -> None:
        """Record the session's executions, consuming its plan objects.

        Supersedes an engine-level :meth:`attach` (which is detached first):
        session executions reach the database listeners too, so listening on
        both levels would record every query twice.
        """
        if self._session is None:
            self.detach()
            self._session = session
            session.add_plan_listener(self._on_plan_execution)

    def detach_session(self) -> None:
        if self._session is not None:
            self._session.remove_plan_listener(self._on_plan_execution)
            self._session = None

    def __enter__(self) -> "OnlineAdvisorMonitor":
        self.attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()
        self.detach_session()

    # -- recording --------------------------------------------------------------------

    def _on_plan_execution(self, query: Query, plan, result: QueryResult) -> None:
        # A view-served execution did not run the plan that was estimated
        # (the estimate prices the base tables, the bill is a view_scan): it
        # counts as a recurrence, but says nothing about estimate drift.
        if not result.view_hits:
            self.state.estimated_ms_total += plan.estimated_ms
            self.state.actual_ms_total += result.runtime_ms
        self._on_query(query, result)

    def _on_query(self, query: Query, result: QueryResult) -> None:
        self.recorded.add(query)
        if len(self.recorded) > self.window_size:
            del self.recorded.queries[: len(self.recorded) - self.window_size]
        self.statistics.record(query)
        self.state.total_queries += 1
        self.state.queries_since_evaluation += 1
        if self.state.queries_since_evaluation >= self.config.online_reevaluation_interval:
            recommendation = self.evaluate()
            if recommendation is not None and self.on_adaptation is not None:
                self.on_adaptation(recommendation)

    # -- recurring shapes (materialized-view candidates) --------------------------------

    def recurring_aggregates(self, min_occurrences: int = 2) -> Dict[str, int]:
        """Fingerprint -> occurrence count of recurring recorded aggregations.

        Counts the shapes :meth:`recommend_views` would consider — join-free,
        placeholder-free aggregations — over the recorded window, using the
        same query fingerprints the planner's view rewrite matches on.
        """
        from repro.query.fingerprint import query_fingerprint

        counts: Dict[str, int] = {}
        for query in self.recorded:
            if view_rejection(query) is not None:
                continue
            fingerprint = query_fingerprint(query)
            counts[fingerprint] = counts.get(fingerprint, 0) + 1
        return {
            fingerprint: count
            for fingerprint, count in counts.items()
            if count >= min_occurrences
        }

    def recommend_views(self, min_occurrences: int = 2):
        """Materialized views worth creating for the recorded window."""
        return self.advisor.recommend_views(
            self.database, self.recorded, min_occurrences=min_occurrences
        )

    # -- evaluation ---------------------------------------------------------------------

    def evaluate(self) -> Optional[Recommendation]:
        """Re-evaluate the layout; return a recommendation if it is beneficial.

        Returns ``None`` when the current layout is already within the
        configured improvement threshold of the recommended one.
        """
        self.state.queries_since_evaluation = 0
        if len(self.recorded) == 0:
            return None
        self.state.evaluations += 1
        recommendation = self.advisor.recommend(
            self.database, self.recorded, include_partitioning=self.include_partitioning
        )
        self.state.last_recommendation = recommendation
        if not self._is_improvement(recommendation):
            return None
        self.state.adaptations_found += 1
        return recommendation

    def _is_improvement(self, recommendation: Recommendation) -> bool:
        """Compare the recommendation against the database's current layout."""
        current = self._current_layout()
        profiles = self.advisor.cost_model.profiles_from_catalog(self.database.catalog)
        tables = [
            table for table in self.recorded.tables()
            if table in profiles and table in current.choices
        ]
        if not tables:
            return False
        current_assignment = current.store_assignment()
        recommended_assignment = recommendation.layout.store_assignment()
        for table in self.recorded.tables():
            current_assignment.setdefault(table, Store.COLUMN)
            recommended_assignment.setdefault(table, Store.COLUMN)
        current_ms = self.advisor.cost_model.estimate_workload_ms(
            self.recorded, current_assignment, profiles
        )
        recommended_ms = self.advisor.cost_model.estimate_workload_ms(
            self.recorded, recommended_assignment, profiles
        )
        if current_ms <= 0:
            return False
        layout_changed = self._layout_differs(current, recommendation.layout)
        improvement = 1.0 - recommended_ms / current_ms
        return layout_changed and improvement >= self.config.min_relative_improvement

    def _current_layout(self) -> StorageLayout:
        layout = StorageLayout()
        for entry in self.database.catalog:
            if entry.is_partitioned:
                layout.choices[entry.name] = entry.partitioning
            else:
                layout.choices[entry.name] = entry.store
        return layout

    @staticmethod
    def _layout_differs(current: StorageLayout, recommended: StorageLayout) -> bool:
        for table, choice in recommended.choices.items():
            if table not in current.choices:
                return True
            existing = current.choices[table]
            if isinstance(choice, Store) != isinstance(existing, Store):
                return True
            if isinstance(choice, Store) and choice is not existing:
                return True
            if not isinstance(choice, Store) and choice != existing:
                return True
        return False

    # -- applying ------------------------------------------------------------------------------

    def apply_pending(self) -> bool:
        """Apply the last beneficial recommendation, if any."""
        recommendation = self.state.last_recommendation
        if recommendation is None:
            return False
        self.advisor.apply(self.database, recommendation)
        return True
