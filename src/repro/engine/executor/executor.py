"""Query executor: dispatches queries and assembles results with their costs."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.executor.operators import (
    execute_aggregation,
    execute_delete,
    execute_insert,
    execute_select,
    execute_update,
)
from repro.engine.executor.rewrite import access_path_for
from repro.engine.context import current
from repro.engine.deadline import deadline_check
from repro.engine.timing import CostAccountant, CostBreakdown, DeviceModel
from repro.errors import QueryError
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    Query,
    SelectQuery,
    UpdateQuery,
)

#: The integrity events a query can cause, read off the current context's
#: counters before and after it runs (``QueryResult.integrity``).
_INTEGRITY_EVENTS = ("units_verified", "corruption_detected", "units_quarantined")
_INTEGRITY_COUNTS = attrgetter(*_INTEGRITY_EVENTS)


@dataclass
class QueryResult:
    """Result of executing one query."""

    rows: List[Dict[str, Any]] = field(default_factory=list)
    affected_rows: int = 0
    cost: CostBreakdown = field(default_factory=CostBreakdown)
    #: Per-table ``(partitions scanned, partitions skipped)`` — the access
    #: paths' zone-pruning telemetry, reported by ``EXPLAIN ANALYZE``.
    scan_stats: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Per-table aggregate-pushdown strategy execution consumed — pinned by
    #: ``EXPLAIN ANALYZE`` against the plan's recorded strategy.
    agg_strategies: Dict[str, str] = field(default_factory=dict)
    #: Always empty: no read sees the column store's write buffer (every
    #: read merges it first).  Kept for callers that still read the field.
    delta_scans: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: Per-table ``(fan_out, ((rows scanned, rows matched), ...))`` of a
    #: shard-parallel execution — empty when the query ran serially.
    shard_stats: Dict[str, Tuple[int, Tuple[Tuple[int, int], ...]]] = field(
        default_factory=dict
    )
    #: Materialized-view serves: view name -> how it was served ("served", or
    #: "served after <kind> refresh" when the view was stale).  Empty when the
    #: query ran against base tables; reported by ``EXPLAIN ANALYZE``.
    view_hits: Dict[str, str] = field(default_factory=dict)
    #: Per-table degradation-ladder walks: table -> a description of the
    #: rungs walked (e.g. "shard-parallel -> retry x1 -> serial (...)").
    #: Empty when every tier executed as planned; a degraded query still
    #: charges exactly the serial reference — this keeps the fallback
    #: visible in ``EXPLAIN ANALYZE``.
    degradations: Dict[str, str] = field(default_factory=dict)
    #: Integrity-counter movements this query caused (checksum
    #: verifications, detections, quarantines) — empty for the common
    #: all-clean, already-verified case; reported by ``EXPLAIN ANALYZE``.
    #: Verification charges no simulated cost, so this is telemetry only.
    integrity: Dict[str, int] = field(default_factory=dict)

    @property
    def runtime_ms(self) -> float:
        """Simulated runtime of the query in milliseconds."""
        return self.cost.total_ms

    def __len__(self) -> int:
        return len(self.rows)


class QueryExecutor:
    """Executes queries against the table objects of a database.

    The executor asks *table_provider* (the :class:`HybridDatabase`) for the
    physical table object of each referenced table and wraps it in the
    appropriate access path, so partitioned tables are handled transparently.
    """

    def __init__(self, table_provider, device: Optional[DeviceModel] = None) -> None:
        self._tables = table_provider
        self.device = device or DeviceModel()

    def resolve_paths(self, query: Query) -> Dict[str, "AccessPath"]:
        """Resolve the access path of every table the query references.

        This is the physical half of planning: the returned paths capture the
        store and partitioning each table is currently read through, and —
        for a filtered read — the zone-map pruning decision of the base
        table's scan (:meth:`AccessPath.plan_scan`), so that EXPLAIN and
        execution consume one and the same decision.  The session planner
        calls it once per (statement shape, layout), for the first statement
        of the shape, and caches the result inside a
        :class:`~repro.api.plan.PhysicalPlan` (the paths then keep the
        decisions of the shape's other statements as they execute); the
        legacy ``HybridDatabase.execute`` entry point re-resolves per query.
        """
        paths = {
            name: access_path_for(self._tables.table_object(name))
            for name in query.tables
        }
        if isinstance(query, (SelectQuery, AggregationQuery,
                              UpdateQuery, DeleteQuery)):
            # DML predicate scans reuse the read path's decision machinery:
            # a provably-empty UPDATE/DELETE scan is billed and skipped, so
            # write-path accounting stays identical.
            predicate = query.predicate
            if predicate is not None:
                paths[query.table].plan_scan(predicate)
        if isinstance(query, AggregationQuery):
            paths[query.table].plan_aggregate(query)
        if isinstance(query, (SelectQuery, AggregationQuery)):
            # Shard planning runs last: the aggregation verdict above feeds
            # the shard eligibility test (zero-scan answers never shard).
            paths[query.table].plan_shards(query)
        return paths

    def execute_with_paths(
        self, query: Query, paths: Dict[str, "AccessPath"]
    ) -> QueryResult:
        """Execute *query* over already-resolved access *paths*.

        Re-using a plan's paths never changes what a query costs.
        """
        deadline_check()
        accountant = CostAccountant(self.device)
        accountant.charge_query_overhead()
        counters = current().counters
        integrity_before = _INTEGRITY_COUNTS(counters)

        rows: List[Dict[str, Any]] = []
        affected = 0
        kind = type(query)
        if kind is SelectQuery:
            rows = execute_select(query, paths[query.table], accountant)
        elif kind is UpdateQuery:
            affected = execute_update(query, paths[query.table], accountant)
        elif kind is InsertQuery:
            affected = execute_insert(query, paths[query.table], accountant)
        elif kind is AggregationQuery:
            rows = execute_aggregation(query, paths, accountant)
        elif kind is DeleteQuery:
            affected = execute_delete(query, paths[query.table], accountant)
        else:  # pragma: no cover - defensive
            raise QueryError(f"unsupported query type: {kind.__name__}")
        integrity_after = _INTEGRITY_COUNTS(counters)
        return QueryResult(
            rows=rows, affected_rows=affected, cost=accountant.breakdown,
            scan_stats=accountant.scan_stats,
            agg_strategies=accountant.aggregate_strategies,
            shard_stats=accountant.shard_stats,
            degradations=accountant.degradations,
            integrity={} if integrity_after == integrity_before else {
                name: after - before
                for name, before, after in zip(
                    _INTEGRITY_EVENTS, integrity_before, integrity_after
                ) if after != before
            },
        )
