"""Physical plans, the planner and the session plan cache.

The session pipeline makes the formerly implicit planning work explicit:

* a :class:`PhysicalPlan` captures the *resolved access path* of every
  referenced table (store, partitioning, index choice, vertical-partition
  pruning) and the layout/statistics fingerprint it was built under — what
  every statement of one *shape* shares — next to what is one statement's
  own: its scan / aggregate / shard decisions, its materialized-view match,
  and the cost model's :class:`CostEstimate`, priced when first read,
* the :class:`Planner` plans the first statement of a shape and re-targets
  that plan at its siblings (:meth:`Planner.for_statement`), and
* the :class:`PlanCache` memoizes plans per ``(statement shape,
  layout/statistics fingerprint)`` — literals are not part of the key, so
  ``WHERE id = 17`` and ``WHERE id = 18`` run through one plan; DDL, store
  moves, repartitioning and statistics refresh bump the participating
  tables' versions (see
  :meth:`repro.engine.database.HybridDatabase.table_version`), so stale
  plans become unreachable without any explicit invalidation hook.

Executing a plan charges *bit-identical* costs to the legacy
``HybridDatabase.execute`` path: the plan only pre-resolves the access
paths; every cost is still charged by the stores and operators during
execution, and every decision execution consumes is kept — per statement —
by the access path itself (:mod:`repro.engine.executor.access`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional

from repro.core.cost_model.estimator import TableProfile, query_contributions
from repro.core.cost_model.model import CostModel
from repro.engine.database import HybridDatabase
from repro.engine.executor.agg_pushdown import AggregateStrategy
from repro.engine.partitioning import PartitionedTable
from repro.engine.types import Store
from repro.engine.zonemap import ScanDecision
from repro.query.ast import AggregationQuery, Query, SelectQuery
from repro.query.fingerprint import query_fingerprint, statement_shape
from repro.query.predicates import Between, Comparison, Predicate


@dataclass
class TableAccessPlan:
    """Resolved physical access of one table."""

    table: str
    store: Optional[Store]          # None for partitioned tables
    partitioned: bool
    num_rows: int
    access: str                     # e.g. "full scan", "hash-index lookup(id)"
    layout: str                     # human-readable layout description
    pruning: Optional[str] = None   # vertical-partition pruning note
    #: Zone-map pruning decision of this table's scan (base table of a
    #: filtered read only); the executor consumes the same object.
    scan_decision: Optional[ScanDecision] = None
    #: Aggregate-pushdown strategy (base table of an aggregation only); the
    #: executor consumes the same object, so EXPLAIN and execution coincide.
    aggregate_strategy: Optional[AggregateStrategy] = None
    #: Shard fan-out decision (base table of a read query only); the
    #: executor consumes the same object.
    shard_decision: Optional[Any] = None

    def describe(self) -> str:
        text = f"{self.table}: {self.layout}, {self.num_rows} rows, {self.access}"
        if self.pruning:
            text += f" [{self.pruning}]"
        decision = self.scan_decision
        if decision is not None and decision.skipped:
            text += f" [zone pruning: {decision.describe()}]"
        shards = self.shard_decision
        if shards is not None and shards.sharded:
            text += f" [shards: {shards.describe()}]"
        return text


@dataclass(frozen=True)
class ViewRewrite:
    """A planner rewrite: answer the query from a materialized view.

    Recorded in the :class:`PhysicalPlan` whenever the catalog holds a view
    whose defining-query fingerprint equals the plan's — regardless of the
    ``matview_disabled()`` toggle, which gates *serving*, not detection, so
    EXPLAIN can always show what the planner would do.  A stale view is
    refreshed before serving (never serve stale rows); the session falls back
    to base-table execution when views are disabled or the view disappeared.
    """

    view: str
    fingerprint: str

    def describe(self) -> str:
        return f"materialized view {self.view} [view {self.fingerprint}]"


@dataclass
class CostEstimate:
    """The cost model's estimate for one physical plan.

    ``per_term_ms`` is the estimated cost broken down by cost-model term
    (the estimator's vocabulary: scanned bytes, decodes, hash probes, ...),
    summed over the participating tables — the estimated counterpart of the
    executor's :class:`~repro.engine.timing.CostBreakdown`.
    """

    total_ms: float
    per_table_ms: Dict[str, float] = field(default_factory=dict)
    per_term_ms: Dict[str, float] = field(default_factory=dict)
    assignment: Dict[str, Store] = field(default_factory=dict)


#: Statements of one shape a cached plan keeps a re-targeted copy for.
SIBLINGS_KEPT = 64


class _PricedOnFirstRead:
    """The ``estimate`` field of a plan: priced from its statement when read.

    Only ``EXPLAIN`` and an attached monitor ever read an estimate, so a
    plan is built — and a statement executed — without one.  A descriptor
    (not a property) so the field stays assignable through the dataclass
    constructor and :func:`dataclasses.replace`.
    """

    def __get__(self, plan: Optional["PhysicalPlan"], owner=None):
        if plan is None:
            return None  # the dataclass default: not priced yet
        estimate = plan.__dict__.get("_estimate")
        if estimate is None:
            estimate = plan.__dict__["_estimate"] = plan.price(plan.query)
        return estimate

    def __set__(self, plan: "PhysicalPlan", estimate: Optional[CostEstimate]) -> None:
        plan.__dict__["_estimate"] = estimate


@dataclass(eq=False, repr=False)
class PhysicalPlan:
    """The executable physical plan of one statement.

    ``paths`` (ready to execute), the per-table access descriptions and the
    two fingerprints depend on the statement's *shape* and the layout only:
    the plan cache keeps the plan of the first statement of each shape, and
    executing a sibling statement needs nothing else.  ``query``, the
    decisions inside ``table_plans``, ``view_rewrite`` and ``estimate`` are
    the statement's own; :meth:`Planner.for_statement` re-targets a cached
    plan at a sibling for whoever wants to look at them (``plan_for``,
    ``EXPLAIN``, plan listeners) — and the decisions and the estimate are
    only worked out when they do.
    """

    query: Query
    paths: Dict[str, Any]
    #: Per-table access descriptions, decisions left out (see ``table_plans``).
    accesses: List[TableAccessPlan]
    layout_fingerprint: tuple
    statistics_fingerprints: Dict[str, str]
    #: Prices ``estimate`` on its first read (:meth:`Planner.estimate`).
    price: Callable[[Query], CostEstimate]
    #: Whether some materialized view has this plan's shape — only then can
    #: a statement of the shape match one, and only then is it asked.
    view_candidates: bool = False
    #: The materialized view answering ``query`` (aggregations only); the
    #: session serves the statement from it when views are enabled.
    view_rewrite: Optional[ViewRewrite] = None
    estimate: Optional[CostEstimate] = _PricedOnFirstRead()
    #: The siblings this plan was re-targeted at, by query fingerprint
    #: (shared by the whole family; at most :data:`SIBLINGS_KEPT`).
    siblings: Dict[str, "PhysicalPlan"] = field(default_factory=dict)

    @cached_property
    def table_plans(self) -> List[TableAccessPlan]:
        """``accesses`` carrying the base-table decisions of ``query``.

        Asked of the access path exactly as execution asks — the path keeps
        them per statement, so EXPLAIN and execution provably coincide —
        when first read, and recorded from then on.
        """
        query = self.query
        path = self.paths[query.table]
        predicate = getattr(query, "predicate", None)
        reads = isinstance(query, (SelectQuery, AggregationQuery))
        base = replace(
            self.accesses[0],
            scan_decision=(
                path.decision_for(predicate) if predicate is not None else None
            ),
            aggregate_strategy=(
                path.aggregate_decision_for(query)
                if isinstance(query, AggregationQuery) else None
            ),
            shard_decision=path.shard_decision_for(query) if reads else None,
        )
        return [base] + self.accesses[1:]

    @property
    def fingerprint(self) -> str:
        return query_fingerprint(self.query)

    @property
    def estimated_ms(self) -> float:
        return self.estimate.total_ms

    @property
    def scan_decisions(self) -> Dict[str, ScanDecision]:
        """Per-table zone-pruning decisions recorded in ``table_plans``."""
        return {
            table_plan.table: table_plan.scan_decision
            for table_plan in self.table_plans
            if table_plan.scan_decision is not None
        }


class Planner:
    """Builds physical plans against a database's current layout."""

    def __init__(
        self,
        database: HybridDatabase,
        cost_model_provider: Callable[[], CostModel],
    ) -> None:
        self.database = database
        self._cost_model_provider = cost_model_provider

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model_provider()

    def plan(self, query: Query) -> PhysicalPlan:
        """Build a physical plan for *query* under the current layout."""
        database = self.database
        paths = database.resolve_access_paths(query)
        view_candidates = isinstance(query, AggregationQuery) and any(
            statement_shape(view.query) == statement_shape(query)
            for view in database.views_on(query.table)
        )
        return PhysicalPlan(
            query=query,
            paths=paths,
            accesses=[self._table_access_plan(name, query) for name in query.tables],
            layout_fingerprint=database.layout_fingerprint(query.tables),
            statistics_fingerprints={
                name: database.catalog.statistics_of(name).fingerprint
                for name in query.tables
            },
            price=self.estimate,
            view_candidates=view_candidates,
            view_rewrite=self._view_rewrite(query) if view_candidates else None,
        )

    def for_statement(self, plan: PhysicalPlan, query: Query) -> PhysicalPlan:
        """*plan* as the plan of *query*, a statement of the same shape.

        The plan itself when *query* is the statement it was planned from;
        otherwise a sibling sharing its paths, with *query*'s own decisions,
        view match and (on first read) estimate.  Siblings are kept — a
        monitored session cycling through recurring statements prices each
        once — so asking again for the same statement returns the same
        object.
        """
        fingerprint = query_fingerprint(query)
        if fingerprint == plan.fingerprint:
            return plan
        siblings = plan.siblings
        sibling = siblings.get(fingerprint)
        if sibling is None:
            if len(siblings) >= SIBLINGS_KEPT:
                siblings.clear()
            sibling = siblings[fingerprint] = replace(
                plan,
                query=query,
                view_rewrite=(
                    self._view_rewrite(query) if plan.view_candidates else None
                ),
                estimate=None,
            )
        return sibling

    def _view_rewrite(self, query: Query) -> Optional[ViewRewrite]:
        """A rewrite to the materialized view matching *query*, if one exists.

        Matching is by defining-query fingerprint (the recurrence key the
        online monitor counts too) of the *bound* statement.  The plan cache
        keys plans by the view catalog's version, so CREATE/DROP/refresh of
        any view makes plans unreachable whose ``view_candidates`` it could
        have changed.
        """
        view = self.database.matching_view(query)
        if view is None:
            return None
        return ViewRewrite(view=view.name, fingerprint=view.fingerprint)

    # -- access-path description ---------------------------------------------------

    def _table_access_plan(self, name: str, query: Query) -> TableAccessPlan:
        database = self.database
        entry = database.catalog.entry(name)
        table = database.table_object(name)
        predicate = getattr(query, "predicate", None) if name == query.table else None
        if isinstance(table, PartitionedTable):
            return TableAccessPlan(
                table=name,
                store=None,
                partitioned=True,
                num_rows=table.num_rows,
                access=self._partitioned_access(table, query, predicate),
                layout=f"partitioned ({table.partitioning.describe()})",
                pruning=self._pruning_note(table, query),
            )
        return TableAccessPlan(
            table=name,
            store=entry.store,
            partitioned=False,
            num_rows=table.num_rows,
            access=self._stored_access(table, predicate),
            layout=entry.describe_layout(),
        )

    @staticmethod
    def _stored_access(table, predicate: Optional[Predicate]) -> str:
        if predicate is None:
            return "full scan"
        if table.store is Store.COLUMN:
            if isinstance(predicate, (Comparison, Between)):
                return f"dictionary-coded scan({next(iter(predicate.columns()))})"
            return "column scan + predicate"
        # Row store: the store names the index access it will take.
        indexed = table.backend.index_access(predicate)
        if indexed is not None:
            return f"{indexed[0]}({predicate.column})"
        return "full scan + predicate"

    @staticmethod
    def _partitioned_access(table: PartitionedTable, query: Query,
                            predicate: Optional[Predicate]) -> str:
        segments = len(table.main_parts) + (1 if table.hot is not None else 0)
        return f"partition union over {segments} segment(s)"

    @staticmethod
    def _pruning_note(table: PartitionedTable, query: Query) -> Optional[str]:
        if not table.has_vertical_split:
            return None
        needed = sorted(query.columns_of(table.name))
        if not needed:
            return None
        parts = table.main_parts_for_columns(needed)
        return (
            f"vertical pruning: {len(parts)} of {len(table.main_parts)} "
            "main part(s) touched"
        )

    # -- estimation ----------------------------------------------------------------

    def estimate(self, query: Query) -> CostEstimate:
        """Price *query* under the current layout (through the estimate memo)."""
        database = self.database
        model = self.cost_model
        assignment: Dict[str, Store] = {}
        profiles: Dict[str, TableProfile] = {}
        for name in query.tables:
            entry = database.catalog.entry(name)
            # Partitioned tables have no single store; the cost model prices
            # them as column store (their historic portion's usual layout).
            assignment[name] = entry.store if not entry.is_partitioned else Store.COLUMN
            profiles[name] = TableProfile(
                schema=entry.schema, statistics=database.catalog.statistics_of(name)
            )
        total_ms = model.estimate_query_ms(query, assignment, profiles)
        per_table: Dict[str, float] = {}
        per_term: Dict[str, float] = {}
        for contribution in query_contributions(query, assignment, profiles):
            table_ms = model.price_contribution_ms(contribution)
            per_table[contribution.table] = per_table.get(contribution.table, 0.0) + table_ms
            weights = model.parameters.weights_for(
                contribution.store, contribution.query_type
            )
            for term, amount in contribution.terms.items():
                term_ms = weights.weights.get(term, 0.0) * amount / 1_000_000.0
                if term_ms:
                    per_term[term] = per_term.get(term, 0.0) + term_ms
        return CostEstimate(
            total_ms=total_ms,
            per_table_ms=per_table,
            per_term_ms=per_term,
            assignment=assignment,
        )


class PlanCache:
    """LRU cache of physical plans keyed by (shape, layout/statistics) fingerprints."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, PhysicalPlan]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: tuple) -> Optional[PhysicalPlan]:
        plan = self._plans.get(key)
        if plan is None:
            self.misses += 1
            return None
        self._plans.move_to_end(key)
        self.hits += 1
        return plan

    def put(self, key: tuple, plan: PhysicalPlan) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._plans.clear()
