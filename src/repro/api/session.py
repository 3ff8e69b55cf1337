"""The session API: one entry point over the hybrid-store engine.

``connect()`` opens a :class:`Session`, which drives every statement through
the explicit pipeline

    parse → bind → plan → execute

on **one path**: every statement is a prepared statement.  SQL text is split
into a literal-free template and its literal values before the grammar runs
(:func:`repro.query.parser.split_literals`), so the grammar runs once per
statement *shape*; an AST gets its shape from the walk that fingerprints it.
A :class:`Statement` is that pair — ``(shape, values)`` — and the plan cache
is keyed by ``(statement shape, layout/statistics fingerprint)``: ``WHERE id
= 17`` and ``WHERE id = 18`` share one plan, the values are bound per
execution (lifted literals with *literal* semantics, ``?`` / ``:name``
values coerced), and any DDL, store move, repartitioning or statistics
refresh makes the affected plans unreachable.  Binding is split the same
way: a template is *resolved* once per layout (names, placeholders, every
value-independent error — kept on its :class:`Template`), each execution
only *substitutes* its values (:mod:`repro.api.binder`); and every
statement of a session enters the one context object the session installed
over the enclosing one (:class:`~repro.engine.context.FixedScope`).
``session.sql``, ``session.execute(ast)`` and :class:`PreparedStatement` all
run through :meth:`Session.execute`; a prepared statement is a handle on its
:class:`Statement`, nothing more.  The same
:class:`~repro.api.plan.PhysicalPlan` objects feed ``EXPLAIN``
(:meth:`Session.explain`), the storage advisor (:meth:`Session.advisor` —
estimates share one content-keyed memo with the planner) and the online
monitor
(:meth:`repro.core.advisor.monitor.OnlineAdvisorMonitor.attach_session`);
what a plan says about one statement — decisions, view match, the estimate,
priced when first read — is only worked out for whoever looks.

Executing through a session charges *bit-identical*
:class:`~repro.engine.timing.CostBreakdown` costs to the legacy
``HybridDatabase.execute`` path — plans pre-resolve access paths, they never
change what a query costs.

Typical usage::

    from repro.api import connect

    session = connect()
    session.create_table(schema, Store.ROW)
    session.load_rows("sales", rows)

    result = session.sql("SELECT sum(revenue) FROM sales GROUP BY region")
    lookup = session.prepare("SELECT * FROM sales WHERE id = ?")
    row = lookup.execute([42])
    print(session.explain("SELECT sum(revenue) FROM sales GROUP BY region"))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.api.binder import Params, Resolution, bind, resolve, statement_parameters
from repro.api.explain import render_plan
from repro.api.plan import PhysicalPlan, PlanCache, Planner
from repro.config import (
    AdvisorConfig,
    DeviceModelConfig,
    DurabilityConfig,
    IntegrityConfig,
    ResilienceConfig,
)
from repro.core.advisor.advisor import StorageAdvisor
from repro.core.advisor.recommendation import Recommendation
from repro.engine.database import HybridDatabase, WorkloadRunResult
from repro.engine.matview import (
    REFRESH_NOOP,
    MaterializedView,
    RefreshResult,
    matview_enabled,
)
from repro.engine.context import EngineCounters, FixedScope
from repro.engine.integrity import IntegrityReport, scrub
from repro.engine.shard import audit_shared_segments, shutdown_worker_pool
from repro.engine.wal import RecoveryReport, WriteAheadLog, recover as wal_recover
from repro.engine.executor.executor import QueryResult
from repro.engine.partitioning import TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics
from repro.engine.timing import CostBreakdown
from repro.engine.types import Store
from repro.errors import BindError, QueryTimeoutError, WalError
from repro.query.ast import Parameter, Query
from repro.query.fingerprint import statement_shape
from repro.query.parser import bind_literals, parse_template, split_literals
from repro.query.workload import Workload

#: Signature of session plan listeners: (bound query, plan, result).
PlanExecutionListener = Callable[[Query, PhysicalPlan, QueryResult], None]

#: Entries each parse-side memo (exact texts, templates) holds before it
#: starts over.
_PARSE_CACHE_LIMIT = 1024


@dataclass
class SessionStats:
    """Counter snapshot of one session (see :meth:`Session.stats`).

    The shard and integrity counters count the events this session's own
    statements (and its ``close()``) caused — nothing another session or a
    direct engine call did.
    """

    queries_executed: int
    #: Runs of the grammar: one per statement *shape* the text memos did not
    #: hold (``WHERE id = 17`` and ``WHERE id = 18`` are one).
    statements_parsed: int
    #: Text statements served without a grammar run, by the exact-text memo
    #: or the template memo alike.
    parse_cache_hits: int
    prepared_statements: int
    plan_cache_size: int
    #: Plan-cache lookups by statement shape (+ layout/statistics versions)
    #: that found / did not find a plan; plans dropped by the LRU bound.
    plan_cache_hits: int
    plan_cache_misses: int
    plan_cache_evictions: int
    estimate_memo_hits: int
    estimate_memo_misses: int
    #: Aggregations served from a materialized view.
    view_rewrite_hits: int = 0
    #: Plans that recorded a view rewrite but fell back to base-table
    #: execution (views disabled, view dropped, defining-query mismatch).
    view_rewrite_misses: int = 0
    #: Always 0: no refresh is incremental any more.  Kept (never written)
    #: only because the frozen ``benchmarks/e2e`` harness reads it; goes at
    #: the harness re-baseline (ROADMAP item "Unfreeze the harness, then let
    #: it keep score", part (a)).
    view_incremental_refreshes: int = 0
    #: Serves that found the view stale and re-executed its query first.
    view_full_refreshes: int = 0
    #: Sharded attempts retried after a failure (resilience layer).
    shard_retries: int = 0
    #: Worker processes the shard supervisor replaced individually.
    shard_worker_replacements: int = 0
    #: Queries that exhausted the sharded retry budget and ran serially.
    shard_degradations: int = 0
    #: Shared-memory segments the close/atexit audit had to reclaim.
    shard_segments_reclaimed: int = 0
    #: Unexpected (non-race) errors swallowed during pool teardown.
    shard_teardown_errors: int = 0
    #: Queries cancelled by an expired ``execute(timeout=...)`` deadline.
    query_timeouts: int = 0
    #: Checksum verifications performed (integrity layer).
    integrity_units_verified: int = 0
    #: Checksum mismatches detected (scan-time or scrub).
    integrity_corruption_detected: int = 0
    #: Partition units placed in quarantine.
    integrity_units_quarantined: int = 0
    #: Quarantined units rebuilt by :meth:`Session.repair`.
    integrity_units_repaired: int = 0
    #: Column-store position indexes this session's statements built, and
    #: filters they answered from one instead of scanning the codes.
    position_index_builds: int = 0
    position_index_scans: int = 0

    @property
    def plan_cache_hit_rate(self) -> float:
        total = self.plan_cache_hits + self.plan_cache_misses
        return self.plan_cache_hits / total if total else 0.0


class Template:
    """A statement shape as the session keeps it, with its resolution.

    ``query`` is a parser template (a :class:`~repro.query.ast.LiteralSlot`
    where each literal of the text stood) or a caller's AST.  ``resolution``
    is the resolve phase of binding it (:func:`~repro.api.binder.resolve`:
    names, placeholders, every value-independent ``BindError``) under the
    layout versions ``layout`` of its tables — kept while they stand, so
    the distinct literals of one shape each only substitute their values.
    ``epoch`` is the database's layout epoch ``layout`` was read at: while
    no table's version moved anywhere, ``layout`` is not read again.
    """

    __slots__ = ("query", "epoch", "layout", "resolution")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.epoch: Optional[int] = None
        self.layout: Optional[tuple] = None
        self.resolution: Optional[Resolution] = None


class Statement:
    """A statement as the one path sees it: a shape and its values.

    ``template`` holds the shape: a parser template shared by every text of
    that shape (``literals`` beside it), or a caller's AST as it came
    (literals in place, nothing beside it).  ``shape`` keys the plan cache:
    the literal-free text of a text statement (known before the grammar
    runs), the literal-free fingerprint of an AST
    (:func:`~repro.query.fingerprint.statement_shape`) — two key spaces, so
    a text and an AST of one shape each get their plan.  An entry of the
    exact-text memo also keeps what it last bound to, valid while the
    tables' layout versions stand: a recurring text binds once and presents
    the *same* bound object each time, which is how the access paths
    recognise it.
    """

    __slots__ = ("template", "shape", "literals", "parsed", "bound", "layout")

    def __init__(self, template: Template, shape: str,
                 literals: Sequence[Any] = ()) -> None:
        self.template = template
        self.shape = shape
        self.literals = literals
        #: The literal-bearing query of a text statement (see ``Session.parse``).
        self.parsed: Optional[Query] = None
        self.bound: Optional[Query] = None
        self.layout: Optional[tuple] = None


class PreparedStatement:
    """A handle on a parsed, validated :class:`Statement`.

    Produced by :meth:`Session.prepare`, which parsed and validated the
    statement and warmed the plan cache.  ``execute`` is
    :meth:`Session.execute` on the kept statement: it binds the parameter
    values and runs — no re-parse, no re-plan, until DDL/store
    moves/statistics refresh invalidate the plan.  Ad-hoc statements take
    the very same path; preparing only saves the text lookup.
    """

    def __init__(self, session: "Session", sql: str, statement: Statement) -> None:
        self.session = session
        self.sql = sql
        self.statement = statement
        #: The statement's placeholders (positional first, in index order),
        #: as ``Session.prepare`` resolved them.
        self.parameters: Tuple[Parameter, ...] = (
            statement.template.resolution.parameters
        )

    def execute(self, params: Params = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Bind *params* and execute through the cached plan."""
        return self.session.execute(self.statement, params=params,
                                    timeout=timeout)

    __call__ = execute

    def plan(self) -> PhysicalPlan:
        """The statement's current physical plan (re-planned if stale)."""
        return self.session.plan_for(self.statement)

    def explain(self, params: Params = None, analyze: bool = False) -> str:
        return self.session.explain(self.statement, params=params, analyze=analyze)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PreparedStatement({self.sql!r})"


class Session:
    """A connection-like façade over one :class:`HybridDatabase`."""

    def __init__(
        self,
        database: Optional[HybridDatabase] = None,
        device_config: Optional[DeviceModelConfig] = None,
        advisor_config: Optional[AdvisorConfig] = None,
        plan_cache_capacity: int = 512,
        wal_path: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        integrity: Optional[IntegrityConfig] = None,
    ) -> None:
        self.database = database if database is not None else HybridDatabase(device_config)
        self._advisor = StorageAdvisor(
            config=advisor_config, device_config=self.database.device.config
        )
        self._planner = Planner(self.database, lambda: self._advisor.cost_model)
        self._plan_cache = PlanCache(capacity=plan_cache_capacity)
        # The parse side: exact text -> Statement in front (recurring
        # texts), literal-free template text -> Template behind it
        # (distinct literals of a recurring shape).
        self._statements: Dict[str, Statement] = {}
        self._templates: Dict[str, Template] = {}
        self._plan_listeners: List[PlanExecutionListener] = []
        self._queries_executed = 0
        self._statements_parsed = 0
        self._parse_cache_hits = 0
        self._prepared_statements = 0
        self._view_rewrite_hits = 0
        self._view_rewrite_misses = 0
        self._view_full_refreshes = 0
        self._query_timeouts = 0
        self._closed = False
        # What every statement-level entry point enters the engine with
        # (``with self._scope(timeout):``): this session's counters, plus
        # the policies it was opened with.  A default session names no
        # policy, so an enclosing ``shard_config(...)`` /
        # ``integrity_disabled()`` governs it.
        self._counters = EngineCounters()
        context: Dict[str, Any] = {"counters": self._counters}
        if resilience is not None:
            context["resilience"] = resilience
        if integrity is not None:
            context["integrity"] = integrity
        self._scope = FixedScope(**context)
        if wal_path is not None and self.database.wal is None:
            durability = durability or DurabilityConfig()
            self.database.attach_wal(
                WriteAheadLog(
                    wal_path,
                    sync_mode=durability.wal_sync_mode,
                    batch_size=durability.wal_batch_size,
                )
            )

    # -- context management -------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        # Close unconditionally: an exception inside the ``with`` body must
        # not leak the WAL file handle or cached plans.
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release cached plans and the worker pool, close the WAL.

        Idempotent and exception-safe: calling it twice (or after a failed
        statement) is a no-op the second time, listeners are dropped so a
        half-torn-down monitor cannot be re-notified, and the WAL is flushed
        and closed even if clearing a cache were to fail.  The database
        itself stays usable.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self.clear_caches()
            self._plan_listeners.clear()
            # The shard worker pool is process-wide (shared-memory segments
            # plus worker processes); closing the session releases it.  The
            # next sharded query — from a later session — recreates it.
            # The ledger audit then asserts every segment the pool ever
            # published was unlinked exactly once, reclaiming (and counting,
            # on this session) anything a mid-query worker death orphaned.
            with self._scope():
                shutdown_worker_pool()
                audit_shared_segments()
        finally:
            wal = self.database.wal
            if wal is not None and not wal.closed:
                wal.close()

    def clear_caches(self) -> None:
        """Drop every cached parse, plan and cost estimate (cold starts, tests).

        The session stays fully usable: the next statement runs the whole
        parse -> bind -> plan pipeline again and re-populates the caches.
        The shared :class:`EstimateMemo` is cleared too, so stale estimates
        priced against superseded physical state cannot outlive the plans
        that consumed them.
        """
        self._plan_cache.clear()
        self._statements.clear()
        self._templates.clear()
        self._advisor.cost_model.reset_cache()

    # -- the pipeline -------------------------------------------------------------

    def parse(self, statement: str) -> Query:
        """Parse *statement* into its literal-bearing query.

        Cached by exact text, and behind that by literal-free template: the
        grammar runs once per statement shape.
        """
        entry = self._statement(statement)
        if entry.parsed is None:
            entry.parsed = bind_literals(entry.template.query, entry.literals)
        return entry.parsed

    def bind(self, query_or_sql: Union[Query, str], params: Params = None,
             partial: bool = False) -> Query:
        """Bind a statement against the catalog (names, types, parameters)."""
        statement = self._statement(query_or_sql)
        return bind(statement.template.query, self.database.catalog, params,
                    partial=partial, literals=statement.literals)

    def plan_for(self, query_or_sql: Union[Query, str]) -> PhysicalPlan:
        """The physical plan of a statement under the current layout.

        The plan of the statement's shape — served from the plan cache when
        the participating tables' layout/statistics versions match,
        re-planned otherwise — seen for this statement: its decisions, view
        match and estimate.  Placeholders may stay unbound.
        """
        with self._scope():
            bound, plan = self._bind_and_plan(
                self._statement(query_or_sql), None, partial=True
            )
            return self._planner.for_statement(plan, bound)

    def execute(self, query_or_sql: Union[Query, str], params: Params = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Run one statement through parse → bind → plan → execute.

        The one statement path: SQL text, query ASTs and prepared statements
        all execute here.  *timeout* (seconds) arms a cooperative deadline
        over the execution: on expiry
        :class:`~repro.errors.QueryTimeoutError` is raised, no result is
        recorded, no cost is billed (the cancelled execution's accountant
        dies with it) and the shard worker pool — if a wedged worker had to
        be abandoned — is repaired before the error surfaces.
        """
        with self._scope(timeout):
            bound, plan = self._bind_and_plan(
                self._statement(query_or_sql), params
            )
            return self._run_plan(bound, plan)

    def _run_plan(self, bound: Query, plan: PhysicalPlan) -> QueryResult:
        """Execute *bound* through *plan* and record the execution.

        Served from a materialized view when one matches.  An expired
        deadline is counted and leaves nothing recorded.
        """
        try:
            result = None
            if plan.view_candidates:
                result = self._serve_from_view(bound, plan)
            if result is None:
                result = self.database.execute_with_paths(bound, plan.paths)
        except QueryTimeoutError:
            self._query_timeouts += 1
            raise
        self._queries_executed += 1
        if self._plan_listeners:
            plan = self._planner.for_statement(plan, bound)
            for listener in self._plan_listeners:
                listener(bound, plan, result)
        return result

    def _serve_from_view(self, bound: Query, plan: PhysicalPlan) -> Optional[QueryResult]:
        """Answer *bound* from the materialized view defined by it, if any.

        Asked only for plans whose shape some view shares; the match is the
        bound statement's (a template planned from placeholders matches no
        view by literal).  ``None`` falls back to base-table execution.  A
        stale view is refreshed first — its query executes through this
        plan's own paths, exactly as the statement would with views off —
        and the result carries that execution's bill and telemetry plus the
        ``view_scan``: freshness is never traded for speed, the rewrite only
        amortizes the recompute across the recurring executions that
        *don't* follow a write.
        """
        database = self.database
        view = database.matching_view(bound)
        if view is None:
            return None
        if not matview_enabled() or view.query != bound:
            # Views are off, or (defensive) two statements share a
            # fingerprint: the materialized state answers another question.
            self._view_rewrite_misses += 1
            return None
        refresh = database.materialize(view, plan.paths)
        if refresh.kind != REFRESH_NOOP:
            self._view_full_refreshes += 1
        self._view_rewrite_hits += 1
        return view.serve(database.device, refresh)

    def sql(self, statement: str, params: Params = None,
            timeout: Optional[float] = None) -> QueryResult:
        """Execute a SQL-ish statement.

        ``EXPLAIN <statement>`` (optionally ``EXPLAIN ANALYZE``) returns the
        rendered plan as rows with a single ``plan`` column instead of
        executing the statement (``ANALYZE`` executes it once to show actual
        costs).  *timeout* arms a cooperative deadline exactly like
        :meth:`execute` — over the ``ANALYZE`` execution too.
        """
        stripped = statement.strip()
        if stripped[:7].lower() == "explain":
            rest = stripped[len("explain"):].strip()
            analyze = rest.lower().startswith("analyze")
            if analyze:
                rest = rest[len("analyze"):].strip()
            text = self.explain(rest, params=params, analyze=analyze,
                                timeout=timeout)
            return QueryResult(
                rows=[{"plan": line} for line in text.splitlines()],
                affected_rows=0,
                cost=CostBreakdown(),
            )
        return self.execute(stripped, params=params, timeout=timeout)

    def prepare(self, statement: str) -> PreparedStatement:
        """Parse, validate and plan *statement* once for repeated execution."""
        entry = self._statement(statement)
        with self._scope():
            # Validate names/types now and warm the plan cache; placeholders
            # stay unbound until execute.
            self._bind_and_plan(entry, None, partial=True)
        self._prepared_statements += 1
        return PreparedStatement(self, statement, entry)

    def explain(self, query_or_sql: Union[Query, str], params: Params = None,
                analyze: bool = False, timeout: Optional[float] = None) -> str:
        """Render the physical plan of this statement.

        What is rendered is the statement's own: with *params* (or literals)
        its bound values, estimate and decisions, without them the template
        with its placeholders.  ``analyze=True`` also executes once, under
        *timeout* when given (see :meth:`execute`).
        """
        with self._scope(timeout):
            bound, plan = self._bind_and_plan(
                self._statement(query_or_sql), params, partial=params is None
            )
            plan = self._planner.for_statement(plan, bound)
            actual: Optional[QueryResult] = None
            if analyze:
                if statement_parameters(bound):
                    raise BindError(
                        "EXPLAIN ANALYZE needs parameter values for a "
                        "parameterized statement"
                    )
                actual = self._run_plan(bound, plan)
            return render_plan(plan, actual)

    # -- workloads ---------------------------------------------------------------

    def run_workload(self, workload: Workload) -> WorkloadRunResult:
        """Execute every workload query through the session pipeline."""
        run = WorkloadRunResult(workload_name=workload.name)
        for query in workload:
            result = self.execute(query)
            run.record(query, result)
        return run

    # -- advisor ------------------------------------------------------------------

    def advisor(self) -> StorageAdvisor:
        """The session's storage advisor.

        It shares the planner's cost model (and therefore the content-keyed
        estimate memo): estimates computed while planning pre-warm the
        advisor's evaluation of the current layout, and vice versa.
        """
        return self._advisor

    def recommend(self, workload: Workload,
                  include_partitioning: bool = True) -> Recommendation:
        return self._advisor.recommend(
            self.database, workload, include_partitioning=include_partitioning
        )

    def recommend_views(self, workload: Workload, min_occurrences: int = 2):
        """Materialized views worth creating for *workload*'s recurring shapes.

        Pass the online monitor's recorded workload
        (:attr:`~repro.core.advisor.monitor.OnlineAdvisorMonitor.recorded`)
        to recommend from live traffic.  Each proposal is priced through the
        shared :class:`EstimateMemo` exactly like store moves — base-table
        cost vs. serving the materialized rows — and carries both physical
        plans, renderable via
        :meth:`~repro.core.advisor.recommendation.ViewRecommendation.explain`.
        """
        return self._advisor.recommend_views(
            self.database, workload, min_occurrences=min_occurrences
        )

    def apply(self, recommendation: Recommendation) -> None:
        """Apply a recommendation (DDL bumps versions → plans invalidate)."""
        self._advisor.apply(self.database, recommendation)

    # -- plan listeners (consumed by the online monitor) ---------------------------

    def add_plan_listener(self, listener: PlanExecutionListener) -> None:
        self._plan_listeners.append(listener)

    def remove_plan_listener(self, listener: PlanExecutionListener) -> None:
        self._plan_listeners.remove(listener)

    # -- statistics ----------------------------------------------------------------

    def stats(self) -> SessionStats:
        """Counter snapshot: pipeline, plan-cache and estimate-memo activity."""
        memo = self._advisor.cost_model.memo
        counters = self._counters
        return SessionStats(
            queries_executed=self._queries_executed,
            statements_parsed=self._statements_parsed,
            parse_cache_hits=self._parse_cache_hits,
            prepared_statements=self._prepared_statements,
            plan_cache_size=len(self._plan_cache),
            plan_cache_hits=self._plan_cache.hits,
            plan_cache_misses=self._plan_cache.misses,
            plan_cache_evictions=self._plan_cache.evictions,
            estimate_memo_hits=memo.hits,
            estimate_memo_misses=memo.misses,
            view_rewrite_hits=self._view_rewrite_hits,
            view_rewrite_misses=self._view_rewrite_misses,
            view_full_refreshes=self._view_full_refreshes,
            shard_retries=counters.shard_retries,
            shard_worker_replacements=counters.worker_replacements,
            shard_degradations=counters.shard_degradations,
            shard_segments_reclaimed=counters.segments_reclaimed,
            shard_teardown_errors=counters.teardown_errors,
            query_timeouts=self._query_timeouts,
            integrity_units_verified=counters.units_verified,
            integrity_corruption_detected=counters.corruption_detected,
            integrity_units_quarantined=counters.units_quarantined,
            integrity_units_repaired=counters.units_repaired,
            position_index_builds=counters.position_index_builds,
            position_index_scans=counters.position_index_scans,
        )

    # -- DDL / data conveniences (delegation) --------------------------------------

    def create_table(self, schema: TableSchema, store: Store = Store.ROW):
        return self.database.create_table(schema, store)

    def drop_table(self, name: str) -> None:
        self.database.drop_table(name)

    def load_rows(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        return self.database.load_rows(name, rows)

    # -- materialized views ---------------------------------------------------------

    def create_view(self, name: str,
                    query_or_sql: Union[Query, str]) -> MaterializedView:
        """Create a materialized view of an aggregation statement.

        The defining statement is parsed and bound like any query, the view
        materializes immediately, and the planner starts rewriting matching
        statements to it (the view-catalog version bump invalidates every
        cached plan).
        """
        bound = self.bind(query_or_sql)
        with self._scope():
            return self.database.create_view(name, bound)

    def drop_view(self, name: str) -> None:
        self.database.drop_view(name)

    def refresh_view(self, name: str) -> RefreshResult:
        """Explicitly bring one materialized view up to date."""
        with self._scope():
            return self.database.refresh_view(name)

    def views(self) -> List[str]:
        return self.database.view_names()

    def view(self, name: str) -> MaterializedView:
        return self.database.view(name)

    def move_table(self, name: str, store: Store) -> CostBreakdown:
        return self.database.move_table(name, store)

    def apply_partitioning(self, name: str,
                           partitioning: TablePartitioning) -> CostBreakdown:
        return self.database.apply_partitioning(name, partitioning)

    def remove_partitioning(self, name: str, store: Store) -> CostBreakdown:
        return self.database.remove_partitioning(name, store)

    def refresh_statistics(
        self, name: Optional[str] = None
    ) -> Dict[str, TableStatistics]:
        return self.database.refresh_statistics(name)

    # -- durability ----------------------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot the database into the attached WAL and reset the log."""
        return self.database.checkpoint()

    def snapshot(self, name: str):
        """A consistent read view of table *name* (snapshot isolation)."""
        return self.database.snapshot(name)

    def merge_deltas(self, name: Optional[str] = None) -> int:
        """Encode buffered column-store inserts (one table, or all).

        Reads merge by themselves; this does it ahead of them.  Returns the
        number of rows merged.
        """
        return self.database.merge_deltas(name)

    # -- integrity -----------------------------------------------------------------

    def verify_integrity(self) -> IntegrityReport:
        """Scrub every table's partition units against their checksums.

        Walks every column-store unit (per partition for partitioned
        tables), verifies each against the checksum recorded when it was
        last legitimately mutated, and quarantines any mismatch: later
        access raises :class:`~repro.errors.DataCorruptionError` naming the
        exact table/partition/column until :meth:`repair` rebuilds the
        unit.  The scrub itself charges no simulated cost.
        """
        with self._scope():
            return scrub(
                self.database.table_object(name)
                for name in self.database.table_names()
            )

    def repair(self) -> int:
        """Rebuild quarantined units from the WAL; returns units repaired.

        Requires an attached write-ahead log: the committed state is
        recovered from it (latest checkpoint snapshot plus replay, exactly
        the crash-recovery path) and every table holding quarantined units
        is swapped for its recovered — pristine — copy, restoring rows and
        query costs bit-identical to the uncorrupted state.  Tables without
        quarantined units are untouched.  A no-op (returning 0) when
        nothing is quarantined.
        """
        database = self.database
        wal = database.wal
        if wal is None:
            raise WalError(
                "repair() needs an attached write-ahead log to rebuild "
                "quarantined units from (connect with wal_path=...)"
            )
        damaged: Dict[str, int] = {}
        for name in database.table_names():
            count = 0
            for _label, backend in database.table_object(name).integrity_units():
                state = getattr(backend, "integrity", None)
                if state is not None:
                    count += len(state.quarantined_columns())
            if count:
                damaged[name] = count
        if not damaged:
            return 0
        wal.flush()
        repaired = 0
        with self._scope():
            recovered = wal_recover(wal.path, database.device.config)
            for name, count in damaged.items():
                if name not in recovered.database.table_names():
                    raise WalError(
                        f"cannot repair table {name!r}: the write-ahead log "
                        "does not cover it"
                    )
                database.adopt_table(name, recovered.database.table_object(name))
                repaired += count
        self._counters.units_repaired += repaired
        # Plans and estimates priced against the replaced objects must go.
        self.clear_caches()
        return repaired

    def describe(self) -> str:
        return self.database.describe()

    def table_names(self) -> List[str]:
        return self.database.table_names()

    # -- internals ------------------------------------------------------------------

    def _statement(self, query_or_sql: Union[Query, str, Statement]) -> Statement:
        """The :class:`Statement` of some SQL text or of a query AST."""
        if type(query_or_sql) is not str:
            if type(query_or_sql) is Statement:
                return query_or_sql
            return Statement(Template(query_or_sql), statement_shape(query_or_sql))
        statements = self._statements
        statement = statements.get(query_or_sql)
        if statement is not None:
            self._parse_cache_hits += 1
            return statement
        text, literals = split_literals(query_or_sql)
        template = self._templates.get(text)
        if template is None:
            template = Template(parse_template(text, query_or_sql))
            self._statements_parsed += 1
            if len(self._templates) >= _PARSE_CACHE_LIMIT:
                self._templates.clear()
            self._templates[text] = template
        else:
            self._parse_cache_hits += 1
        # The shape of a text statement is known before the grammar runs:
        # its literal-free text.
        statement = Statement(template, text, literals)
        if len(statements) >= _PARSE_CACHE_LIMIT:
            statements.clear()
        statements[query_or_sql] = statement
        return statement

    def _bind_and_plan(self, statement: Statement, params: Params,
                       partial: bool = False) -> Tuple[Query, PhysicalPlan]:
        """Bind *statement*'s values and find (or build) its shape's plan.

        The template is resolved once per layout; each execution only
        substitutes its own values.
        """
        database = self.database
        template = statement.template
        if template.epoch != database.layout_epoch:
            layout = database.layout_fingerprint(template.query.tables)
            if layout != template.layout:
                template.layout, template.resolution = layout, None
            template.epoch = database.layout_epoch
        layout = template.layout
        if params is None and statement.layout == layout:
            # Bound before with nothing to supply, so it has no placeholders;
            # the layout versions say the schema it bound against stands.
            bound = statement.bound
        else:
            resolution = template.resolution
            if resolution is None:
                resolution = template.resolution = resolve(
                    template.query, database.catalog
                )
            bound = resolution.substitute(statement.literals, params, partial)
            if params is None and not partial:
                statement.bound, statement.layout = bound, layout
        key = (
            statement.shape,
            layout,
            self._advisor.cost_model.parameters_fingerprint,
            # View DDL (and explicit refreshes) bump this version: a plan
            # that found — or did not find — views of its shape must not
            # outlive the view catalog it was planned against.
            database.catalog.view_catalog_version,
        )
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = self._planner.plan(bound)
            self._plan_cache.put(key, plan)
        return bound, plan


def connect(
    database: Optional[HybridDatabase] = None,
    device_config: Optional[DeviceModelConfig] = None,
    advisor_config: Optional[AdvisorConfig] = None,
    plan_cache_capacity: int = 512,
    wal_path: Optional[str] = None,
    durability: Optional[DurabilityConfig] = None,
    resilience: Optional[ResilienceConfig] = None,
    integrity: Optional[IntegrityConfig] = None,
) -> Session:
    """Open a :class:`Session` over a new (or an existing) database.

    With a *wal_path*, every DDL/DML statement is logged to a write-ahead
    log at that path so the database can be rebuilt with :func:`recover`
    after a crash.  *durability* tunes the WAL sync mode and batch size
    (see :class:`~repro.config.DurabilityConfig`).
    *resilience* tunes the resilient execution layer — shard retry budget,
    gather timeout, backoff (see :class:`~repro.config.ResilienceConfig`) —
    and *integrity* the checksum layer — scan-time and shard-attach
    verification (see :class:`~repro.config.IntegrityConfig`); both govern
    this session's statements only: they are fields of the
    :class:`~repro.engine.context.ExecutionContext` entered around each one.
    """
    return Session(
        database=database,
        device_config=device_config,
        advisor_config=advisor_config,
        plan_cache_capacity=plan_cache_capacity,
        wal_path=wal_path,
        durability=durability,
        resilience=resilience,
        integrity=integrity,
    )


def recover(
    path: str,
    device_config: Optional[DeviceModelConfig] = None,
    advisor_config: Optional[AdvisorConfig] = None,
    plan_cache_capacity: int = 512,
    durability: Optional[DurabilityConfig] = None,
) -> Tuple[Session, RecoveryReport]:
    """Rebuild a database from the WAL at *path* and open a session over it.

    Replays the log (restoring the latest checkpoint snapshot first, when
    one exists), then re-opens the log for appending — truncating any torn
    tail — so the returned session is durable again.  The report describes
    what replay found: corrupt records skipped, torn bytes dropped, LSNs
    applied, and whether the checkpoint snapshot itself was corrupt
    (``report.snapshot_corrupt`` — bad magic, framing, checksum or payload):
    a corrupt snapshot is never restored from; recovery falls back to
    replaying the full log instead.  Recovery itself is read-only and
    idempotent; only the re-open for appending trims the file.
    """
    result = wal_recover(path, device_config)
    durability = durability or DurabilityConfig()
    result.database.attach_wal(
        WriteAheadLog(
            path,
            sync_mode=durability.wal_sync_mode,
            batch_size=durability.wal_batch_size,
        )
    )
    session = Session(
        database=result.database,
        advisor_config=advisor_config,
        plan_cache_capacity=plan_cache_capacity,
        durability=durability,
    )
    return session, result.report
