"""HybridDatabase: the façade of the hybrid-store execution engine.

A :class:`HybridDatabase` owns the system catalog, the physical table objects
(plain :class:`~repro.engine.table.StoredTable` or
:class:`~repro.engine.partitioning.PartitionedTable`), the device/timing model
and the query executor.  It offers:

* DDL — creating and dropping tables, moving a table between stores, applying
  or removing a partitioning (the operations the storage advisor recommends),
* DML and queries through :meth:`execute`, with per-query simulated costs,
* workload execution with aggregated runtime statistics, and
* statistics refresh for the system catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Union

from repro.config import DeviceModelConfig
from repro.engine.catalog import Catalog
from repro.engine.executor.executor import QueryExecutor, QueryResult
from repro.engine.matview import MaterializedView, RefreshResult
from repro.engine.partitioning import PartitionedTable, TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics, compute_table_statistics
from repro.engine.table import StoredTable
from repro.engine.timing import CostAccountant, CostBreakdown, DeviceModel
from repro.engine.types import Store
from repro.errors import CatalogError, WalError
from repro.query.ast import Query, QueryType
from repro.query.workload import Workload

TableObject = Union[StoredTable, PartitionedTable]

#: Query types the write-ahead log records (reads are never logged).
_DML_TYPES = (QueryType.INSERT, QueryType.UPDATE, QueryType.DELETE)

#: Signature of execution listeners (used by the online workload monitor).
ExecutionListener = Callable[[Query, QueryResult], None]


@dataclass
class WorkloadRunResult:
    """Aggregated result of running a workload against the database."""

    workload_name: str
    query_runtimes_ms: List[float] = field(default_factory=list)
    runtime_by_type_ms: Dict[QueryType, float] = field(default_factory=dict)
    queries_by_type: Dict[QueryType, int] = field(default_factory=dict)

    @property
    def total_runtime_ms(self) -> float:
        return sum(self.query_runtimes_ms)

    @property
    def total_runtime_s(self) -> float:
        return self.total_runtime_ms / 1000.0

    @property
    def num_queries(self) -> int:
        return len(self.query_runtimes_ms)

    @property
    def mean_runtime_ms(self) -> float:
        if not self.query_runtimes_ms:
            return 0.0
        return self.total_runtime_ms / len(self.query_runtimes_ms)

    def record(self, query: Query, result: QueryResult) -> None:
        runtime = result.runtime_ms
        self.query_runtimes_ms.append(runtime)
        query_type = query.query_type
        self.runtime_by_type_ms[query_type] = (
            self.runtime_by_type_ms.get(query_type, 0.0) + runtime
        )
        self.queries_by_type[query_type] = self.queries_by_type.get(query_type, 0) + 1


class HybridDatabase:
    """An in-memory hybrid-store database with simulated query costs."""

    def __init__(self, device_config: Optional[DeviceModelConfig] = None) -> None:
        self.catalog = Catalog()
        self.device = DeviceModel(device_config)
        self._tables: Dict[str, TableObject] = {}
        self._executor = QueryExecutor(self, self.device)
        self._listeners: List[ExecutionListener] = []
        # Per-table layout/statistics version, bumped by every DDL operation,
        # store move, (re)partitioning and statistics refresh.  The session
        # plan cache keys plans by these versions, so any such change makes
        # cached plans unreachable (= invalidates them) without the engine
        # knowing about plan caches.  Plain DML does not bump versions: it
        # changes data, not layout or recorded statistics.
        self._table_versions: Dict[str, int] = {}
        #: The latest version handed out to any table: moves whenever some
        #: table's version does, so a caller that read the versions it cares
        #: about at one epoch need not read them again while it stands.
        self.layout_epoch = 0
        # Optional write-ahead log (see repro.engine.wal).  When attached,
        # every DDL operation, bulk load and DML statement is logged after it
        # takes effect, so the log is a redo log of committed statements.
        self.wal = None
        # Materialized-view state (definitions live in the catalog; the
        # materialized rows live here, next to the table objects).
        # Views are derived state and deliberately NOT WAL-logged: recovery
        # rebuilds base tables, and the first refresh after recovery
        # rematerializes a recreated view from them.
        self._views: Dict[str, "MaterializedView"] = {}

    # -- durability ----------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.engine.wal.WriteAheadLog` to this database."""
        self.wal = wal

    def checkpoint(self) -> int:
        """Snapshot the database into the attached WAL and reset the log."""
        if self.wal is None:
            raise CatalogError("no write-ahead log attached to this database")
        return self.wal.checkpoint(self)

    def snapshot_state(self) -> List[Dict[str, Any]]:
        """Picklable snapshot of every table plus its catalog entry."""
        state = []
        for name in self.table_names():
            entry = self.catalog.entry(name)
            state.append(
                {
                    "schema": entry.schema,
                    "store": entry.store,
                    "partitioning": entry.partitioning,
                    "table": self._tables[name],
                }
            )
        return state

    def restore_state(self, state: List[Dict[str, Any]]) -> None:
        """Load a :meth:`snapshot_state` snapshot into this (fresh) database."""
        for item in state:
            schema = item["schema"]
            self.catalog.register_table(schema, item["store"])
            if item["partitioning"] is not None:
                self.catalog.set_partitioning(schema.name, item["partitioning"])
            self._tables[schema.name] = item["table"]
            self.refresh_statistics(schema.name)

    def merge_deltas(self, name: Optional[str] = None) -> int:
        """Encode the column-store write buffers of one table (or all tables).

        Returns the number of rows merged.  Every read merges its table's
        buffer by itself, and plans and statistics never saw the buffer, so
        a merge leaves the table version — and cached plans — alone.
        """
        names = [name] if name is not None else self.table_names()
        return sum(self.table_object(table_name).merge_delta() for table_name in names)

    def snapshot(self, name: str):
        """A consistent read view of *name* as of now (snapshot isolation)."""
        return self.table_object(name).snapshot()

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, schema: TableSchema, store: Store = Store.ROW) -> StoredTable:
        """Create an empty table in *store* and register it in the catalog."""
        entry = self.catalog.register_table(schema, store)
        table = StoredTable(schema, store)
        self._tables[schema.name] = table
        entry.statistics = compute_table_statistics(table)
        self._bump_version(schema.name)
        if self.wal is not None:
            self.wal.log_create_table(schema, store)
        return table

    def drop_table(self, name: str) -> None:
        # Dependent materialized views cascade: their state derives entirely
        # from the dropped data.
        for entry in self.catalog.views_on(name):
            self.drop_view(entry.name)
        self.catalog.drop_table(name)
        del self._tables[name]
        # The version entry stays (and bumps): a plan cached against the
        # dropped table must not resurface if a same-named table reappears.
        self._bump_version(name)
        if self.wal is not None:
            self.wal.log_drop_table(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def table_object(self, name: str) -> TableObject:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def adopt_table(self, name: str, table_object: TableObject) -> None:
        """Replace *name*'s table object in place (integrity repair).

        The catalog entry (schema, store, partitioning) stays: the adopted
        object must hold the same committed state — e.g. a copy rebuilt by
        WAL recovery after corruption quarantined the original.  Statistics
        are recomputed and the table version bumps, so no cached plan can
        keep serving the replaced object.
        """
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        self._tables[name] = table_object
        self.refresh_statistics(name)

    def schema(self, name: str) -> TableSchema:
        return self.catalog.schema(name)

    def store_of(self, name: str) -> Optional[Store]:
        """The store of an unpartitioned table; ``None`` for partitioned ones."""
        entry = self.catalog.entry(name)
        if entry.is_partitioned:
            return None
        return entry.store

    # -- materialized views ---------------------------------------------------------------

    def create_view(self, name: str, query) -> MaterializedView:
        """Create and materialize a view of *query* (an aggregation).

        Validate, execute, and only then register: the defining query runs
        first, so a view whose first materialization fails (bad column,
        timeout, corruption) was never in the catalog.  Registration files it
        under its fingerprint — the planner's rewrite key — ready to serve.
        """
        view = MaterializedView(name, query)
        self.catalog.validate_view(name, view.table, view.fingerprint)
        self.materialize(view)
        self.catalog.register_view(name, view.table, view.fingerprint, query)
        self._views[name] = view
        return view

    def materialize(self, view: MaterializedView, paths=None) -> RefreshResult:
        """Bring *view* up to date by executing its query, if it is stale.

        The one way a view gets its rows: ``create_view``, ``refresh_view``
        and the session's serve-time refresh all come through here.  *paths*
        are a plan's pre-resolved access paths (a serve consumes the plan's
        recorded decisions); without them they are resolved now.  The query
        goes to the executor directly — a refresh is not a statement of its
        own: reads are never logged, and execution listeners hear of a serve
        from the session.
        """
        if paths is None:
            paths = self.resolve_access_paths(view.query)
        return view.refresh(
            self.table_object(view.table),
            lambda query: self._executor.execute_with_paths(query, paths),
        )

    def drop_view(self, name: str) -> None:
        self.catalog.drop_view(name)
        del self._views[name]

    def view(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"unknown materialized view {name!r}") from None

    def view_names(self) -> List[str]:
        return sorted(self._views)

    def views_on(self, table: str) -> List[MaterializedView]:
        return [self._views[entry.name] for entry in self.catalog.views_on(table)]

    def matching_view(self, query) -> Optional[MaterializedView]:
        """The view materializing exactly *query*, if one exists.

        Matches by query fingerprint — the same recurrence key the online
        monitor counts — so the planner's rewrite detection and the advisor's
        recurrence detection agree on what "the same query" means.
        """
        if getattr(query, "query_type", None) is not QueryType.AGGREGATION:
            return None
        from repro.query.fingerprint import query_fingerprint

        entry = self.catalog.view_for_fingerprint(query_fingerprint(query))
        if entry is None:
            return None
        return self._views.get(entry.name)

    def refresh_view(self, name: str) -> RefreshResult:
        """Explicitly bring one view up to date (DDL-level refresh).

        Bumps the view-catalog version: cached plans may have been built
        while the view was stale, and an explicit refresh is a user-visible
        catalog event like CREATE/DROP.  (The session's serve-time refresh
        calls :meth:`materialize` directly and does not bump — serving is
        not DDL.)
        """
        result = self.materialize(self.view(name))
        self.catalog.bump_view_version()
        return result

    # -- layout changes (what the advisor recommends) -----------------------------------

    def move_table(self, name: str, store: Store) -> CostBreakdown:
        """Move *name* to *store*, returning the cost of the data movement.

        If the table is currently partitioned it is first collapsed back into
        a single table.
        """
        accountant = CostAccountant(self.device)
        table = self.table_object(name)
        if isinstance(table, PartitionedTable):
            table = table.to_stored_table(store, accountant)
            self._tables[name] = table
            self.catalog.clear_partitioning(name, store)
        else:
            table.convert_to(store, accountant)
            self.catalog.set_store(name, store)
        self.refresh_statistics(name)
        if self.wal is not None:
            self.wal.log_move_table(name, store)
        return accountant.breakdown

    def apply_partitioning(
        self, name: str, partitioning: TablePartitioning
    ) -> CostBreakdown:
        """Split *name* according to *partitioning*, returning the movement cost."""
        accountant = CostAccountant(self.device)
        table = self.table_object(name)
        if isinstance(table, PartitionedTable):
            # Collapse first, then re-partition with the new layout.
            table = table.to_stored_table(Store.COLUMN, accountant)
        partitioned = PartitionedTable.from_table(table, partitioning, accountant)
        self._tables[name] = partitioned
        self.catalog.set_partitioning(name, partitioning)
        self.refresh_statistics(name)
        if self.wal is not None:
            self.wal.log_apply_partitioning(name, partitioning)
        return accountant.breakdown

    def remove_partitioning(self, name: str, store: Store) -> CostBreakdown:
        """Collapse a partitioned table back into a single-store table.

        Logged (by :meth:`move_table`) as a store move, which replays to the
        same collapsed layout.
        """
        return self.move_table(name, store)

    # -- data loading ---------------------------------------------------------------------

    def load_rows(self, name: str, rows: Iterable[Mapping[str, Any]]) -> int:
        """Bulk load rows without cost accounting (initial data population).

        The rows become column lists once
        (:meth:`~repro.engine.schema.TableSchema.gather_columns`) and load
        as :meth:`load_columns` loads them.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        schema = self.table_object(name).schema
        self._load_columns(name, schema.gather_columns(rows), len(rows))
        self.refresh_statistics(name)
        return len(rows)

    def load_columns(
        self, name: str, columns: Mapping[str, list], num_rows: int
    ) -> int:
        """Bulk load *num_rows* rows given as column lists (a logged load's replay)."""
        self._load_columns(name, columns, num_rows)
        self.refresh_statistics(name)
        return num_rows

    def _load_columns(
        self, name: str, columns: Mapping[str, list], num_rows: int
    ) -> None:
        """Validate *columns* once, load them into every store, log them.

        Validation is column-at-a-time
        (:meth:`~repro.engine.schema.TableSchema.validate_columns`), and the
        log records the validated columns, so replaying the load checks
        canonical lists and comes back here.  A load that fails — a schema
        violation or a key already taken — changes nothing, so it is not
        logged either; nor does a load run against a closed log.  The lists
        are dropped before the caller refreshes the statistics.
        """
        if self.wal is not None and self.wal.closed:
            raise WalError("write-ahead log is closed")
        table = self.table_object(name)
        columns = table.schema.validate_columns(columns, num_rows)
        table.load_columns(columns, num_rows)
        if self.wal is not None:
            self.wal.log_load_columns(name, columns, num_rows)

    # -- statistics --------------------------------------------------------------------------

    def refresh_statistics(self, name: Optional[str] = None) -> Dict[str, TableStatistics]:
        """Recompute catalog statistics for one table (or all tables)."""
        names = [name] if name is not None else self.table_names()
        updated = {}
        for table_name in names:
            statistics = compute_table_statistics(self.table_object(table_name))
            self.catalog.update_statistics(table_name, statistics)
            self._bump_version(table_name)
            updated[table_name] = statistics
        return updated

    # -- layout/statistics versioning (consumed by the session plan cache) ---------------

    def _bump_version(self, name: str) -> None:
        self.layout_epoch += 1
        self._table_versions[name] = self.layout_epoch

    def table_version(self, name: str) -> int:
        """Monotonic layout/statistics version of one table.

        Bumped by DDL (create/drop), store moves, applying or removing a
        partitioning and statistics refresh (which bulk loads trigger too);
        a merge of the column store's write buffer does not bump it (no
        reader saw the buffer).  Unknown tables report version 0,
        which a subsequent ``CREATE`` necessarily replaces with a larger
        number.
        """
        return self._table_versions.get(name, 0)

    def layout_fingerprint(self, tables: Iterable[str]) -> tuple:
        """Version tuple of *tables* — the plan-cache's invalidation key."""
        return tuple((name, self.table_version(name)) for name in tables)

    def statistics(self, name: str) -> TableStatistics:
        return self.catalog.statistics_of(name)

    # -- execution -------------------------------------------------------------------------------

    def add_execution_listener(self, listener: ExecutionListener) -> None:
        """Register a callback invoked after every executed query (online mode)."""
        self._listeners.append(listener)

    def remove_execution_listener(self, listener: ExecutionListener) -> None:
        self._listeners.remove(listener)

    def execute(self, query: Query) -> QueryResult:
        """Execute one query, returning rows and the simulated cost.

        This is the legacy single-shot entry point (parse-and-run callers,
        existing tests); :class:`repro.api.Session` drives the same executor
        through explicit :class:`~repro.api.plan.PhysicalPlan` objects and
        charges bit-identical costs.  A statement that fails while resolving
        its paths has had no effect and is not logged.
        """
        return self.execute_with_paths(query, self.resolve_access_paths(query))

    def resolve_access_paths(self, query: Query):
        """Resolve the physical access path of every table *query* references."""
        return self._executor.resolve_paths(query)

    def execute_with_paths(self, query: Query, paths) -> QueryResult:
        """Execute *query* over pre-resolved access paths (the plan path).

        Used by the session layer to run a cached physical plan without
        re-resolving tables.  DML against a closed write-ahead log is
        refused before it touches a row — memory must never run ahead of
        the log; reads keep working.  A statement that raises has changed
        nothing on any layout, so only statements that succeeded are logged.
        """
        logged = self.wal is not None and query.query_type in _DML_TYPES
        if logged and self.wal.closed:
            raise WalError("write-ahead log is closed")
        result = self._executor.execute_with_paths(query, paths)
        if logged:
            self.wal.log_dml(query)
        for listener in self._listeners:
            listener(query, result)
        return result

    def run_workload(self, workload: Workload) -> WorkloadRunResult:
        """Execute every query of *workload* in order and aggregate runtimes."""
        run = WorkloadRunResult(workload_name=workload.name)
        for query in workload:
            result = self.execute(query)
            run.record(query, result)
        return run

    # -- reporting --------------------------------------------------------------------------------

    @property
    def memory_bytes(self) -> float:
        return sum(table.memory_bytes for table in self._tables.values())

    def describe(self) -> str:
        """Human-readable description of the current storage layout."""
        return self.catalog.describe()
