"""Materialized views: the cached result of one aggregation query.

A :class:`MaterializedView` is ``(query, result_rows, unit tokens)``: the rows
one aggregation query (no joins, no placeholders) returned, stamped with the
token of every :class:`~repro.engine.zonemap.ZoneUnit` of the base table
(``table.zone_units()``) as of that execution.

Maintenance is **off the DML path**: writes only bump zone epochs, exactly as
they already do for recorded plan decisions.  A stale view is detected by
comparing the stored unit tokens against the units' current ones, and
:meth:`MaterializedView.refresh` brings it up to date by *executing the
query* — through the engine's one executor, handed in by the caller
(``HybridDatabase.materialize``) — and installing the new rows and tokens
atomically.  A view calls the executor; it never is one.  Serving a stale
view therefore bills the query's own bill plus the ``view_scan`` of reading
the result back; stale rows are never served.

The ``matview_disabled()`` toggle keeps the recompute-per-query reference
reachable: with views off, the session never serves from a view and every
query charges its :class:`~repro.engine.timing.CostBreakdown` bit-identically
to a database without views (pinned by the differential fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.engine.executor.executor import QueryResult
from repro.engine.timing import CostBreakdown, DeviceModel
from repro.engine.toggle import Toggle
from repro.errors import CatalogError
from repro.testing.faults import fault_point
from repro.query.ast import AggregationQuery
from repro.query.fingerprint import fingerprint_tokens, query_fingerprint

__all__ = [
    "MaterializedView",
    "RefreshResult",
    "matview_disabled",
    "matview_enabled",
    "view_rejection",
    "view_serve_cost",
]

#: Refresh kinds reported by :class:`RefreshResult`.
REFRESH_INITIAL = "initial"
REFRESH_FULL = "full"
REFRESH_NOOP = "noop"

_MATVIEW = Toggle()


def matview_enabled() -> bool:
    """Whether the session may answer matching queries from materialized views."""
    return _MATVIEW.enabled


def matview_disabled():
    """Force every aggregation to execute against the base table.

    The differential fuzzer runs recurring aggregates under this toggle too
    and pins results *and* :class:`~repro.engine.timing.CostBreakdown`
    charges identical to a database without views — views are a wall-clock
    optimisation of the read path, never a semantic change.
    """
    return _MATVIEW.disabled()


def view_serve_cost(device: DeviceModel, num_rows: int, query: AggregationQuery,
                    executed: Optional[CostBreakdown] = None) -> CostBreakdown:
    """The bill of answering *query* from *num_rows* materialized rows.

    A fresh serve reads the view and nothing else: ``query_overhead`` +
    ``view_scan`` (the rows at 8 bytes per cell).  A stale serve executed the
    query first; *executed* is that execution's bill (its ``query_overhead``
    included) and only the ``view_scan`` goes on top.  Shared between the
    serve and the advisor's what-if pricing, so the estimate and the bill
    agree by construction.
    """
    cost = executed
    if cost is None:
        cost = CostBreakdown()
        cost.add("query_overhead", device.query_overhead())
    width = len(query.group_by) + len(query.aggregates)
    cost.add("view_scan", device.sequential_read(num_rows * width * 8))
    return cost


@dataclass
class RefreshResult:
    """Outcome of one :meth:`MaterializedView.refresh`."""

    view: str
    kind: str
    #: The execution of the view's query that produced the installed rows
    #: (``None`` for a no-op refresh: nothing ran).
    execution: Optional[QueryResult] = None

    @property
    def cost(self) -> CostBreakdown:
        executed = self.execution
        return CostBreakdown() if executed is None else executed.cost


def view_rejection(query) -> Optional[str]:
    """Why *query* cannot define a view (``None`` if it can) — the one rule.

    A view caches one join-free aggregation without placeholders; views
    are created, recommended and counted as recurring by this test alone.
    The reason is the tail of the error :class:`MaterializedView` raises.
    """
    if not isinstance(query, AggregationQuery):
        return f" needs an aggregation query, got {type(query).__name__}"
    if query.joins:
        return ": joined aggregations are not supported"
    if "v:param:" in fingerprint_tokens(query):
        return ": the defining query must not contain placeholders"
    return None


def _unit_tokens(table_object) -> Dict[str, tuple]:
    """``{label: token}`` of every zone unit of *table_object*."""
    return {unit.label: unit.token for unit in table_object.zone_units()}


class MaterializedView:
    """The cached result of one aggregation query over one base table."""

    def __init__(self, name: str, query: AggregationQuery) -> None:
        rejection = view_rejection(query)
        if rejection is not None:
            raise CatalogError(f"materialized view {name!r}{rejection}")
        self.name = name
        self.query = query
        self.fingerprint = query_fingerprint(query)
        #: Result rows of the last refresh (served as copies).
        self.result_rows: List[Dict[str, Any]] = []
        self._unit_tokens: Dict[str, tuple] = {}
        self._materialized = False

    @property
    def table(self) -> str:
        return self.query.table

    @property
    def num_rows(self) -> int:
        return len(self.result_rows)

    def is_fresh(self, table_object) -> bool:
        """Whether the materialized rows reflect *table_object*'s epochs."""
        return self._materialized and _unit_tokens(table_object) == self._unit_tokens

    def describe(self) -> str:
        group = f" group by {', '.join(self.query.group_by)}" if self.query.group_by else ""
        specs = ", ".join(
            f"{spec.function.value}({spec.column})" for spec in self.query.aggregates
        )
        return (
            f"{self.name}: {specs} over {self.table}{group} "
            f"({self.num_rows} row(s), view {self.fingerprint})"
        )

    def refresh(self, table_object,
                execute: Callable[[AggregationQuery], QueryResult]) -> RefreshResult:
        """Bring the view up to date with *table_object*; returns what it did.

        A no-op while every unit token still matches.  Otherwise *execute*
        runs ``self.query`` (the caller decides through which access paths)
        and its rows are installed with the tokens captured before it ran.
        The served state is the ``(result_rows, _unit_tokens, _materialized)``
        triple assigned in one statement at the bottom: a crash, timeout or
        error anywhere above leaves the old triple in place, so the next
        serve refreshes again.
        """
        tokens = _unit_tokens(table_object)
        if self._materialized and tokens == self._unit_tokens:
            return RefreshResult(view=self.name, kind=REFRESH_NOOP)
        fault_point("matview.refresh.before")
        execution = execute(self.query)
        fault_point("matview.refresh.before_install")
        kind = REFRESH_FULL if self._materialized else REFRESH_INITIAL
        self.result_rows, self._unit_tokens, self._materialized = (
            execution.rows, tokens, True
        )
        return RefreshResult(view=self.name, kind=kind, execution=execution)

    def serve(self, device: DeviceModel, refresh: RefreshResult) -> QueryResult:
        """The result of answering ``self.query`` from the materialized rows.

        After a refresh the result *is* that execution's — its bill and its
        telemetry (tier, pruning, shards, integrity) — with the ``view_scan``
        on top; a fresh serve carries the serve bill alone.
        """
        result = refresh.execution
        if result is None:
            result, served = QueryResult(), "served"
            result.cost = view_serve_cost(device, self.num_rows, self.query)
        else:
            served = f"served after {refresh.kind} refresh"
            result.cost = view_serve_cost(device, self.num_rows, self.query, result.cost)
        result.rows = [dict(row) for row in self.result_rows]
        result.view_hits = {self.name: served}
        return result
