"""Materialized views: precomputed aggregation state with incremental refresh.

A :class:`MaterializedView` materializes the result of one aggregation query
(no joins, no placeholders) as **mergeable partial states** — the same
``partition_partial_rows`` / ``merge_partition_partials`` contract the
partition-partial aggregation tier uses — kept per
:class:`~repro.engine.zonemap.ZoneUnit` of the base table
(``table.zone_units()``: the whole table, or the main portion and the hot
partition, which therefore refresh independently — OLTP traffic landing in
hot never forces the historic portion to recompute), each stamped with the
unit's token.

Maintenance is **off the DML path**: writes only bump zone epochs, exactly as
they already do for recorded plan decisions.  A stale view is detected by
comparing the stored unit tokens against the units' current ones, and
:meth:`MaterializedView.refresh` recomputes *only the units whose token
changed*, merging their fresh partials with the unchanged units' cached
states.  The associative merge is only used when it provably reproduces the
reference (no NaN among group keys or MIN/MAX inputs — the same hazard test
as the partition-partial tier); otherwise every refresh recomputes from
scratch, which is always correct.

The ``matview_disabled()`` toggle keeps the recompute-per-query reference
reachable: with views off, the session never serves from a view and every
query charges its :class:`~repro.engine.timing.CostBreakdown` bit-identically
to a database without views (pinned by the differential fuzzer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.deadline import deadline_check
from repro.engine.executor.access import SimpleAccessPath, empty_batch
from repro.engine.executor.agg_pushdown import _partial_merge_safe
from repro.engine.executor.aggregates import (
    GroupedAggregation,
    merge_partition_partials,
    partition_partial_rows,
)
from repro.engine.executor.operators import (
    _assemble_inputs,
    aggregation_scan_columns,
    charge_aggregation,
)
from repro.engine.executor.rewrite import PartitionedAccessPath, access_path_for
from repro.engine.partitioning import MAIN_PARTITION, PartitionedTable
from repro.engine.timing import CostAccountant, CostBreakdown, DeviceModel
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
    "view_serve_bytes",
]

#: Refresh kinds reported by :class:`RefreshResult`.
REFRESH_INITIAL = "initial"
REFRESH_INCREMENTAL = "incremental"
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


def view_serve_bytes(num_rows: int, query: AggregationQuery) -> int:
    """Bytes a view serve reads: the materialized rows at 8 bytes per cell.

    Shared between the session's serve-time charge and the advisor's what-if
    pricing, so the estimate and the accountant agree by construction.
    """
    width = len(query.group_by) + len(query.aggregates)
    return num_rows * width * 8


@dataclass
class RefreshResult:
    """Outcome of one :meth:`MaterializedView.refresh`."""

    view: str
    kind: str
    units_recomputed: Tuple[str, ...] = ()
    units_reused: Tuple[str, ...] = ()
    cost: CostBreakdown = field(default_factory=CostBreakdown)

    @property
    def incremental(self) -> bool:
        return self.kind == REFRESH_INCREMENTAL

    def describe(self) -> str:
        if self.kind == REFRESH_NOOP:
            return "fresh (no refresh needed)"
        return (
            f"{self.kind} refresh: recomputed "
            f"[{', '.join(self.units_recomputed) or '-'}], reused "
            f"[{', '.join(self.units_reused) or '-'}]"
        )


def _unit_tokens(table_object) -> Dict[str, tuple]:
    """``{label: token}`` of every refresh unit of *table_object*, in unit order."""
    return {unit.label: unit.token for unit in table_object.zone_units()}


def _collect_unit(table_object, label, columns, predicate, accountant,
                  encode_columns=()):
    """The filtered batch of one refresh unit, charged on *accountant*."""
    if isinstance(table_object, PartitionedTable):
        path = PartitionedAccessPath(table_object)
        if label == MAIN_PARTITION:
            batch, _ = path._collect_from_main(
                columns, predicate, accountant, encode_columns=encode_columns
            )
            return batch
        hot = table_object.hot
        if hot is None or hot.num_rows == 0:
            return empty_batch(columns)
        return SimpleAccessPath(hot, inner=True).collect_batch(
            columns, predicate, accountant
        )
    return SimpleAccessPath(table_object, inner=True).collect_batch(
        columns, predicate, accountant, encode_columns=encode_columns
    )


class MaterializedView:
    """Materialized state of one aggregation query over one base table."""

    def __init__(self, name: str, query: AggregationQuery) -> None:
        if not isinstance(query, AggregationQuery):
            raise CatalogError(
                f"materialized view {name!r} needs an aggregation query, got "
                f"{type(query).__name__}"
            )
        if query.joins:
            raise CatalogError(
                f"materialized view {name!r}: joined aggregations are not "
                "supported"
            )
        if "v:param:" in fingerprint_tokens(query):
            raise CatalogError(
                f"materialized view {name!r}: the defining query must not "
                "contain placeholders"
            )
        self.name = name
        self.query = query
        self.fingerprint = query_fingerprint(query)
        #: Result rows of the last refresh (served as copies by the session).
        self.result_rows: List[Dict[str, Any]] = []
        self._unit_tokens: Dict[str, tuple] = {}
        self._unit_partials: Dict[str, List[Dict[str, Any]]] = {}
        self._materialized = False

    @property
    def table(self) -> str:
        return self.query.table

    @property
    def num_rows(self) -> int:
        return len(self.result_rows)

    def is_fresh(self, table_object) -> bool:
        """Whether the materialized state reflects *table_object*'s epochs."""
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

    # -- refresh ---------------------------------------------------------------------

    def refresh(self, table_object, device: Optional[DeviceModel] = None) -> RefreshResult:
        """Bring the view up to date with *table_object*; returns what it did.

        Incremental when the associative merge is provably safe: only units
        whose zone-epoch token changed since the last refresh recompute their
        partial states, and the per-unit states merge through the
        partition-partial contract.  Otherwise (NaN hazards, unorderable
        merges) the whole result recomputes from scratch.  Either way the
        returned :class:`~repro.engine.timing.CostBreakdown` charges the
        collects and aggregate updates the refresh actually performed.
        """
        accountant = CostAccountant(device)
        tokens = _unit_tokens(table_object)
        if self._materialized and tokens == self._unit_tokens:
            return RefreshResult(view=self.name, kind=REFRESH_NOOP,
                                 cost=accountant.breakdown)
        # Crash discipline: the view's served state is the atomically
        # installed (result_rows, _unit_tokens, _materialized) triple at the
        # bottom.  A crash at any declared point below leaves the old triple
        # in place — _unit_partials may hold fresher per-unit states, but
        # they are only ever consumed when _unit_tokens vouches for them, so
        # the next refresh recomputes exactly the stale units.
        fault_point("matview.refresh.before")

        query = self.query
        base_columns, encode_columns = aggregation_scan_columns(
            query, table_object.schema
        )
        group_names = list(query.group_by)
        initial = not self._materialized
        path = access_path_for(table_object)
        safe, _hazard = _partial_merge_safe(path, query)

        rows: Optional[List[Dict[str, Any]]] = None
        recomputed, reused = [], []
        if safe:
            partials_in_order: List[List[Dict[str, Any]]] = []
            new_partials: Dict[str, List[Dict[str, Any]]] = {}
            for label, token in tokens.items():
                deadline_check()
                cached = self._unit_partials.get(label)
                if cached is not None and self._unit_tokens.get(label) == token:
                    partials_in_order.append(cached)
                    new_partials[label] = cached
                    reused.append(label)
                    continue
                batch = _collect_unit(
                    table_object, label, base_columns, query.predicate,
                    accountant, encode_columns,
                )
                charge_aggregation(query, batch.num_rows, accountant)
                if batch.num_rows == 0:
                    partial: List[Dict[str, Any]] = []
                else:
                    inputs, keys = _assemble_inputs(query, batch.raw_columns())
                    partial = partition_partial_rows(
                        query.aggregates, group_names, inputs, keys,
                        batch.num_rows,
                    )
                new_partials[label] = partial
                partials_in_order.append(partial)
                recomputed.append(label)
                fault_point("matview.refresh.after_unit")
            try:
                rows = merge_partition_partials(
                    query.aggregates, group_names, partials_in_order
                )
                self._unit_partials = new_partials
            except TypeError:
                # Unorderable partial merge (exotic mixed types across
                # units): drop the per-unit bills and recompute from scratch.
                accountant = CostAccountant(device)
        if rows is None:
            # NaN hazards or an unorderable merge: always-correct recompute.
            rows = self._recompute_full(
                path, query, base_columns, encode_columns, group_names, accountant
            )
            self._unit_partials = {}
            recomputed, reused = list(tokens), []

        fault_point("matview.refresh.before_install")
        self.result_rows = rows
        self._unit_tokens = tokens
        self._materialized = True
        if initial:
            kind = REFRESH_INITIAL
        elif reused:
            kind = REFRESH_INCREMENTAL
        else:
            kind = REFRESH_FULL
        return RefreshResult(
            view=self.name, kind=kind, units_recomputed=tuple(recomputed),
            units_reused=tuple(reused), cost=accountant.breakdown,
        )

    @staticmethod
    def _recompute_full(path, query, base_columns, encode_columns, group_names,
                        accountant) -> List[Dict[str, Any]]:
        """Reference recompute: collect everything, reduce once."""
        batch = path.collect_batch(
            base_columns, query.predicate, accountant,
            encode_columns=encode_columns,
        )
        charge_aggregation(query, batch.num_rows, accountant)
        inputs, keys = _assemble_inputs(query, batch.raw_columns())
        aggregation = GroupedAggregation(
            aggregates=query.aggregates, group_by_names=group_names
        )
        return aggregation.run(inputs, keys, batch.num_rows)
