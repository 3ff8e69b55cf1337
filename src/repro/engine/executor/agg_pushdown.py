"""Aggregate pushdown: execute aggregation as deep in the storage stack as
each query allows.

The executor supports four *tiers*, chosen at plan time from the query shape
and the :class:`~repro.engine.zonemap.ZoneUnit` objects of the table
(``table.zone_units()``), recorded as an :class:`AggregateStrategy` in the
physical plan, and consumed by execution while fresh (the one freshness rule
of :mod:`repro.engine.executor.access` re-derives it after DML, a different
bound query, or a toggle flip):

``zero-scan``
    Ungrouped ``COUNT(*)``/``COUNT(col)``/``MIN``/``MAX`` whose predicate is
    absent — or provably all-true / all-false per unit
    (:meth:`~repro.engine.zonemap.ZoneUnit.must_match` /
    :meth:`~repro.engine.zonemap.ZoneUnit.can_match`) — are answered from the
    units' zone synopses and row/null counts.  The answer is computed
    at derivation time and embedded in the strategy; execution decodes
    nothing and reduces nothing.

``partition-partial``
    Aggregations over a partitioned table compute one mergeable partial
    state per partition and combine them associatively — zone-pruned
    partitions contribute nothing, and the partitions' batches are never
    concatenated (so a hot row-store partition no longer forces the main
    portion's dictionary codes to decode).  NaN keys and inputs merge like
    any other value (the one float order of :mod:`repro.query.ranges`).

``code-domain``
    Unpartitioned column-store aggregations run on dictionary codes: the
    group keys' codes *are* the group ids — for several keys their
    mixed-radix combination while that space stays within ``max(4096,
    rows)`` — so rows are never renumbered: one shared ``bincount`` counts
    them, every other aggregate reads each row once, and only the K groups
    that occur are ordered (by first occurrence) and decoded, one key per
    *group*.  ``SUM``/``AVG`` over encoded numeric columns reduce as
    ``bincount(codes) · decoded(dict)`` — O(|dictionary|) decodes instead of
    O(rows).  (The same kernels also run inside each partition of the
    ``partition-partial`` tier and inside every shard worker.)

``operator``
    The generic reference path: joins, row-store bases, undecidable
    predicates, and everything under ``aggregate_pushdown_disabled()``.

Pushdown is a **wall-clock** optimisation only: every tier charges the
:class:`~repro.engine.timing.CostAccountant` bit-identically to the
reference path (the zero-scan tier still *charges* the scan it skips), and
``aggregate_pushdown_disabled()`` keeps the decode-then-reduce pipeline
reachable as the differential baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any, List, Optional, Tuple

from repro.engine.toggle import Toggle
from repro.engine.types import Store
from repro.engine.zonemap import ZoneUnit
from repro.query.ast import AggregateFunction, AggregationQuery, split_qualified
from repro.query.ranges import NAN, greatest, least

__all__ = [
    "AggregateStrategy",
    "TIER_CODE_DOMAIN",
    "TIER_OPERATOR",
    "TIER_PARTITION_PARTIAL",
    "TIER_ZERO_SCAN",
    "aggregate_pushdown_disabled",
    "aggregate_pushdown_enabled",
    "derive_aggregate_strategy",
]

TIER_ZERO_SCAN = "zero-scan"
TIER_PARTITION_PARTIAL = "partition-partial"
TIER_CODE_DOMAIN = "code-domain"
TIER_OPERATOR = "operator"

_PUSHDOWN = Toggle()


def aggregate_pushdown_enabled() -> bool:
    """Whether aggregation may execute below the generic operator."""
    return _PUSHDOWN.enabled


def aggregate_pushdown_disabled():
    """Force the decode-then-reduce reference pipeline everywhere.

    The differential fuzzer runs every aggregation under this toggle too and
    pins results *and* :class:`~repro.engine.timing.CostBreakdown` charges
    identical to the pushdown path.  Flipping it moves the settings epoch,
    so session-cached plans re-derive their recorded strategies and the
    reference stays reachable through them.
    """
    return _PUSHDOWN.disabled()


#: Zero-scan verdicts per prunable unit.
_VERDICT_ALL = "all"      # predicate provably matches every row
_VERDICT_NONE = "none"    # predicate provably matches no row
_VERDICT_EMPTY = "empty"  # partition holds no rows

#: Functions an aggregation query may use (all of them merge associatively).
_ZERO_SCAN_FUNCTIONS = frozenset(
    {AggregateFunction.COUNT, AggregateFunction.MIN, AggregateFunction.MAX}
)


@dataclass(frozen=True)
class AggregateStrategy:
    """The pushdown decision of one table's aggregation, recorded in plans."""

    table: str
    tier: str
    reason: str
    query: Optional[AggregationQuery] = None
    #: Zero-scan only: per-unit ``(label, verdict)`` pairs.
    partitions: Tuple[Tuple[str, str], ...] = ()
    #: Zero-scan only: the precomputed ``(output_name, value)`` result row.
    answer: Optional[Tuple[Tuple[str, Any], ...]] = None

    def describe(self) -> str:
        if self.reason:
            return f"{self.tier} ({self.reason})"
        return self.tier


def _base_column(query: AggregationQuery, name: str) -> Optional[str]:
    """The unqualified base-table column of *name*, or ``None`` if foreign."""
    owner, column = split_qualified(name)
    if owner in (None, query.table):
        return column
    return None


def derive_aggregate_strategy(path, query: AggregationQuery) -> AggregateStrategy:
    """Derive the pushdown strategy of *query* over *path* from the zones."""

    def strategy(tier: str, reason: str) -> AggregateStrategy:
        return AggregateStrategy(table=query.table, tier=tier, reason=reason,
                                 query=query)

    if not aggregate_pushdown_enabled():
        return strategy(TIER_OPERATOR, "pushdown disabled")
    if query.joins:
        return strategy(TIER_OPERATOR, "join")

    units = path.table.zone_units()
    if not query.group_by:
        zero_scan = _try_zero_scan(units, query)
        if zero_scan is not None:
            return zero_scan

    if path.supports_partition_partial:
        return strategy(
            TIER_PARTITION_PARTIAL, f"{len(units)} partition(s) merge partial states",
        )

    if path.primary_store is Store.COLUMN:
        return strategy(TIER_CODE_DOMAIN, "dictionary codes as group ids")
    return strategy(TIER_OPERATOR, "row-store scan")


def _try_zero_scan(
    units: List[ZoneUnit], query: AggregationQuery
) -> Optional[AggregateStrategy]:
    """A zero-scan strategy with its precomputed answer, or ``None``."""
    columns: List[Optional[str]] = []
    for spec in query.aggregates:
        if spec.function is AggregateFunction.COUNT and spec.column == "*":
            columns.append(None)
            continue
        if spec.function not in _ZERO_SCAN_FUNCTIONS:
            return None
        column = _base_column(query, spec.column)
        if column is None:
            return None
        columns.append(column)

    predicate = query.predicate
    verdicts: List[Tuple[str, str]] = []
    contributing: List[ZoneUnit] = []
    for unit in units:
        if unit.num_rows == 0:
            verdicts.append((unit.label, _VERDICT_EMPTY))
            continue
        if not unit.can_match(predicate):
            verdict = _VERDICT_NONE
        elif unit.must_match(predicate):
            verdict = _VERDICT_ALL
        else:
            return None  # undecidable from the synopses: must scan
        verdicts.append((unit.label, verdict))
        if verdict == _VERDICT_ALL:
            contributing.append(unit)

    total_rows = sum(unit.num_rows for unit in contributing)
    answer: List[Tuple[str, Any]] = []
    try:
        for spec, column in zip(query.aggregates, columns):
            if column is None:
                answer.append((spec.output_name, total_rows))
                continue
            zones = []
            for unit in contributing:
                zone = unit.zone(column)
                if zone is None or zone.null_count is None:
                    return None
                zones.append(zone)
            if spec.function is AggregateFunction.COUNT:
                value: Any = sum(
                    unit.num_rows - zone.null_count
                    for unit, zone in zip(contributing, zones)
                )
            else:
                is_min = spec.function is AggregateFunction.MIN
                bounds = [
                    zone.min_value if is_min else zone.max_value
                    for zone in zones
                    if zone.has_values
                ]
                bounds += [NAN for zone in zones if zone.has_nan]
                value = reduce(least if is_min else greatest, bounds) if bounds else None
            answer.append((spec.output_name, value))
    except TypeError:
        return None  # unorderable bounds across partitions

    skipped = sum(1 for _, verdict in verdicts if verdict == _VERDICT_NONE)
    reason = f"answered from {len(verdicts)} partition synopsis(es)"
    if skipped:
        reason += f", {skipped} provably empty"
    return AggregateStrategy(
        table=query.table, tier=TIER_ZERO_SCAN, reason=reason, query=query,
        partitions=tuple(verdicts), answer=tuple(answer),
    )

