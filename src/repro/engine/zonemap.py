"""Zone maps: per-partition, per-column min/max + null-count synopses.

A :class:`ColumnZone` summarises one column of one physical partition (a
stored table): the range of its real values, how many cells are NULL, and
whether NaN is present.  :func:`zone_can_match` answers the only question a
scan needs: *can this predicate possibly match a row of this partition?*  A
``False`` answer is a proof — the partition is skipped before a single code
is touched; every uncertainty (missing zone, incomparable literal types,
``NOT`` sub-trees, parameter placeholders) degrades to ``True`` and the scan
proceeds exactly as without zone maps.

Zones are owned by the storage backends and are maintained under DML: the
column store derives bounds from its (incrementally maintained) sorted
dictionary plus an exact null count over the codes; the row store computes
them from its cached column views.  Both cache the synopsis per *zone
epoch* — a counter every mutator bumps — so a stale synopsis is rebuilt
lazily on the next consult (e.g. after deletes shrank a partition's range).

A :class:`ZoneUnit` is the one definition of *a prunable unit of a table's
storage*: a label (``main`` / ``hot`` / the table's name), a row count, the
zone-epoch token of the physical parts behind it and a ``zone(column)``
lookup, with :meth:`~ZoneUnit.can_match` / :meth:`~ZoneUnit.must_match` as
the two questions anyone asks of it.  Tables hand their units out through
``zone_units()``; scan pruning, aggregate pushdown, materialized-view
refresh, the catalog's per-partition statistics and the cost estimator all
read those — none of them spells the unit for itself.  The access paths
record the scan verdicts in a :class:`ScanDecision` (which the planner embeds
in the physical plan) and keep it only while it is fresh — see
:mod:`repro.engine.executor.access` for the one freshness rule.

What a leaf predicate matches — NULL, NaN and bounds included — is
:func:`repro.query.ranges.ranges_of`'s answer; a zone test is an interval
operation over it (ranges ∩ [min, max], and the ranges' NULL / NaN flags
against ``null_count`` / ``has_nan``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.engine.toggle import Toggle
from repro.query.ast import split_qualified
from repro.query.predicates import And, Not, Or, Predicate, TruePredicate
from repro.query.ranges import is_nan, ranges_of

__all__ = [
    "ColumnZone",
    "PartitionScan",
    "ScanDecision",
    "ZoneUnit",
    "is_nan",
    "zone_can_match",
    "zone_must_match",
    "zone_pruning_enabled",
    "zone_pruning_disabled",
]


_PRUNING = Toggle()

#: Zone epochs are drawn from one process-wide counter so that epochs are
#: unique across *backend instances*: a store conversion swaps a table's
#: backend, and a per-instance counter restarting at the same small numbers
#: could make a stale recorded decision's zone token appear fresh.
_EPOCH_COUNTER = itertools.count(1)


def next_zone_epoch() -> int:
    """A fresh, process-unique zone epoch."""
    return next(_EPOCH_COUNTER)


def zone_pruning_enabled() -> bool:
    """Whether scans may skip partitions based on zone maps."""
    return _PRUNING.enabled


def zone_pruning_disabled():
    """Disable zone-map pruning (differential tests, decode-path baselines)."""
    return _PRUNING.disabled()


@dataclass(frozen=True)
class ColumnZone:
    """Synopsis of one column of one partition.

    ``min_value``/``max_value`` bound the real (non-NULL, non-NaN) values;
    both are ``None`` when the column holds no real value.  The bounds may be
    a superset of the live range (the column store's dictionary can retain
    entries updates orphaned) — pruning stays safe, it only loses
    opportunities.  ``null_count`` is ``None`` when unknown (zones derived
    from catalog statistics), which conservatively disables the NULL-based
    proofs.
    """

    min_value: Any
    max_value: Any
    null_count: Optional[int]
    num_rows: int
    has_nan: bool = False

    @property
    def has_values(self) -> bool:
        """Whether the zone contains at least one real (orderable) value."""
        return self.min_value is not None


def widen_zone(
    zone: ColumnZone, values, extra_rows: int
) -> Optional[ColumnZone]:
    """*zone* widened to additionally cover *values* (an appended batch).

    The storage backends use this to maintain a fresh synopsis through
    inserts without re-scanning the column.  Returns ``None`` when the
    values defeat the fold (unknown null count, unorderable mix) — the
    caller drops the cache entry and the next consult recomputes.
    """
    if zone.null_count is None:
        return None
    low = zone.min_value
    high = zone.max_value
    null_count = zone.null_count
    has_nan = zone.has_nan
    try:
        for value in values:
            if value is None:
                null_count += 1
            elif is_nan(value):
                has_nan = True
            elif low is None:
                low = high = value
            else:
                if value < low:
                    low = value
                if value > high:
                    high = value
    except TypeError:
        return None
    return ColumnZone(low, high, null_count, zone.num_rows + extra_rows, has_nan)


def zone_can_match(
    predicate: Optional[Predicate],
    zones: Mapping[str, ColumnZone],
    num_rows: int,
) -> bool:
    """Whether *predicate* can possibly match a row summarised by *zones*.

    *zones* is asked ``zones.get(column_name)`` per predicate leaf: a mapping,
    or a :class:`ZoneUnit`.  ``False`` only when provably no row matches.
    Columns missing from *zones*, unsupported predicate shapes and type
    errors from comparing a literal against the zone bounds all answer
    ``True`` (scan).  Empty partitions answer ``True`` as well: scanning them
    is free, and treating them like the seed pipeline keeps cost accounting
    unchanged.
    """
    if num_rows == 0 or predicate is None:
        return True
    try:
        return _can_match(predicate, zones)
    except TypeError:
        return True


def _can_match(predicate: Predicate, zones: Mapping[str, ColumnZone]) -> bool:
    if isinstance(predicate, And):
        return all(_can_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Or):
        return any(_can_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Not):
        # NOT flips row-level truth, not zone-level possibility; proving
        # "every row matches the inner predicate" needs more than min/max.
        return True
    ranges = ranges_of(predicate)
    if ranges is None:
        return True
    zone = zones.get(predicate.column)
    if zone is None:
        return True
    if ranges.null and (zone.null_count is None or zone.null_count > 0):
        return True
    if ranges.nan and zone.has_nan:
        return True
    low, high = zone.min_value, zone.max_value
    if low is None:
        return False
    for start, stop, start_closed, stop_closed in ranges.intervals:
        if (start is None or (start <= high if start_closed else start < high)) and (
            stop is None or (stop >= low if stop_closed else stop > low)
        ):
            return True
    return False


def zone_must_match(
    predicate: Optional[Predicate],
    zones: Mapping[str, ColumnZone],
    num_rows: int,
) -> bool:
    """Whether *predicate* provably matches **every** row summarised by *zones*.

    The dual of :func:`zone_can_match`, used by aggregate pushdown: when a
    partition's zones prove the predicate all-true, an ungrouped
    COUNT/MIN/MAX can be answered from the synopses without scanning.  Every
    uncertainty — missing zone, unknown null count, incomparable literal
    types — degrades to ``False`` (not provable), which merely loses the
    optimisation.

    Empty partitions answer ``True``: the proof is vacuous and the partition
    contributes nothing either way.
    """
    if num_rows == 0 or predicate is None:
        return True
    try:
        return _must_match(predicate, zones)
    except TypeError:
        return False


def _must_match(predicate: Predicate, zones: Mapping[str, ColumnZone]) -> bool:
    if isinstance(predicate, And):
        return all(_must_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Or):
        # Sufficient (not necessary): one disjunct covering every row covers
        # the OR.  Mixed coverage across disjuncts stays unproven.
        return any(_must_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Not):
        # NOT p matches every row exactly when p matches none — which is the
        # proof zone_can_match already provides.
        return not _can_match(predicate.predicate, zones)
    ranges = ranges_of(predicate)
    if ranges is None:
        return isinstance(predicate, TruePredicate)
    zone = zones.get(predicate.column)
    if zone is None or zone.null_count is None:
        return False
    if zone.null_count >= zone.num_rows:
        return ranges.null
    if (zone.null_count and not ranges.null) or (zone.has_nan and not ranges.nan):
        return False
    low, high = zone.min_value, zone.max_value
    if low is None:
        return True  # every non-NULL cell is NaN, and NaN matches
    for start, stop, start_closed, stop_closed in ranges.intervals:
        if (start is None or (start <= low if start_closed else start < low)) and (
            stop is None or (stop >= high if stop_closed else stop > high)
        ):
            return True
    return False


# -- the prunable unit ----------------------------------------------------------------


class ZoneUnit:
    """One prunable unit of a table's storage.

    ``label`` names it (``main`` / ``hot`` for a partitioned table, the
    table's name otherwise), ``token`` holds the zone epochs of the physical
    parts behind it (any mutation of the unit changes it), and
    ``zone(column)`` returns the unit's :class:`ColumnZone` for a base-table
    column — ``None`` when the unit has no synopsis for it.  Units are
    built to *derive* a verdict; checking a recorded one needs only the
    table's ``zone_token``.
    """

    __slots__ = ("label", "num_rows", "token", "zone")

    def __init__(self, label: str, num_rows: int, token: Tuple[int, ...],
                 zone: Callable[[str], Optional[ColumnZone]]) -> None:
        self.label = label
        self.num_rows = num_rows
        self.token = token
        self.zone = zone

    def get(self, name: str) -> Optional[ColumnZone]:
        """The zone of the column a predicate calls *name*.

        This is the lookup :func:`zone_can_match` / :func:`zone_must_match`
        perform on their ``zones`` argument, so a unit stands in for the
        mapping; a ``table.column`` reference is looked up by its bare column.
        """
        return self.zone(split_qualified(name)[1])

    def can_match(self, predicate: Optional[Predicate]) -> bool:
        """:func:`zone_can_match` of *predicate* over this unit."""
        return zone_can_match(predicate, self, self.num_rows)

    def must_match(self, predicate: Optional[Predicate]) -> bool:
        """:func:`zone_must_match` of *predicate* over this unit."""
        return zone_must_match(predicate, self, self.num_rows)


# -- scan decisions (recorded in plans, validated at execution) ---------------------


@dataclass(frozen=True)
class PartitionScan:
    """Verdict for one :class:`ZoneUnit` of a table's storage."""

    partition: str  # the unit's label: "main", "hot", or the table's name
    scan: bool
    reason: str = ""


@dataclass(frozen=True)
class ScanDecision:
    """The pruning decision of one table's access path for one predicate."""

    table: str
    predicate: Optional[Predicate]
    partitions: Tuple[PartitionScan, ...]

    @property
    def scanned(self) -> int:
        return sum(1 for partition in self.partitions if partition.scan)

    @property
    def skipped(self) -> int:
        return sum(1 for partition in self.partitions if not partition.scan)

    def scan_of(self, partition: str) -> bool:
        for entry in self.partitions:
            if entry.partition == partition:
                return entry.scan
        return True

    def describe(self) -> str:
        text = f"{self.scanned} scanned, {self.skipped} skipped"
        skipped = [entry.partition for entry in self.partitions if not entry.scan]
        if skipped:
            text += f" ({', '.join(skipped)})"
        return text
