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

NULL/NaN semantics mirror the scalar predicate evaluator exactly:

* comparisons and ``BETWEEN`` never match NULL — an all-NULL zone cannot
  match them;
* ``BETWEEN`` is evaluated by *exclusion* (``value < low`` / ``> high``),
  which NaN never fails — a zone containing NaN can always match a BETWEEN;
* ``!=`` matches NaN rows (``nan != literal`` is true);
* ``IS NULL`` matches iff the zone has at least one NULL.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Tuple

from repro.engine.toggle import Toggle
from repro.query.ast import split_qualified
from repro.query.predicates import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
)

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


def is_nan(value: Any) -> bool:
    """Whether *value* is a float NaN (the engine's one NaN test)."""
    return isinstance(value, float) and value != value


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
    def all_null(self) -> bool:
        """Provably every cell is NULL (comparisons cannot match)."""
        return (
            self.null_count is not None
            and self.num_rows > 0
            and self.null_count >= self.num_rows
        )

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
    if isinstance(predicate, TruePredicate):
        return True
    if isinstance(predicate, And):
        return all(_can_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Or):
        return any(_can_match(child, zones) for child in predicate.predicates)
    if isinstance(predicate, Not):
        # NOT flips row-level truth, not zone-level possibility; proving
        # "every row matches the inner predicate" needs more than min/max.
        return True
    if isinstance(predicate, (Comparison, Between, InList, IsNull)):
        zone = zones.get(predicate.column)
        if zone is None:
            return True
        if isinstance(predicate, IsNull):
            return zone.null_count is None or zone.null_count > 0
        if zone.all_null:
            # Comparisons, BETWEEN and IN never match NULL (unless the
            # IN-list carries an explicit NULL, checked below).
            if isinstance(predicate, InList):
                return any(value is None for value in predicate.values)
            return False
        if isinstance(predicate, Comparison):
            return _comparison_can_match(predicate, zone)
        if isinstance(predicate, Between):
            return _between_can_match(predicate, zone)
        return _in_list_can_match(predicate, zone)
    return True


def _comparison_can_match(predicate: Comparison, zone: ColumnZone) -> bool:
    value = predicate.value
    if value is None:
        # ``column <op> NULL`` never matches, whatever the operator.
        return False
    op = predicate.op
    if op is CompareOp.NE:
        if zone.has_nan:
            return True  # nan != literal is true row-at-a-time
        if not zone.has_values:
            return False
        # Only provably empty when every real value equals the literal.
        return not (zone.min_value == zone.max_value == value)
    if is_nan(value):
        # Ordered comparison or equality against a NaN literal never matches.
        return False
    if not zone.has_values:
        # Only NaN (and/or NULL) cells: EQ/ordered comparisons never match NaN.
        return False
    if op is CompareOp.EQ:
        return not (value < zone.min_value or value > zone.max_value)
    if op is CompareOp.LT:
        return zone.min_value < value
    if op is CompareOp.LE:
        return zone.min_value <= value
    if op is CompareOp.GT:
        return zone.max_value > value
    return zone.max_value >= value


def _between_can_match(predicate: Between, zone: ColumnZone) -> bool:
    if zone.has_nan:
        # The scalar evaluator tests BETWEEN by exclusion, which NaN never
        # fails — a NaN cell matches any BETWEEN.
        return True
    if not zone.has_values:
        return False
    if predicate.low is not None:
        if predicate.include_low:
            if zone.max_value < predicate.low:
                return False
        elif zone.max_value <= predicate.low:
            return False
    if predicate.high is not None:
        if predicate.include_high:
            if zone.min_value > predicate.high:
                return False
        elif zone.min_value >= predicate.high:
            return False
    return True


def _in_list_can_match(predicate: InList, zone: ColumnZone) -> bool:
    for value in predicate.values:
        if value is None:
            if zone.null_count is None or zone.null_count > 0:
                return True
        elif is_nan(value):
            continue  # IN is chained equality; a NaN member matches nothing
        elif zone.has_values and not (
            value < zone.min_value or value > zone.max_value
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
    optimisation.  NULL and NaN semantics mirror the scalar evaluator: a
    comparison never matches a NULL row (so a provably-all-true comparison
    needs a zero null count), ordered comparisons and equality never match
    NaN, while ``BETWEEN`` (tested by exclusion) and ``!=`` are satisfied by
    NaN rows.

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
    if isinstance(predicate, TruePredicate):
        return True
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
    if not isinstance(predicate, (Comparison, Between, InList, IsNull)):
        return False
    zone = zones.get(predicate.column)
    if zone is None or zone.null_count is None:
        return False
    if isinstance(predicate, IsNull):
        return zone.null_count >= zone.num_rows
    if zone.null_count > 0:
        # Comparisons, BETWEEN and IN never match a NULL row.
        return False
    if isinstance(predicate, Comparison):
        return _comparison_must_match(predicate, zone)
    if isinstance(predicate, Between):
        return _between_must_match(predicate, zone)
    return _in_list_must_match(predicate, zone)


def _comparison_must_match(predicate: Comparison, zone: ColumnZone) -> bool:
    value = predicate.value
    if value is None:
        return False  # ``column <op> NULL`` matches nothing.
    op = predicate.op
    if op is CompareOp.NE:
        if is_nan(value):
            # ``x != NaN`` is true for every non-NaN cell; NaN cells also
            # satisfy it (NaN != NaN).
            return True
        if not zone.has_values:
            # Only NaN cells (nulls were excluded above): NaN != literal.
            return zone.num_rows > 0
        return bool(value < zone.min_value or value > zone.max_value)
    if is_nan(value):
        return False  # ordered/equality against NaN matches nothing
    if zone.has_nan or not zone.has_values:
        # NaN cells fail every ordered comparison and equality.
        return False
    if op is CompareOp.EQ:
        return bool(zone.min_value == zone.max_value == value)
    if op is CompareOp.LT:
        return bool(zone.max_value < value)
    if op is CompareOp.LE:
        return bool(zone.max_value <= value)
    if op is CompareOp.GT:
        return bool(zone.min_value > value)
    return bool(zone.min_value >= value)


def _between_must_match(predicate: Between, zone: ColumnZone) -> bool:
    # The scalar evaluator tests BETWEEN by exclusion (reject when
    # ``value < low`` / ``value > high``), which NaN never fails — NaN cells
    # always satisfy a BETWEEN, so only the real values need the range proof.
    if not zone.has_values:
        return zone.num_rows > 0  # all cells NaN (nulls excluded above)
    if predicate.low is not None:
        if predicate.include_low:
            if not zone.min_value >= predicate.low:
                return False
        elif not zone.min_value > predicate.low:
            return False
    if predicate.high is not None:
        if predicate.include_high:
            if not zone.max_value <= predicate.high:
                return False
        elif not zone.max_value < predicate.high:
            return False
    return True


def _in_list_must_match(predicate: InList, zone: ColumnZone) -> bool:
    # Provable only in the degenerate single-value case: every cell holds the
    # same value and the list contains it (NaN cells never match an IN).
    if zone.has_nan or not zone.has_values:
        return False
    if not zone.min_value == zone.max_value:
        return False
    return any(
        value is not None and not is_nan(value) and value == zone.min_value
        for value in predicate.values
    )


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
