"""Access paths: the store-aware data-access layer of the executor.

An *access path* hides from the operators whether a table lives in the row
store, the column store, or is split across partitions.  The store-specific
behaviour that the paper's cost model captures lives here:

* the row store answers multi-column reads with a single full-width tuple
  scan,
* the column store answers them with one compressed scan per column and pays
  tuple reconstruction when materialising rows,
* partitioned tables additionally pay union/join assembly costs (see
  :mod:`repro.engine.executor.rewrite`).

Access paths are also where the plan's decisions live.  A path records, per
query, a :class:`~repro.engine.zonemap.ScanDecision` (which of the
:class:`~repro.engine.zonemap.ZoneUnit` objects in ``table.zone_units()`` the
read predicate can match), an :class:`~repro.engine.executor.agg_pushdown
.AggregateStrategy` and a :class:`~repro.engine.shard.ShardDecision`; the
planner shows the same objects in a statement's physical plan, and execution
*consumes* them instead of re-deriving.  A path belongs to the cached plan of
one statement *shape*, so it keeps its decisions **per subject** (predicate
or query): the sixteen sibling literals of a recurring report each find their
own.  All three obey one freshness rule (:meth:`AccessPath._decide`): a
recorded decision is reused iff it was taken for the same subject, under the
same zone token (no DML since) and the same settings epoch (no
``*_disabled()`` switch or ``shard_config`` knob moved since —
:mod:`repro.engine.toggle`); otherwise it is re-derived, so a cached plan can
never skip rows it must not, serve a stale zero-scan answer, or hide the
reference path behind a toggle.  Every prunable unit consulted is counted on
the accountant (scanned vs. skipped), which is what ``EXPLAIN ANALYZE``
reports.

What does not depend on the statement is decided once per path, when it is
built: paths are built per layout, and a store move or repartitioning builds
new ones.  That covers *structural* shard eligibility (``never_shards``: a
row-store, partitioned or inner-partition path never shards, so its
statements attempt no scatter and derive no :class:`ShardDecision` — the
planner still records one for ``EXPLAIN``, which prints nothing for it) and
the unit verdicts themselves (``PartitionScan(label, scan, reason)`` is a
value, interned per path).  What depends on the statement — the zone
verdict of its predicate, the aggregate tier, a plain column store's shard
verdict with its gate and toggles — stays per subject, under the
one freshness rule.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.engine.batch import ColumnBatch
from repro.engine.executor.agg_pushdown import (
    AggregateStrategy,
    derive_aggregate_strategy,
)
from repro.engine.shard import (
    ShardDecision,
    derive_shard_decision,
    structural_ineligibility,
)
from repro.engine.table import StoredTable, checked_assignments
from repro.engine.timing import CostAccountant
from repro.engine.toggle import settings_epoch
from repro.engine.types import Store
from repro.engine.zonemap import PartitionScan, ScanDecision, zone_pruning_enabled
from repro.query.ast import AggregationQuery
from repro.query.predicates import Predicate


def empty_batch(columns: Sequence[str]) -> ColumnBatch:
    """A zero-row batch that still carries the requested column set."""
    return ColumnBatch(
        {name: np.empty(0, dtype=object) for name in columns}, num_rows=0
    )


#: Entries one access path's decision memo holds at a time: one per (kind,
#: subject) plus the latest of each kind.  A recurring workload's sibling
#: literals of one shape fit many times over; a stream of distinct literals
#: just starts over when it gets there.
DECISION_MEMO_LIMIT = 256


class AccessPath:
    """Interface used by the operators to read and modify one table."""

    #: Human-readable description used in traces and tests.
    description: str = "access path"

    #: Why this path can never shard, whatever the statement — ``None`` when
    #: each statement's own :class:`~repro.engine.shard.ShardDecision`
    #: decides.  Structural (see :func:`~repro.engine.shard
    #: .structural_ineligibility`), so it is decided once, when the path is
    #: built.
    never_shards: Optional[str] = "not a plain column store"

    #: The most recent :class:`ScanDecision` (set by :meth:`plan_scan` or a
    #: re-derivation at execution time); ``None`` until a predicate is seen.
    scan_decision: Optional[ScanDecision] = None

    #: The most recent :class:`AggregateStrategy` (set by
    #: :meth:`plan_aggregate` or re-derived at execution time).
    aggregate_strategy: Optional[AggregateStrategy] = None

    #: The most recent :class:`~repro.engine.shard.ShardDecision` (set by
    #: :meth:`plan_shards` or re-derived at execution time).
    shard_decision: Optional["ShardDecision"] = None

    #: Whether this path can serve per-partition batches for the
    #: partition-partial aggregation tier.
    supports_partition_partial: bool = False

    def __init__(self, table, description: str) -> None:
        self.table = table
        self.description = description
        self._recorded = {}
        self._stamp = None
        # Interned unit verdicts: ``PartitionScan(label, scan, reason)`` is a
        # value, one per (unit label, scan) this path ever derived.
        self._verdicts: Dict[tuple, PartitionScan] = {}

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def primary_store(self) -> Store:
        """The store whose layout dominates this table's data (for joins)."""
        raise NotImplementedError

    # -- plan decisions -----------------------------------------------------------

    def _decide(self, slot: str, subject: Any,
                derive: Callable[["AccessPath", Any], Any],
                replan: bool = False) -> Any:
        """The valid decision of kind *slot* for *subject* — the one freshness rule.

        A recorded decision is reused iff it was taken for the same subject,
        under the same zone token and the same settings epoch; otherwise (or
        when *replan* forces it) ``derive(self, subject)`` takes it afresh,
        and it is recorded under the token and epoch read *before* deriving.
        Subjects are remembered by identity — a recurring statement text
        presents the same bound object every time — with an equality test
        against the latest one as the fallback (a prepared statement re-bound
        with the values it had).  Checking allocates nothing but the token:
        units are built to derive, never to validate.
        """
        stamp = (self._zone_token(), settings_epoch())
        recorded = self._recorded
        if stamp != self._stamp or len(recorded) >= DECISION_MEMO_LIMIT:
            recorded.clear()
            self._stamp = stamp
        key = (slot, id(subject))
        if not replan:
            # An entry holds its subject, so a live id cannot be another's.
            entry = recorded.get(key)
            if entry is not None and entry[0] is subject:
                return entry[1]
            entry = recorded.get(slot)  # the latest subject of this kind
            if entry is not None:
                try:
                    same = bool(entry[0] == subject)
                except Exception:  # pragma: no cover - exotic __eq__ definitions
                    same = False
                if same:
                    recorded[key] = (subject, entry[1])
                    return entry[1]
        decision = derive(self, subject)
        setattr(self, slot, decision)
        recorded[key] = recorded[slot] = (subject, decision)
        return decision

    def _zone_token(self) -> tuple:
        return self.table.zone_token

    def _derive_decision(self, predicate: Optional[Predicate]) -> ScanDecision:
        """One verdict per unit: skipped iff its zones prove *predicate* empty."""
        prune = predicate is not None and zone_pruning_enabled()
        verdicts = self._verdicts
        partitions = []
        for unit in self.table.zone_units():
            scan = not prune or unit.can_match(predicate)
            verdict = verdicts.get((unit.label, scan))
            if verdict is None:
                verdict = verdicts[unit.label, scan] = PartitionScan(
                    unit.label, scan, "" if scan else "zone disjoint"
                )
            partitions.append(verdict)
        return ScanDecision(self.table.name, predicate, tuple(partitions))

    def plan_scan(self, predicate: Optional[Predicate]) -> ScanDecision:
        """Derive (and record) the pruning decision for *predicate*.

        Called once by the planner/executor when resolving paths; execution
        re-uses the recorded decision while it is fresh.
        """
        return self._decide("scan_decision", predicate,
                            AccessPath._derive_decision, replan=True)

    def decision_for(self, predicate: Optional[Predicate]) -> ScanDecision:
        """The valid decision for *predicate* — recorded if fresh, else re-derived."""
        return self._decide("scan_decision", predicate, AccessPath._derive_decision)

    def plan_aggregate(self, query: AggregationQuery) -> AggregateStrategy:
        """Derive (and record) the aggregate-pushdown strategy for *query*."""
        return self._decide("aggregate_strategy", query,
                            derive_aggregate_strategy, replan=True)

    def aggregate_decision_for(self, query: AggregationQuery) -> AggregateStrategy:
        """The valid strategy for *query* — recorded if fresh, else re-derived."""
        return self._decide("aggregate_strategy", query, derive_aggregate_strategy)

    def plan_shards(self, query) -> "ShardDecision":
        """Derive (and record) the shard fan-out decision for *query*."""
        return self._decide("shard_decision", query, derive_shard_decision,
                            replan=True)

    def shard_decision_for(self, query) -> "ShardDecision":
        """The valid shard decision for *query* — recorded if fresh, else re-derived."""
        return self._decide("shard_decision", query, derive_shard_decision)

    # -- reads -------------------------------------------------------------------

    def collect_batch(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> ColumnBatch:
        """Return a columnar batch of *columns*, filtered by *predicate*.

        This is the operators' read entry point: data stays in aligned numpy
        arrays from the storage backend to the aggregation/join operators.
        *encode_columns* lists columns the consumer prefers dictionary-
        encoded (group-by keys): stores that can serve an interned
        ``(codes, dictionary)`` pair for them do so; plain value arrays
        remain a correct fallback.  Cost charges never depend on it.
        """
        raise NotImplementedError

    def select_rows(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        limit: Optional[int],
        accountant: CostAccountant,
    ) -> List[Dict[str, Any]]:
        """Return matching rows as dicts (projected to *columns* if given)."""
        raise NotImplementedError

    def insert(self, rows: Sequence[Mapping[str, Any]], accountant: CostAccountant) -> int:
        raise NotImplementedError

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> int:
        raise NotImplementedError

    def delete(self, predicate: Optional[Predicate], accountant: CostAccountant) -> int:
        raise NotImplementedError


class SimpleAccessPath(AccessPath):
    """Access path over an unpartitioned :class:`StoredTable`.

    ``inner=True`` marks paths a :class:`~repro.engine.executor.rewrite
    .PartitionedAccessPath` builds around its own parts: the outer path owns
    pruning and partition counting for them, so inner paths do neither.
    """

    def __init__(self, table: StoredTable, inner: bool = False) -> None:
        super().__init__(table, f"{table.name} ({table.store.value} store)")
        self._inner = inner
        self.never_shards = structural_ineligibility(table, inner)

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def primary_store(self) -> Store:
        return self.table.store

    def _scan_allowed(
        self, predicate: Optional[Predicate], accountant: CostAccountant
    ) -> bool:
        """Consume the scan decision; count the table's single partition."""
        if self._inner:
            return True
        if predicate is None:
            accountant.count_partition(self.table.name, scanned=True)
            return True
        scan = self.decision_for(predicate).partitions[0].scan
        accountant.count_partition(self.table.name, scanned=scan)
        return scan

    # -- reads -------------------------------------------------------------------

    def collect_batch(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> ColumnBatch:
        if not self._scan_allowed(predicate, accountant):
            return empty_batch(columns)
        positions = self.table.filter_positions(predicate, accountant)
        if self.table.store is Store.ROW:
            # One full-width pass delivers every requested column; group-by
            # keys come interned from the factorization cache when possible.
            return self.table.scan_batch(columns, positions, accountant,
                                         encode=encode_columns)
        # Column store: one compressed scan (or reconstruction) per column.
        # The batch carries the (codes, dictionary) pairs undecoded — values
        # materialise only where the query result actually needs them.
        num_rows = self.table.num_rows if positions is None else len(positions)
        return ColumnBatch(
            {
                name: self.table.column_batched(name, positions, accountant)
                for name in columns
            },
            num_rows=num_rows,
        )

    def select_rows(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        limit: Optional[int],
        accountant: CostAccountant,
    ) -> List[Dict[str, Any]]:
        if not self._scan_allowed(predicate, accountant):
            return []
        positions = self.table.filter_positions(predicate, accountant)
        if positions is not None and limit is not None:
            positions = positions[:limit]
        rows = self.table.fetch_rows(positions, columns or None, accountant)
        if positions is None and limit is not None:
            rows = rows[:limit]
        return rows

    # -- writes -------------------------------------------------------------------

    def insert(self, rows: Sequence[Mapping[str, Any]], accountant: CostAccountant) -> int:
        self.table.insert_rows(rows, accountant)
        return len(rows)

    def _dml_positions(
        self,
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        proven_empty: bool = False,
    ) -> np.ndarray:
        """Positions an UPDATE/DELETE applies to, its predicate scan billed.

        When the zones prove the scan empty (*proven_empty* from the outer
        partitioned path, else this path's own decision) it is billed and
        skipped; the statement is otherwise the ordinary one — pruning DML
        is a wall-clock optimisation only.
        """
        if not proven_empty and predicate is not None and not self._inner:
            proven_empty = not self.decision_for(predicate).partitions[0].scan
        positions = self.table.filter_positions(predicate, accountant, proven_empty)
        if positions is None:
            positions = np.arange(self.table.num_rows, dtype=np.int64)
        return positions

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> int:
        positions = self._dml_positions(predicate, accountant)
        coerced = checked_assignments(self.table, assignments, [(self.table, positions)])
        return self.table.update_rows(positions, coerced, accountant)

    def delete(self, predicate: Optional[Predicate], accountant: CostAccountant) -> int:
        positions = self._dml_positions(predicate, accountant)
        return self.table.delete_rows(positions, accountant)
