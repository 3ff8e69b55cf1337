"""Transparent query rewriting over partitioned tables.

Users (and the workload generators) write queries against logical tables; when
the storage advisor has partitioned a table, the catalog carries a
partitioning annotation and the executor routes the query through a
:class:`PartitionedAccessPath` instead of a plain one (Section 4 of the paper,
"Store-aware Partitioning").

The access path implements the two assembly operations the paper describes:

* **union** of the hot (row-store) and historic partitions for queries that
  address all the data — charged as per-partition overhead, and
* **join** of the vertical parts when a query touches attributes from both —
  charged as a hash join over the participating rows.

Zone-map pruning happens at the granularity of the table's
:class:`~repro.engine.zonemap.ZoneUnit` objects: the main (historic) portion
and the hot partition are independent units, each skipped — before any code
or tuple is touched — when its zones prove the read predicate cannot match.
The verdicts come from the path's recorded :class:`ScanDecision` while it is
fresh (the freshness rule of :mod:`repro.engine.executor.access`) and are
re-derived otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import ColumnBatch, evaluate_predicate_mask
from repro.engine.executor.access import AccessPath, SimpleAccessPath, empty_batch
from repro.engine.partitioning import HOT_PARTITION, MAIN_PARTITION, PartitionedTable
from repro.engine.table import StoredTable, checked_assignments
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.query.predicates import Predicate


class _DeferredCharges:
    """Charges taken now and billed later, in the order they were taken.

    Stands in for a :class:`CostAccountant` while a partitioned DML
    statement scans main before any part changes: the scan's charges are
    billed after the hot part's writes, so the bill's components — and the
    order its floats are summed in — are those of applying part by part.
    """

    def __init__(self) -> None:
        self._calls: List[Tuple[str, tuple, dict]] = []

    def __getattr__(self, name: str):
        return lambda *args, **kwargs: self._calls.append((name, args, kwargs))

    def bill(self, accountant: CostAccountant) -> None:
        for name, args, kwargs in self._calls:
            getattr(accountant, name)(*args, **kwargs)


class PartitionedAccessPath(AccessPath):
    """Access path over a :class:`PartitionedTable`."""

    supports_partition_partial = True

    def __init__(self, table: PartitionedTable) -> None:
        super().__init__(
            table, f"{table.name} (partitioned: {table.partitioning.describe()})"
        )

    @property
    def num_rows(self) -> int:
        return self.table.num_rows

    @property
    def primary_store(self) -> Store:
        if self.table.has_vertical_split:
            return Store.COLUMN
        return self.table.main_parts[0].store

    # -- reads ---------------------------------------------------------------------

    def _scan_partitions(self, predicate, accountant, scan_main, scan_hot):
        """Run the scans over the partitions the decision keeps.

        The one home of a read's partition accounting: every prunable unit
        is counted as scanned or skipped, ``scan_main()`` (returning its
        piece and the vertical parts it touched) and ``scan_hot(path)`` run
        only where the zones allow a match, and the union of the pieces is
        billed as partition overhead.  Returns ``(main piece, hot piece)``,
        ``None`` for a partition that was pruned, absent or empty.
        """
        decision = self.decision_for(predicate)
        main_piece = hot_piece = None
        segments = 0
        scan = decision.scan_of(MAIN_PARTITION)
        accountant.count_partition(self.table.name, scanned=scan)
        if scan:
            main_piece, segments = scan_main()
        hot = self.table.hot
        if hot is not None:
            scan = decision.scan_of(HOT_PARTITION)
            accountant.count_partition(self.table.name, scanned=scan)
            if scan and hot.num_rows > 0:
                hot_piece = scan_hot(SimpleAccessPath(hot, inner=True))
                segments += 1
        accountant.charge_partition_overhead(max(segments, 1))
        return main_piece, hot_piece

    def collect_batch(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> ColumnBatch:
        return ColumnBatch.concat(self.collect_partition_batches(
            columns, predicate, accountant, encode_columns=encode_columns
        ))

    def collect_partition_batches(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ) -> List[ColumnBatch]:
        """Per-partition batches, each in its part's own representation.

        The main portion carries its dictionary codes and the hot part its
        interned *encode_columns*; :meth:`collect_batch` stacks them, and
        partition-partial aggregation reduces them one by one.  Cost
        charges are the same either way.
        """
        main_batch, hot_batch = self._scan_partitions(
            predicate, accountant,
            lambda: self._collect_from_main(
                columns, predicate, accountant, encode_columns=encode_columns
            ),
            lambda hot: hot.collect_batch(
                columns, predicate, accountant, encode_columns=encode_columns
            ),
        )
        batches = [main_batch if main_batch is not None else empty_batch(columns)]
        if hot_batch is not None:
            batches.append(hot_batch)
        return batches

    def select_rows(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        limit: Optional[int],
        accountant: CostAccountant,
    ) -> List[Dict[str, Any]]:
        main_rows, hot_rows = self._scan_partitions(
            predicate, accountant,
            lambda: self._select_from_main(columns, predicate, accountant),
            lambda hot: hot.select_rows(columns, predicate, None, accountant),
        )
        rows = (main_rows or []) + (hot_rows or [])
        if limit is not None:
            rows = rows[:limit]
        return rows

    # -- writes ---------------------------------------------------------------------

    def insert(self, rows: Sequence[Mapping[str, Any]], accountant: CostAccountant) -> int:
        return self.table.insert_rows(rows, accountant)

    def _dml_proofs(self, predicate: Optional[Predicate]) -> Tuple[bool, bool]:
        """Do the zones prove a DML scan of (main, hot) matches no row?

        Derived once, before the statement mutates anything.  Each proof is
        passed down to the ordinary DML scan, which bills the scan and skips
        it — a pruned statement charges, validates and applies (to no rows)
        exactly like an unpruned one.
        """
        if predicate is None:
            return False, False
        decision = self.decision_for(predicate)
        return (
            not decision.scan_of(MAIN_PARTITION),
            not decision.scan_of(HOT_PARTITION),
        )

    def _hot_positions(self, predicate, accountant, proven_empty):
        """``(hot part, its matching positions)``; ``(None, [])`` without hot rows."""
        hot = self.table.hot
        if hot is None or hot.num_rows == 0:
            return None, []
        return hot, SimpleAccessPath(hot, inner=True)._dml_positions(
            predicate, accountant, proven_empty
        )

    def update(
        self,
        assignments: Mapping[str, Any],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ) -> int:
        """Derive every part's positions, check the SET values, then apply.

        Nothing changes until the key rule has seen the matches of every
        part (:func:`~repro.engine.table.checked_assignments`), so a failed
        statement changes no part.  Main's scan is billed after the hot
        part's writes, where a statement applied part by part billed it.
        """
        table = self.table
        main_empty, hot_empty = self._dml_proofs(predicate)
        hot, hot_positions = self._hot_positions(predicate, accountant, hot_empty)
        main_scan = _DeferredCharges()
        main_positions, parts_needed = self._vertical_positions(
            assignments, predicate, main_scan, main_empty
        )
        if main_positions is None:
            main_positions = np.arange(table.main_num_rows, dtype=np.int64)
        coerced = checked_assignments(
            table, assignments,
            [(table.main_parts[0], main_positions), (hot, hot_positions)],
        )
        affected = main_affected = 0
        if hot is not None:
            affected = hot.update_rows(hot_positions, coerced, accountant)
        main_scan.bill(accountant)
        for part in table.main_parts:
            part_assignments = {
                name: value for name, value in coerced.items()
                if part.schema.has_column(name)
            }
            if part_assignments:
                main_affected = max(main_affected, part.update_rows(
                    main_positions, part_assignments, accountant
                ))
        accountant.charge_partition_overhead(len(parts_needed) + (hot is not None))
        return affected + main_affected

    def delete(self, predicate: Optional[Predicate], accountant: CostAccountant) -> int:
        """Derive every part's positions, then delete — billed as :meth:`update` is."""
        table = self.table
        main_empty, hot_empty = self._dml_proofs(predicate)
        hot, hot_positions = self._hot_positions(predicate, accountant, hot_empty)
        main_scan = _DeferredCharges()
        main_positions, touched = self._main_positions(predicate, main_scan, main_empty)
        if main_positions is None:
            main_positions = np.arange(table.main_num_rows, dtype=np.int64)
        affected = 0
        if hot is not None:
            affected = hot.delete_rows(hot_positions, accountant)
        main_scan.bill(accountant)
        for part in table.main_parts:
            part.delete_rows(main_positions, accountant)
        accountant.charge_partition_overhead(touched + 1)
        return affected + len(main_positions)

    # -- main (historic) portion helpers -----------------------------------------------

    def _collect_from_main(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        encode_columns: Sequence[str] = (),
    ):
        table = self.table
        if not table.has_vertical_split:
            batch = SimpleAccessPath(table.main_parts[0], inner=True).collect_batch(
                columns, predicate, accountant, encode_columns=encode_columns
            )
            return batch, 1

        positions, parts_needed = self._vertical_positions(
            columns, predicate, accountant
        )
        num_rows = table.main_num_rows if positions is None else len(positions)
        arrays: Dict[str, Any] = {}
        grouped = self._group_columns_by_part(columns)
        for part, part_columns in grouped.items():
            if part.store is Store.ROW:
                part_batch = part.scan_batch(part_columns, positions, accountant)
                for name in part_columns:
                    arrays[name] = part_batch.column(name)
            else:
                # Column-store parts contribute their (codes, dictionary)
                # pairs undecoded; ColumnBatch.concat carries the hot part's
                # rows as codes of the same dictionary where it holds them.
                for name in part_columns:
                    arrays[name] = part.column_batched(name, positions, accountant)
        return ColumnBatch(arrays, num_rows=num_rows), len(parts_needed)

    def _select_from_main(
        self,
        columns: Sequence[str],
        predicate: Optional[Predicate],
        accountant: CostAccountant,
    ):
        table = self.table
        if not table.has_vertical_split:
            rows = SimpleAccessPath(table.main_parts[0], inner=True).select_rows(
                columns, predicate, None, accountant
            )
            return rows, 1

        requested = list(columns) if columns else list(table.schema.column_names)
        positions, parts_needed = self._vertical_positions(
            requested, predicate, accountant
        )
        grouped = self._group_columns_by_part(requested)
        partial_rows: List[List[Dict[str, Any]]] = []
        for part, part_columns in grouped.items():
            partial_rows.append(part.fetch_rows(positions, part_columns, accountant))
        if not partial_rows:
            return [], len(parts_needed)
        merged = []
        for pieces in zip(*partial_rows):
            row: Dict[str, Any] = {}
            for piece in pieces:
                row.update(piece)
            merged.append(row)
        return merged, len(parts_needed)

    def _main_positions(
        self,
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        proven_empty: bool = False,
    ):
        """Positions (aligned across vertical parts) of main rows matching *predicate*.

        *proven_empty* carries a zone proof that nothing matches: the scan
        is billed exactly the same and skipped.
        """
        table = self.table
        if predicate is None:
            return None, 0
        if not table.has_vertical_split:
            positions = table.main_parts[0].filter_positions(
                predicate, accountant, proven_empty
            )
            return positions, 1
        predicate_parts = table.main_parts_for_columns(sorted(predicate.columns()))
        if len(predicate_parts) == 1:
            positions = predicate_parts[0].filter_positions(
                predicate, accountant, proven_empty
            )
            return positions, 1
        # The predicate spans both vertical parts: bill a full read of every
        # referenced column plus the per-row evaluation, then evaluate over
        # the aligned column arrays from both parts (vectorized when possible).
        referenced = sorted(predicate.columns())
        num_rows = table.main_num_rows
        for name in referenced:
            table.part_containing(name).charge_column_read(name, None, accountant)
        accountant.charge_predicate_evals(num_rows)
        if proven_empty:
            return np.empty(0, dtype=np.int64), len(predicate_parts)
        arrays = {
            name: table.part_containing(name).column_array(name)
            for name in referenced
        }
        mask = evaluate_predicate_mask(predicate, arrays, num_rows)
        return np.nonzero(mask)[0].astype(np.int64), len(predicate_parts)

    def _vertical_positions(
        self,
        columns,
        predicate: Optional[Predicate],
        accountant: CostAccountant,
        proven_empty: bool = False,
    ):
        """Matching main positions, and the vertical parts a statement touches.

        A statement whose *columns* and predicate span both parts pays the
        primary-key join that re-assembles tuples across them, billed here
        over the matching rows.
        """
        table = self.table
        needed = set(columns) | (set(predicate.columns()) if predicate else set())
        parts_needed = table.main_parts_for_columns(sorted(needed))
        positions, _ = self._main_positions(predicate, accountant, proven_empty)
        if len(parts_needed) >= 2:
            joined_rows = table.main_num_rows if positions is None else len(positions)
            accountant.charge_hash_inserts("partition_join", joined_rows)
            accountant.charge_hash_probes("partition_join", joined_rows)
        return positions, parts_needed

    def _group_columns_by_part(self, columns: Sequence[str]):
        """Group requested columns by the main part that stores them."""
        grouped: Dict[StoredTable, List[str]] = {}
        for name in columns:
            part = self.table.part_containing(name)
            grouped.setdefault(part, []).append(name)
        return grouped


def access_path_for(table_object) -> AccessPath:
    """Build the appropriate access path for a stored or partitioned table."""
    if isinstance(table_object, PartitionedTable):
        return PartitionedAccessPath(table_object)
    return SimpleAccessPath(table_object)
