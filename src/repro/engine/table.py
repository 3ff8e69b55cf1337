"""StoredTable: a named table living in exactly one store.

:class:`StoredTable` is a thin wrapper around either backend
(:class:`~repro.engine.row_store.RowStoreTable` or
:class:`~repro.engine.column_store.ColumnStoreTable`) that adds the table
name, store-conversion (the physical operation the advisor's recommendations
trigger) and convenience accessors.  The executor and the partitioning layer
work against this wrapper.
"""

from __future__ import annotations

from typing import (
    AbstractSet, Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.engine.batch import BatchColumn, ColumnBatch
from repro.engine.column_store import ColumnStoreTable
from repro.engine.indexes import check_new_keys
from repro.engine.row_store import RowStoreTable
from repro.engine.schema import TableSchema
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.engine.zonemap import ZoneUnit
from repro.query.predicates import Predicate

Backend = Union[RowStoreTable, ColumnStoreTable]


def create_backend(schema: TableSchema, store: Store) -> Backend:
    """Create an empty backend of the requested store for *schema*."""
    if store is Store.ROW:
        return RowStoreTable(schema)
    return ColumnStoreTable(schema)


def load_rows(table, rows: Iterable[Mapping[str, Any]]) -> int:
    """Turn *rows* into validated columns, once, and load them into *table*.

    The row boundary of a bulk load (:meth:`HybridDatabase.load_rows
    <repro.engine.database.HybridDatabase.load_rows>` takes the same two
    steps): past :meth:`TableSchema.gather_columns` rows exist only as
    column lists, :meth:`TableSchema.validate_columns` coerces them, and
    *table* — a :class:`StoredTable` or a
    :class:`~repro.engine.partitioning.PartitionedTable` — loads those.
    Returns the number of rows loaded.
    """
    rows = rows if isinstance(rows, (list, tuple)) else list(rows)
    schema = table.schema
    table.load_columns(
        schema.validate_columns(schema.gather_columns(rows), len(rows)), len(rows)
    )
    return len(rows)


def checked_assignments(
    table, assignments: Mapping[str, Any],
    matched: Sequence[Tuple[Optional["StoredTable"], Sequence[int]]],
) -> Dict[str, Any]:
    """An UPDATE's SET values, coerced once and proven to keep keys unique.

    *matched* pairs each part of *table* with the positions the statement
    updates there (a part it updates none of may be ``None``) — all derived
    before any part changes, so a statement this rejects changes nothing.
    Every matched row takes the one new key: two or more rows would share
    it, and a single row collides iff its key changes to one some part of
    the table holds.
    """
    schema = table.schema
    coerced = {
        name: schema.column(name).dtype.coerce(value)
        for name, value in assignments.items()
    }
    key_sets = table.key_sets()
    if key_sets and schema.primary_key[0] in coerced:
        key = schema.primary_key[0]
        matched = [(part, positions) for part, positions in matched if len(positions)]
        count = sum(len(positions) for _, positions in matched)
        keys = [coerced[key]] * min(count, 2)
        if count == 1:
            (part, positions), = matched
            if part.column_values(key, positions) == keys:
                keys = []  # the row keeps its own key
        check_new_keys(table.name, keys, key_sets)
    return coerced


class StoredTable:
    """A table stored in exactly one of the two stores."""

    #: ``(backend, zone token, units)`` of the last ``zone_units()`` call:
    #: units are a function of both (a store conversion swaps the backend,
    #: and two backends' epochs say nothing about each other).
    _units: Optional[Tuple[Backend, Tuple[int, ...], List[ZoneUnit]]] = None

    def __init__(self, schema: TableSchema, store: Store = Store.ROW,
                 backend: Optional[Backend] = None) -> None:
        self.schema = schema
        self._backend: Backend = backend if backend is not None else create_backend(schema, store)

    # -- identity ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def store(self) -> Store:
        return self._backend.store

    @property
    def backend(self) -> Backend:
        return self._backend

    @property
    def is_partitioned(self) -> bool:
        return False

    @property
    def num_rows(self) -> int:
        return self._backend.num_rows

    @property
    def row_width_bytes(self) -> int:
        return self.schema.row_width_bytes

    @property
    def memory_bytes(self) -> float:
        return self._backend.memory_bytes

    def compression_rate(self, column: Optional[str] = None) -> float:
        return self._backend.compression_rate(column)

    # -- store conversion ---------------------------------------------------------

    def convert_to(self, store: Store,
                   accountant: Optional[CostAccountant] = None) -> "StoredTable":
        """Move the table to *store* (no-op if it is already there).

        The conversion reads every cell of the source layout and writes it to
        the target layout, which the timing model charges as layout-conversion
        work.  The conversion happens in place: ``self`` ends up backed by the
        new store and is also returned for convenience.
        """
        if store is self.store:
            return self
        num_rows = self._backend.num_rows
        if accountant is not None:
            accountant.charge_layout_conversion(num_rows * self.schema.num_columns)
        new_backend = create_backend(self.schema, store)
        # The conversion moves data columnarly: the source serves each column
        # as one list and the target adopts them without re-validating every
        # row (the values were validated when they entered the source store).
        columns = {
            name: self._backend.column_values(name)
            for name in self.schema.column_names
        }
        new_backend.load_columns(columns, num_rows)
        self._backend = new_backend
        self._units = None
        return self

    # -- index management -----------------------------------------------------------

    def create_hash_index(self, column: str) -> None:
        if isinstance(self._backend, RowStoreTable):
            self._backend.create_hash_index(column)

    def create_sorted_index(self, column: str) -> None:
        if isinstance(self._backend, RowStoreTable):
            self._backend.create_sorted_index(column)

    # -- data access (delegation) ------------------------------------------------------

    def insert_rows(self, rows: Sequence[Mapping[str, Any]],
                    accountant: Optional[CostAccountant] = None) -> List[int]:
        return self._backend.insert_rows(rows, accountant)

    def key_sets(self) -> List[AbstractSet]:
        """The primary-key sets a new key must be absent from (one, or none)."""
        return self._backend.key_sets()

    def check_load(self, columns: Mapping[str, Sequence[Any]]) -> None:
        self._backend.check_load(columns)

    def load_columns(self, columns: Mapping[str, Sequence[Any]], num_rows: int) -> None:
        self._backend.load_columns(columns, num_rows)

    def update_rows(self, positions: Sequence[int], assignments: Mapping[str, Any],
                    accountant: Optional[CostAccountant] = None) -> int:
        return self._backend.update_rows(positions, assignments, accountant)

    def delete_rows(self, positions: Sequence[int],
                    accountant: Optional[CostAccountant] = None) -> int:
        return self._backend.delete_rows(positions, accountant)

    def filter_positions(self, predicate: Optional[Predicate],
                         accountant: Optional[CostAccountant] = None,
                         proven_empty: bool = False) -> Optional[np.ndarray]:
        """Matching positions; *proven_empty* bills the scan and skips it."""
        return self._backend.filter_positions(predicate, accountant, proven_empty)

    def charge_column_read(self, column: str, num_positions: Optional[int],
                           accountant: Optional[CostAccountant]) -> None:
        """Bill what reading *column* costs in this table's store."""
        self._backend.charge_column_read(column, num_positions, accountant)

    def fetch_rows(self, positions: Optional[Sequence[int]],
                   columns: Optional[Sequence[str]] = None,
                   accountant: Optional[CostAccountant] = None) -> List[Dict[str, Any]]:
        return self._backend.fetch_rows(positions, columns, accountant)

    def column_values(self, column: str, positions: Optional[Sequence[int]] = None,
                      accountant: Optional[CostAccountant] = None) -> List[Any]:
        return self._backend.column_values(column, positions, accountant)

    def column_array(self, column: str, positions: Optional[Sequence[int]] = None,
                     accountant: Optional[CostAccountant] = None) -> np.ndarray:
        return self._backend.column_array(column, positions, accountant)

    def column_batched(self, column: str, positions: Optional[Sequence[int]] = None,
                       accountant: Optional[CostAccountant] = None) -> "BatchColumn":
        """The column in its cheapest batch representation (same cost charges).

        The column store hands out its ``(codes, dictionary)`` pair without
        decoding (late materialisation); the row store serves its cached
        value array.
        """
        backend = self._backend
        if isinstance(backend, ColumnStoreTable):
            return backend.column_encoded(column, positions, accountant)
        return backend.column_array(column, positions, accountant)

    def scan_columns(self, columns: Sequence[str],
                     positions: Optional[Sequence[int]] = None,
                     accountant: Optional[CostAccountant] = None) -> Dict[str, List[Any]]:
        return self._backend.scan_columns(columns, positions, accountant)

    def scan_batch(self, columns: Sequence[str],
                   positions: Optional[Sequence[int]] = None,
                   accountant: Optional[CostAccountant] = None,
                   encode: Sequence[str] = ()) -> "ColumnBatch":
        if encode and isinstance(self._backend, RowStoreTable):
            # Row store: serve the listed columns interned when possible (the
            # column store is always dictionary-encoded anyway).
            return self._backend.scan_batch(columns, positions, accountant,
                                            encode=encode)
        return self._backend.scan_batch(columns, positions, accountant)

    def all_rows(self) -> List[Dict[str, Any]]:
        return self._backend.all_rows()

    # -- delta / snapshots ----------------------------------------------------------------

    @property
    def delta_rows(self) -> int:
        """Rows buffered in a column-store write buffer (0 for the row store)."""
        if isinstance(self._backend, ColumnStoreTable):
            return self._backend.delta_rows
        return 0

    def merge_delta(self) -> int:
        """Merge a column-store write buffer into main (no-op for the row store)."""
        if isinstance(self._backend, ColumnStoreTable):
            return self._backend.merge_delta()
        return 0

    def snapshot(self):
        """A consistent read view of the table as of now (snapshot isolation)."""
        return self._backend.snapshot()

    # -- integrity -----------------------------------------------------------------------

    def integrity_units(self) -> List[Tuple[Optional[str], Backend]]:
        """Partition units for the integrity scrubber: ``(label, backend)``.

        An unpartitioned table is a single unlabelled unit; the scrubber
        skips row-store backends (no checksums) by the absence of an
        ``integrity`` attribute.
        """
        return [(None, self._backend)]

    # -- zone maps -----------------------------------------------------------------------

    @property
    def zone_epoch(self) -> int:
        """The backend's zone epoch (bumped by every mutation)."""
        return self._backend.zone_epoch

    @property
    def zone_token(self) -> Tuple[int, ...]:
        """The zone epochs a recorded plan decision is checked against."""
        return (self._backend.zone_epoch,)

    def column_zone(self, column: str):
        """The backend's zone synopsis of *column*.

        ``None`` = no synopsis, which includes a column this table does not
        store (a vertical part asked about the other part's column).
        """
        if not self.schema.has_column(column):
            return None
        return self._backend.column_zone(column)

    def zone_units(self) -> List[ZoneUnit]:
        """The table's prunable units: itself, as one :class:`ZoneUnit`.

        Built once per (backend, zone token) and handed out again while
        both stand; callers only read them.
        """
        backend = self._backend
        token = (backend.zone_epoch,)
        cached = self._units
        if cached is not None and cached[0] is backend and cached[1] == token:
            return cached[2]
        units = [ZoneUnit(self.name, backend.num_rows, token, self.column_zone)]
        self._units = (backend, token, units)
        return units

    # -- statistics helpers --------------------------------------------------------------

    def column_distinct_count(self, column: str) -> int:
        return self._backend.column_distinct_count(column)

    def column_min_max(self, column: str) -> Tuple[Any, Any]:
        return self._backend.column_min_max(column)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StoredTable(name={self.name!r}, store={self.store.value}, "
            f"rows={self.num_rows})"
        )
