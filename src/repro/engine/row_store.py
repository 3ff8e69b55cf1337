"""The row store backend.

Rows are stored tuple-wise: each row is a list of values in schema column
order.  This layout makes complete-tuple accesses, inserts and in-place
updates cheap, while any scan — even one that only needs a single attribute —
has to read full tuples (the row store's defining cost characteristic in the
paper's cost model).

Cost accounting (see :mod:`repro.engine.timing`):

* a full scan charges sequential traffic of ``num_rows × row_width`` bytes,
* an index-assisted lookup charges index probes plus one random access per
  qualifying row,
* inserts charge a primary-key uniqueness probe, an append of ``row_width``
  bytes and index maintenance,
* updates charge one in-place value write per affected cell.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from functools import reduce
from itertools import chain
from operator import itemgetter
from typing import (
    AbstractSet, Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.engine.batch import (
    ColumnBatch,
    EncodedColumn,
    codes_in,
    evaluate_predicate_mask,
    sorted_positions,
    values_to_array,
)
from repro.engine.indexes import HashIndex, SortedIndex, check_new_keys, check_new_rows
from repro.engine.schema import TableSchema
from repro.engine.timing import CostAccountant
from repro.engine.types import DataType, Store
from repro.engine.zonemap import ColumnZone, next_zone_epoch, widen_zone
from repro.query.predicates import Predicate
from repro.query.ranges import greatest, group_key, least, ranges_of


#: Types whose values may be NaN.
_NAN_TYPES = (DataType.DOUBLE, DataType.DECIMAL)

#: Column lists one table keeps a validated ``fetch_rows`` projection for.
_PROJECTIONS_KEPT = 64


def _no_positions() -> List[int]:
    """The index probe of a predicate no row can match."""
    return []


@contextmanager
def _gc_paused() -> Iterator[None]:
    """The cyclic garbage collector off while a block allocates per row.

    A load allocates one list per row (its tuple) and one per hash-index
    key; with the collector on, that allocation count sets off collections
    which traverse every live object — at 200 k rows most of the load's
    time.  None of it is cyclic garbage.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class InternedDictionary:
    """Read-only sorted dictionary over a row-store string column.

    The row store keeps values uncompressed; this dictionary exists purely as
    a *wall-clock* cache: ``np.unique``-factorizing 100k strings costs ~20 ms,
    so the factorization is computed once per table state and handed to the
    executor as an :class:`~repro.engine.batch.EncodedColumn`, whose group-by
    runs on the int codes in O(n).  It mirrors the subset of the
    :class:`~repro.engine.compression.ColumnDictionary` interface the batch
    pipeline consumes.  Interning never changes a query's *charged* cost —
    the row store still bills full-width tuple scans.

    Only pure-string columns are interned (numpy ``U`` dtype), so the
    dictionary can never contain NULL or NaN entries.
    """

    __slots__ = ("values_array",)

    def __init__(self, values_array: np.ndarray) -> None:
        self.values_array = values_array

    def __len__(self) -> int:
        return len(self.values_array)

    @property
    def nan_code(self) -> Optional[int]:
        return None

    def decode(self, code: int) -> Any:
        return self.values_array[code]

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        return self.values_array[codes]

    def codes_of(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Code of each of *values*, ``-1`` where absent (``None``: see
        :func:`~repro.engine.batch.sorted_positions`)."""
        return sorted_positions(self.values_array, values)


class RowStoreTable:
    """In-memory row-oriented table."""

    store = Store.ROW

    def __init__(self, schema: TableSchema, create_pk_index: bool = True) -> None:
        self.schema = schema
        self._rows: List[List[Any]] = []
        self._hash_indexes: Dict[str, HashIndex] = {}
        self._sorted_indexes: Dict[str, SortedIndex] = {}
        # Per-column numpy views of the tuple data, built lazily on the first
        # scan and reused until the next mutation.  Scans and aggregations of
        # a row-store table are served from these arrays; the *cost* charged
        # stays the full-width tuple scan of the row-store model.
        self._column_cache: Dict[str, np.ndarray] = {}
        # Per-column interning/factorization cache for string columns:
        # column -> (codes aligned with the rows, sorted InternedDictionary).
        # Invalidated exactly like _column_cache (popped on update, cleared
        # on delete/bulk rebuild); appends extend the codes with just the new
        # suffix when the new values already intern, else rebuild lazily.
        self._factorized: Dict[str, Tuple[np.ndarray, InternedDictionary]] = {}
        # Zone-map state: every mutator bumps the epoch; per-column synopses
        # are rebuilt lazily from the cached column views (``column_zone``).
        self._zone_epoch = next_zone_epoch()
        self._zone_cache: Dict[str, Tuple[int, Optional[ColumnZone]]] = {}
        # ``fetch_rows`` projections, per requested column list: a function
        # of the schema and the list alone.
        self._projections: Dict[Tuple[str, ...], Tuple[Tuple[str, int], ...]] = {}
        self._pk_column: Optional[str] = None
        if create_pk_index and len(schema.primary_key) == 1:
            # The primary key gets both an equality (hash) and a range (sorted)
            # index, mirroring a B-tree primary index in a real row store.
            self._pk_column = schema.primary_key[0]
            self._hash_indexes[self._pk_column] = HashIndex(self._pk_column, unique=True)
            self._sorted_indexes[self._pk_column] = SortedIndex(self._pk_column)

    # -- basic properties --------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    @property
    def row_width_bytes(self) -> int:
        return self.schema.row_width_bytes

    @property
    def memory_bytes(self) -> float:
        return self.num_rows * self.row_width_bytes

    def compression_rate(self, column: Optional[str] = None) -> float:
        """The row store keeps data uncompressed."""
        return 1.0

    def has_index(self, column: str) -> bool:
        return column in self._hash_indexes or column in self._sorted_indexes

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        return tuple(sorted(set(self._hash_indexes) | set(self._sorted_indexes)))

    # -- index management ----------------------------------------------------------

    def create_hash_index(self, column: str) -> None:
        self.schema.column(column)
        if column in self._hash_indexes:
            return
        index = HashIndex(column)
        index.rebuild(self._stored_column(column))
        self._hash_indexes[column] = index

    def create_sorted_index(self, column: str) -> None:
        self.schema.column(column)
        if column in self._sorted_indexes:
            return
        index = SortedIndex(column)
        index.rebuild(self._stored_column(column))
        self._sorted_indexes[column] = index

    def _stored_column(self, column: str) -> List[Any]:
        """The values of *column* in row order, gathered in one C-level pass."""
        return list(map(itemgetter(self.schema.index_of(column)), self._rows))

    # -- loading and modification ----------------------------------------------------

    def insert_rows(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant] = None
    ) -> List[int]:
        """Validate *rows*, prove their keys new, then append them.

        A batch that fails either check appends no row.
        """
        return self.append_rows(
            check_new_rows(self.schema, rows, self.key_sets()), accountant
        )

    def key_sets(self) -> List[AbstractSet]:
        """The primary-key index's keys, alone in a list (empty without one)."""
        if self._pk_column is None:
            return []
        return [self._hash_indexes[self._pk_column].keys()]

    def append_rows(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant] = None
    ) -> List[int]:
        """Append validated rows whose keys are new, returning their positions.

        Zone maps are maintained *incrementally* here: fresh cached synopses
        are widened with just the appended values (OLTP inserts must not
        force an O(n) zone rebuild on the next filtered scan).
        """
        fresh_zones = self._fresh_zones()
        self._bump_zone_epoch()
        positions = []
        appended: List[List[Any]] = []
        column_names = self.schema.column_names
        for validated in rows:
            if self._pk_column is not None and accountant is not None:
                # The probe of this table's key index.  A partitioned table
                # also probed its other parts' key sets; those probes are not
                # billed — the cost model prices an insert into one store.
                accountant.charge_index_probe()
            position = len(self._rows)
            row_values = [validated[name] for name in column_names]
            self._rows.append(row_values)
            appended.append(row_values)
            if accountant is not None:
                accountant.charge_row_appends(self.row_width_bytes)
            for column, index in self._hash_indexes.items():
                index.insert(validated[column], position)
                if accountant is not None:
                    accountant.charge_index_insert()
            for column, index in self._sorted_indexes.items():
                index.insert(validated[column], position)
                if accountant is not None:
                    accountant.charge_index_insert()
            positions.append(position)
        self._widen_zones(fresh_zones, appended)
        # Appends keep the column cache valid: _column_array extends stale
        # entries with just the new suffix.
        return positions

    def _fresh_zones(self) -> Dict[str, ColumnZone]:
        """Cached zone synopses that are current at the present epoch."""
        return {
            column: zone
            for column, (epoch, zone) in self._zone_cache.items()
            if epoch == self._zone_epoch and zone is not None
        }

    def _widen_zones(
        self, fresh_zones: Dict[str, ColumnZone], appended: List[List[Any]]
    ) -> None:
        """Re-stamp fresh synopses widened by the *appended* row lists."""
        if not fresh_zones:
            return
        for column, zone in fresh_zones.items():
            index = self.schema.index_of(column)
            widened = widen_zone(
                zone, (row[index] for row in appended), len(appended)
            )
            if widened is not None:
                self._zone_cache[column] = (self._zone_epoch, widened)
            else:
                self._zone_cache.pop(column, None)

    def check_load(self, columns: Mapping[str, Sequence[Any]]) -> None:
        """Raise if loading *columns* would duplicate a primary key."""
        if self._pk_column is not None:
            check_new_keys(self.schema.name, columns[self._pk_column], self.key_sets())

    def load_columns(self, columns: Mapping[str, Sequence[Any]], num_rows: int) -> None:
        """Append *num_rows* validated rows given as column lists — the one loader.

        Loads, store conversions and partition moves all come here, with
        values already coerced (:meth:`TableSchema.validate_columns`
        or another backend's columns).  A load that would duplicate a
        primary key raises before anything changes.  Rows are assembled by
        one ``zip``, each index is rebuilt once from its whole column, and
        an empty table's column cache is seeded from the loaded lists — the
        statistics refresh that follows every load reads it.
        """
        if not num_rows:
            return
        self.check_load(columns)
        self._bump_zone_epoch()
        names = self.schema.column_names
        aligned = [columns[name] for name in names]
        empty = not self._rows
        with _gc_paused():
            self._rows.extend(map(list, zip(*aligned)))
            self._rebuild_indexes(columns if empty else None)
        if empty:
            self._column_cache = {
                name: values_to_array(values) for name, values in zip(names, aligned)
            }
            self._factorized.clear()
        # A non-empty table's cached views stay valid: _column_array extends
        # them with just the appended suffix.

    def update_rows(
        self,
        positions: Sequence[int],
        assignments: Mapping[str, Any],
        accountant: Optional[CostAccountant] = None,
    ) -> int:
        """Update the coerced *assignments* on the rows at *positions*.

        The caller coerced the values and checked a key change
        (:func:`~repro.engine.table.checked_assignments`).  An update of no
        rows is a no-op (no zone-epoch bump).  Only the assigned columns
        lose their zone synopsis: an overwritten value may have been the min
        or max, and zones answer zero-scan ``MIN``/``MAX``, so they are
        recomputed rather than widened.  Every other column's fresh synopsis
        is carried to the new epoch unchanged (a point ``UPDATE ... SET
        revenue`` must not cost the next ``WHERE id = k`` an O(n) rebuild of
        ``id``'s zone).
        """
        if not assignments or len(positions) == 0:
            return 0
        fresh_zones = self._fresh_zones()
        self._bump_zone_epoch()
        for column, zone in fresh_zones.items():
            if column not in assignments:
                self._zone_cache[column] = (self._zone_epoch, zone)
        column_positions = {name: self.schema.index_of(name) for name in assignments}
        for position in positions:
            row = self._rows[position]
            for name, value in assignments.items():
                old_value = row[column_positions[name]]
                row[column_positions[name]] = value
                if name in self._hash_indexes:
                    self._hash_indexes[name].update_key(old_value, value, position)
                    if accountant is not None:
                        accountant.charge_index_insert()
                if name in self._sorted_indexes:
                    self._sorted_indexes[name].remove(old_value, position)
                    self._sorted_indexes[name].insert(value, position)
                    if accountant is not None:
                        accountant.charge_index_insert()
            if accountant is not None:
                accountant.charge_row_value_updates(len(assignments))
        # Only the assigned columns changed; their cache entries go, the
        # rest stay valid.
        for name in assignments:
            self._column_cache.pop(name, None)
            self._factorized.pop(name, None)
        return len(positions)

    def delete_rows(
        self, positions: Sequence[int], accountant: Optional[CostAccountant] = None
    ) -> int:
        """Physically remove the rows at *positions* and rebuild the indexes."""
        if len(positions) == 0:
            return 0
        self._bump_zone_epoch()
        doomed = set(int(p) for p in positions)
        self._rows = [row for i, row in enumerate(self._rows) if i not in doomed]
        if accountant is not None:
            accountant.charge_row_value_updates(len(doomed) * self.schema.num_columns)
        self._rebuild_indexes()
        self._column_cache.clear()
        self._factorized.clear()
        return len(doomed)

    def _rebuild_indexes(
        self, columns: Optional[Mapping[str, Sequence[Any]]] = None
    ) -> None:
        """Rebuild every index from its whole column.

        *columns*, when given, hold every row's values (a load into an empty
        table) and spare gathering them from the tuples.
        """
        gathered: Dict[str, Sequence[Any]] = dict(columns or {})
        for column, index in chain(self._hash_indexes.items(), self._sorted_indexes.items()):
            if column not in gathered:
                gathered[column] = self._stored_column(column)
            index.rebuild(gathered[column])

    # -- reads -----------------------------------------------------------------------

    def _column_array(self, column: str) -> np.ndarray:
        """Cached numpy view of one column.

        Appends extend a stale cache entry with just the new suffix (the
        common OLTP case: single-row inserts between scans); updates and
        deletes invalidate (see the mutators), forcing a rebuild.
        """
        array = self._column_cache.get(column)
        num_rows = len(self._rows)
        if array is not None and len(array) == num_rows:
            return array
        index = self.schema.index_of(column)
        if array is not None and len(array) < num_rows:
            suffix = values_to_array(
                [row[index] for row in self._rows[len(array):]]
            )
            if suffix.dtype == array.dtype:
                array = np.concatenate([array, suffix])
                self._column_cache[column] = array
                return array
        array = values_to_array([row[index] for row in self._rows])
        self._column_cache[column] = array
        return array

    def column_interned(self, column: str) -> Optional[EncodedColumn]:
        """The interned ``(codes, dictionary)`` view of a string column.

        Returns ``None`` for columns that do not intern (non-string dtype,
        NULLs present, empty table).  The factorization is cached per table
        state; appends since the last factorization re-intern only the new
        suffix when every new value is already in the dictionary.
        """
        array = self._column_array(column)
        num_rows = len(array)
        if num_rows == 0 or array.dtype.kind != "U":
            return None
        cached = self._factorized.get(column)
        if cached is not None:
            codes, dictionary = cached
            if len(codes) == num_rows:
                return EncodedColumn(codes, dictionary)
            if len(codes) < num_rows:
                suffix = codes_in(dictionary, array[len(codes):])
                if suffix is not None:
                    codes = np.concatenate([codes, suffix])
                    self._factorized[column] = (codes, dictionary)
                    return EncodedColumn(codes, dictionary)
            # Shrunk or new values appeared: fall through to a full rebuild.
        uniques, inverse = np.unique(array, return_inverse=True)
        codes = inverse.reshape(-1).astype(np.int64)
        dictionary = InternedDictionary(uniques)
        self._factorized[column] = (codes, dictionary)
        return EncodedColumn(codes, dictionary)

    def filter_positions(
        self,
        predicate: Optional[Predicate],
        accountant: Optional[CostAccountant] = None,
        proven_empty: bool = False,
    ) -> Optional[np.ndarray]:
        """Return positions of rows matching *predicate* (``None`` = all rows).

        Uses an index when the predicate is a simple comparison or range on an
        indexed column; otherwise performs a full scan that reads every tuple.
        The full scan is evaluated vectorially over the cached column views
        when the predicate supports it (same cost charges either way).

        *proven_empty* carries a zone-map proof that no row matches: a full
        scan is billed all the same, and skipped (an index probe is
        O(1)/O(log n), so it simply runs).
        """
        if predicate is None:
            return None
        indexed = self._index_lookup(predicate, accountant)
        if indexed is not None:
            return indexed
        # Full scan: the row store reads complete tuples.
        self.charge_tuple_read(None, accountant)
        if accountant is not None:
            accountant.charge_predicate_evals(self.num_rows)
        if proven_empty:
            return np.empty(0, dtype=np.int64)
        referenced = sorted(predicate.columns() & set(self.schema.column_names))
        arrays = {name: self._column_array(name) for name in referenced}
        mask = evaluate_predicate_mask(predicate, arrays, self.num_rows)
        return np.nonzero(mask)[0].astype(np.int64)

    def index_access(
        self, predicate: Predicate
    ) -> Optional[Tuple[str, Callable[..., List[int]], tuple]]:
        """The index access that answers *predicate*, or ``None`` (the store scans).

        The one dispatch over (predicate shape, available indexes), as
        ``(kind, probe, args)``: ``kind`` is what ``EXPLAIN`` prints for the
        column, and ``probe(*args)`` performs exactly that access and
        returns the matching positions.
        """
        ranges = ranges_of(predicate)
        if ranges is None or ranges.index is None:
            return None
        sorted_index = self._sorted_indexes.get(predicate.column)
        if ranges.index == "point":
            index = self._hash_indexes.get(predicate.column, sorted_index)
            if index is None:
                return None
            if not ranges.intervals:
                return "index lookup", _no_positions, ()
            return "index lookup", index.lookup, (ranges.intervals[0][0],)
        if sorted_index is None:
            return None
        return "index range scan", sorted_index.positions, (ranges,)

    def _index_lookup(
        self, predicate: Predicate, accountant: Optional[CostAccountant]
    ) -> Optional[np.ndarray]:
        """Try to answer *predicate* from an index; return None if impossible.

        An answered lookup is billed one index probe plus one random access
        per qualifying row.
        """
        access = self.index_access(predicate)
        if access is None:
            return None
        _, probe, args = access
        positions = probe(*args)
        if accountant is not None:
            accountant.charge_index_probe()
            accountant.charge_random_accesses("row_fetch", len(positions))
        return np.asarray(positions, dtype=np.int64)

    def charge_tuple_read(
        self, num_positions: Optional[int], accountant: Optional[CostAccountant]
    ) -> None:
        """Bill reading *num_positions* tuples — the one home of that charge.

        ``None`` is every tuple: one sequential pass over the full-width
        rows.  An int is one random access per position.  The tuple is
        contiguous, so the projected columns come along for free.
        """
        if accountant is None:
            return
        if num_positions is None:
            accountant.charge_sequential_read(
                "row_scan", self.num_rows * self.row_width_bytes
            )
        else:
            accountant.charge_random_accesses("row_fetch", num_positions)

    def charge_column_read(self, column: str, num_positions: Optional[int],
                           accountant: Optional[CostAccountant]) -> None:
        """Bill reading *column*: in the row store, a read of whole tuples."""
        self.charge_tuple_read(num_positions, accountant)

    def fetch_rows(
        self,
        positions: Optional[Sequence[int]],
        columns: Optional[Sequence[str]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Dict[str, Any]]:
        """Materialise the rows at *positions* (``None`` = all rows).

        Fetching all rows is charged as a sequential scan; fetching selected
        positions is charged as one random access per row (the tuple is
        contiguous, so the projected columns come along for free).
        """
        names = self.schema.column_names
        projection = None
        if columns is not None:
            projection = self._projection(tuple(columns))
        if positions is None:
            self.charge_tuple_read(None, accountant)
            rows = self._rows
            if projection is None:
                return [dict(zip(names, row)) for row in rows]
            selected = {name for name, _ in projection}
            return [
                {name: row[i] for i, name in enumerate(names) if name in selected}
                for row in rows
            ]
        self.charge_tuple_read(len(positions), accountant)
        stored = self._rows
        if projection is None:
            return [dict(zip(names, stored[position])) for position in positions]
        result = []
        for position in positions:
            row = stored[position]
            result.append({name: row[i] for name, i in projection})
        return result

    def _projection(self, columns: Tuple[str, ...]) -> Tuple[Tuple[str, int], ...]:
        """``(name, tuple index)`` per selected column, validated once per column list."""
        projection = self._projections.get(columns)
        if projection is None:
            for name in columns:
                self.schema.column(name)
            if len(self._projections) >= _PROJECTIONS_KEPT:
                self._projections.clear()
            projection = self._projections[columns] = tuple(
                (name, self.schema.index_of(name)) for name in columns
            )
        return projection

    def column_values(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Any]:
        """Return the values of *column* (at *positions*, or for every row).

        Even a single-column read has to touch full tuples in the row store,
        which is exactly why the column store wins on wide analytical scans.
        """
        return self.column_array(column, positions, accountant).tolist()

    def column_array(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`column_values`, served from the cached column view."""
        self.schema.column(column)
        if positions is None:
            self.charge_tuple_read(None, accountant)
            return self._column_array(column)
        self.charge_tuple_read(len(positions), accountant)
        gather = np.asarray(positions, dtype=np.int64)
        return self._column_array(column)[gather]

    def scan_columns(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> Dict[str, List[Any]]:
        """Read several columns with a *single* pass over the tuples.

        This is the row store's natural access path for multi-aggregate
        queries: one full-width scan, regardless of how many attributes are
        requested.
        """
        batch = self.scan_batch(columns, positions, accountant)
        return {name: batch.column_list(name) for name in columns}

    def scan_batch(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
        encode: Sequence[str] = (),
    ) -> ColumnBatch:
        """Batch variant of :meth:`scan_columns` over the cached column views.

        Columns listed in *encode* (the operators pass the group-by keys) are
        served as interned :class:`~repro.engine.batch.EncodedColumn` pairs
        when they intern (see :meth:`column_interned`), so the group-by
        factorizes int codes instead of ``np.unique``-sorting strings.  The
        cost charged is still one full-width tuple scan (or one random access
        per requested row) — only the Python-level work is vectorized.
        """
        for name in columns:
            self.schema.column(name)
        encode_set = set(encode)

        def batch_column(name: str) -> Any:
            if name in encode_set:
                interned = self.column_interned(name)
                if interned is not None:
                    return interned
            return self._column_array(name)

        if positions is None:
            self.charge_tuple_read(None, accountant)
            return ColumnBatch(
                {name: batch_column(name) for name in columns},
                num_rows=self.num_rows,
            )
        self.charge_tuple_read(len(positions), accountant)
        gather = np.asarray(positions, dtype=np.int64)

        def gathered_column(name: str) -> Any:
            column = batch_column(name)
            if isinstance(column, EncodedColumn):
                return column.take(gather)
            return column[gather]

        return ColumnBatch(
            {name: gathered_column(name) for name in columns},
            num_rows=len(gather),
        )

    def all_rows(self) -> List[Dict[str, Any]]:
        """Return every row as a dict, without cost accounting (for conversions)."""
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]

    def snapshot(self) -> "MaterializedSnapshot":
        """A consistent read view of the table as of now.

        The row store mutates its tuples in place, so the snapshot
        materialises a copy of every row (cells are scalars — a shallow
        per-row copy is a deep copy of the data).
        """
        return MaterializedSnapshot(
            self.schema, [list(row) for row in self._rows]
        )

    # -- zone maps ----------------------------------------------------------------------

    def _bump_zone_epoch(self) -> None:
        self._zone_epoch = next_zone_epoch()

    @property
    def zone_epoch(self) -> int:
        """Monotonic counter bumped by every mutation (zone staleness token)."""
        return self._zone_epoch

    def column_zone(self, column: str) -> Optional[ColumnZone]:
        """The column's zone synopsis (cached per zone epoch).

        Computed from the cached column view: exact bounds, NULL count and
        NaN presence.  Columns whose value mix defeats ordering report
        ``None`` — no synopsis, never pruned.
        """
        cached = self._zone_cache.get(column)
        if cached is not None and cached[0] == self._zone_epoch:
            return cached[1]
        array = self._column_array(column)
        num_rows = len(array)
        low: Any = None
        high: Any = None
        null_count = 0
        has_nan = False
        if num_rows:
            if array.dtype.kind == "f":
                nan_mask = np.isnan(array)
                has_nan = bool(nan_mask.any())
                if not bool(nan_mask.all()):
                    low = float(np.nanmin(array))
                    high = float(np.nanmax(array))
            elif array.dtype.kind in "iub":
                low = array.min().item()
                high = array.max().item()
            elif array.dtype.kind == "U":
                # numpy's min/max ufuncs do not cover unicode dtypes.
                strings = array.tolist()
                low = min(strings)
                high = max(strings)
            else:
                non_null = [value for value in array.tolist() if value is not None]
                null_count = num_rows - len(non_null)
                reals = [
                    value
                    for value in non_null
                    if not (isinstance(value, float) and value != value)
                ]
                has_nan = len(reals) != len(non_null)
                if reals:
                    try:
                        low = min(reals)
                        high = max(reals)
                    except TypeError:
                        # Unorderable mix: no synopsis for this column.
                        self._zone_cache[column] = (self._zone_epoch, None)
                        return None
        zone = ColumnZone(
            min_value=low,
            max_value=high,
            null_count=null_count,
            num_rows=num_rows,
            has_nan=has_nan,
        )
        self._zone_cache[column] = (self._zone_epoch, zone)
        return zone

    # -- statistics helpers -----------------------------------------------------------

    def column_distinct_count(self, column: str) -> int:
        index = self._hash_indexes.get(column)
        if index is not None and self.schema.column(column).dtype not in _NAN_TYPES:
            # A hash index holds exactly the distinct values; only NaN (one
            # key per NaN object, one value to np.unique) could tell apart.
            return index.num_keys
        array = self._column_array(column)
        if array.dtype != object:
            return int(len(np.unique(array)))  # one NaN, like the dictionary
        values = array.tolist()
        if self.schema.column(column).dtype in _NAN_TYPES:
            values = map(group_key, values)
        return len(set(values))

    def column_min_max(self, column: str) -> Tuple[Any, Any]:
        """Smallest and largest non-NULL value in the one float order: NaN
        is the maximum if present and the minimum only if nothing else is."""
        array = self._column_array(column)
        if array.dtype.kind in "iufb" and len(array):
            return np.fmin.reduce(array).item(), np.maximum.reduce(array).item()
        values = [value for value in array.tolist() if value is not None]
        if not values:
            return None, None
        if self.schema.column(column).dtype in _NAN_TYPES:
            return reduce(least, values), reduce(greatest, values)
        return min(values), max(values)


class MaterializedSnapshot:
    """Consistent read view of a row-store table at snapshot time.

    Holds a materialised copy of the rows — the row store has no frozen
    segments to share, so snapshotting it is an O(n) copy.  Exposes the same
    minimal read surface as
    :class:`~repro.engine.column_store.ColumnStoreSnapshot`.
    """

    __slots__ = ("schema", "_rows", "num_rows")

    def __init__(self, schema: TableSchema, rows: List[List[Any]]) -> None:
        self.schema = schema
        self._rows = rows
        self.num_rows = len(rows)

    def column_values(self, column: str) -> List[Any]:
        index = self.schema.column_names.index(column)
        return [row[index] for row in self._rows]

    def rows(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        return [dict(zip(names, row)) for row in self._rows]
