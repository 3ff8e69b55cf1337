"""The column store backend.

Every column is kept dictionary-encoded (:mod:`repro.engine.compression`).
Scanning a single attribute therefore touches only that column's compressed
bytes — the source of the column store's advantage on analytical queries —
while reconstructing complete tuples, inserting rows and updating values pay
per-cell penalties (dictionary maintenance, random accesses across columns).

The sorted dictionary also provides the "implicit index" the paper mentions
for point and range predicates — its value -> code half.
:func:`translate_code_predicate` turns a value predicate —
``EQ/NE/LT/LE/GT/GE``, ``BETWEEN``, ``IN``, ``IS NULL`` and any
``AND``/``OR``/``NOT`` combination of them — into **code intervals** via
``bisect`` on the dictionary (the only step that can fail); no value is
decoded, and NULL (the reserved code 0) and NaN (sorted last) are excluded
or included exactly as the scalar evaluator would.  The intervals are one
description with two consumers (:meth:`ColumnStoreTable.filter_positions`):

* the **scan** — :func:`intervals_mask`, vectorised integer comparisons over
  the whole code array, O(rows);
* the **lookup** — the code -> rows half, which is *not* implicit: a
  column's position index (:class:`~repro.engine.compression
  .CompressedColumn`) holds the row positions grouped by code, so the rows
  of an interval are one slice of it, O(matches), counted exactly before
  any is read.  A selective conjunct drives, the remaining conjuncts test
  the picked rows only.  The column builds its index once the selective
  scans it served since its codes last changed have paid for it, and its
  own mutators drop it; there is nothing to configure.  A lookup is billed
  as the scan it replaces.

Predicates the translator cannot express (incomparable literal types,
columns it does not know) fall back to the decode-and-compare path, which
mirrors the row store's evaluator.  ``code_domain_disabled()`` forces that
fallback everywhere — the differential fuzzer and the scan benchmarks use it
as the reference path.

**Charging**: :meth:`ColumnStoreTable.charge_filter_scan` (from the
translation's verdict) and :meth:`ColumnStoreTable.charge_column_read` (from
row counts) are the only places a read is billed.  The readers bill through
them and then fetch; a caller that already knows the answer — a zone proof,
a shard gather — bills through the same two and skips the fetch.

**Delta/main split** (the paper's write-optimised store): DML inserts append
to an uncompressed per-column delta buffer (:class:`DeltaColumn`) — no
dictionary re-sort, no code remap, no zone rebuild — while the dictionary-
encoded *main* stays frozen between merges.  Scans union main and delta;
:meth:`ColumnStoreTable.merge_delta` re-encodes the delta into main
(explicitly, or when the delta reaches ``merge_threshold`` rows).  The merge
is modelled as asynchronous reorganisation and is charge-free; every *read*
charge and statistic is computed over the **logical** column (main rows plus
delta rows, main dictionary plus the delta's new values), so the
:class:`~repro.engine.timing.CostBreakdown` of any query is bit-identical to
the inline-write reference reachable via ``delta_writes_disabled()`` — the
delta is a wall-clock write optimisation, not a cost-model change.  Updates
and deletes merge first and then mutate main exactly as the reference does.

**Snapshot visibility**: :meth:`ColumnStoreTable.snapshot` seals the table
and returns a consistent read view; the next merge or in-place mutation
copies-on-write, so readers opened before a merge keep seeing the table as
of the snapshot while writers proceed.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine import context
from repro.engine.batch import (
    BatchColumn,
    ColumnBatch,
    EncodedColumn,
    decoded_array,
    evaluate_predicate_mask,
    values_to_array,
)
from repro.engine.compression import (
    CodeIntervals,
    CompressedColumn,
    code_width_bytes,
)
from repro.engine.indexes import check_new_keys, check_new_rows
from repro.engine.integrity import TableIntegrity, verify_on_scan_enabled
from repro.engine.schema import TableSchema
from repro.engine.timing import CostAccountant
from repro.engine.toggle import Toggle
from repro.engine.types import Store
from repro.engine.zonemap import ColumnZone, is_nan, next_zone_epoch, widen_zone
from repro.testing import faults
from repro.query.predicates import And, IsNull, Not, Or, Predicate, TruePredicate
from repro.query.ranges import ValueRanges, is_singleton, ranges_of

#: When a position list covers more than this fraction of the table, the
#: column store materialises the requested columns with a sequential scan of
#: the code arrays (late materialisation) instead of one random access per
#: cell.  The cost-model estimator uses the same threshold so that estimated
#: and measured costs follow the same access-path choice.
SCAN_MATERIALIZATION_THRESHOLD = 0.15

_CODE_DOMAIN = Toggle()


def code_domain_disabled():
    """Force the decode-and-compare fallback for every predicate.

    The differential fuzzer runs under this to pin result equivalence of the
    two paths, and the scan benchmarks use it as the reference measurement.
    """
    return _CODE_DOMAIN.disabled()


_DELTA_WRITES = Toggle()

#: Delta size (in rows) at which an insert triggers an automatic merge.
DEFAULT_MERGE_THRESHOLD = 65536


def delta_writes_enabled() -> bool:
    """Whether DML inserts append to the delta (vs inline dictionary encoding)."""
    return _DELTA_WRITES.enabled


def delta_writes_disabled():
    """Force the inline-write reference path for every insert.

    The recovery and differential fuzzers run the reference executions under
    this toggle: results *and* ``CostBreakdown`` charges must be bit-identical
    to the delta path.  (A delta already buffered keeps serving reads — the
    toggle governs where new writes go, not how existing rows are read.)
    """
    return _DELTA_WRITES.disabled()


class DeltaColumn:
    """Uncompressed append buffer of one column — the write-optimised delta.

    Appends are O(1): the value lands in a plain list, with no dictionary
    re-sort and no code remap (the frozen main column is untouched).
    Alongside the raw values the delta maintains exactly the aggregates the
    logical statistics need:

    * ``null_count`` and ``has_nan`` (zone synopses),
    * ``new_values`` — the distinct values absent from the frozen main
      dictionary (the logical distinct count is ``main + new``), and
    * ``representative`` — one orderable value, used by the predicate
      compiler to probe literal comparability so its fallback verdict matches
      what the merged dictionary would have produced.
    """

    __slots__ = (
        "values",
        "null_count",
        "has_nan",
        "new_values",
        "representative",
        "_array",
    )

    def __init__(self) -> None:
        self.values: List[Any] = []
        self.null_count = 0
        self.has_nan = False
        self.new_values: set = set()
        self.representative: Any = None
        self._array: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.values)

    def append(self, value: Any, main_dictionary) -> None:
        self.values.append(value)
        self._array = None
        if value is None:
            self.null_count += 1
        elif is_nan(value):
            self.has_nan = True
        else:
            self.representative = value
            if (
                value not in self.new_values
                and main_dictionary.encode_existing(value) is None
            ):
                self.new_values.add(value)

    def truncate(self, length: int, main_dictionary) -> None:
        """Roll back to the first *length* values (aborted batch insert)."""
        survivors = self.values[:length]
        self.__init__()
        for value in survivors:
            self.append(value, main_dictionary)

    def array(self) -> np.ndarray:
        """The buffered values as a numpy array (cached until the next append)."""
        if self._array is None:
            self._array = values_to_array(list(self.values))
        return self._array


class ColumnStoreSnapshot:
    """Consistent read view of a column-store table at snapshot time.

    Shares the (frozen) main column objects and copies the small delta
    buffers; :meth:`ColumnStoreTable.snapshot` seals the table so any later
    merge or in-place mutation swaps in fresh column objects (copy-on-write)
    instead of touching the shared ones.
    """

    __slots__ = ("schema", "_columns", "_delta_values", "num_rows")

    def __init__(
        self,
        schema: TableSchema,
        columns: Dict[str, CompressedColumn],
        delta_values: Dict[str, Tuple[Any, ...]],
        num_rows: int,
    ) -> None:
        self.schema = schema
        self._columns = columns
        self._delta_values = delta_values
        self.num_rows = num_rows

    def column_values(self, column: str) -> List[Any]:
        main = self._columns[column].values_array_at(None).tolist()
        return main + list(self._delta_values[column])

    def rows(self) -> List[Dict[str, Any]]:
        names = self.schema.column_names
        lists = [self.column_values(name) for name in names]
        return [dict(zip(names, values)) for values in zip(*lists)] if lists else []


def _concat_values(main: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Concatenate a main decode with a delta buffer, keeping object-ness.

    ``np.concatenate`` of an object part with a native part would try to
    coerce; building an object array preserves the exact values (NULLs
    included) the way a merged-dictionary decode would.
    """
    if main.dtype == object or delta.dtype == object:
        result = np.empty(len(main) + len(delta), dtype=object)
        result[: len(main)] = main
        result[len(main):] = delta
        return result
    return np.concatenate([main, delta])


#: The *apply* half of a translated predicate: ``apply(num_rows)`` is the
#: boolean mask over the code arrays of the columns it was translated
#: against; ``apply(len(picked), picked)`` the mask over their codes at the
#: row positions *picked* only.
CodeMask = Callable[..., np.ndarray]


def intervals_mask(
    codes: np.ndarray, intervals: CodeIntervals, num_codes: int
) -> np.ndarray:
    """Mask of the *codes* that lie in *intervals* — the one mask function.

    *num_codes* is the dictionary size: a bound at either end of the code
    space needs no comparison.
    """
    if not intervals:
        return np.zeros(len(codes), dtype=bool)
    if len(intervals) > 2:
        members = np.concatenate([np.arange(lo, hi) for lo, hi in intervals])
        return np.isin(codes, members)
    mask: Optional[np.ndarray] = None
    for lo, hi in intervals:
        if hi - lo == 1:
            part = codes == lo
        elif hi < num_codes:
            part = codes < hi
            if lo > 0:
                part &= codes >= lo
        elif lo > 0:
            part = codes >= lo
        else:
            part = np.ones(len(codes), dtype=bool)
        if mask is None:
            mask = part
        else:
            mask |= part
    return mask


def _union(intervals: Iterable[Tuple[int, int]]) -> CodeIntervals:
    """*intervals* in any order, overlapping or adjacent, as :data:`CodeIntervals`."""
    merged: List[Tuple[int, int]] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _lookup_pays(count: int, intervals: CodeIntervals, num_rows: int) -> bool:
    """Whether fetching *count* indexed rows beats scanning *num_rows* codes.

    The rows of one code are stored ascending and cost a copy; several
    codes' rows have to be sorted, which is what bounds the lookup.
    """
    if len(intervals) == 1 and intervals[0][1] - intervals[0][0] == 1:
        return count * 4 <= num_rows
    return count * count.bit_length() <= num_rows


class CodeLeaf:
    """One simple predicate, translated against one column's dictionary.

    The rows it matches are those whose code lies in ``intervals`` — or, for
    ``complement`` (``!=``), in none of them.  That one description serves
    both consumers: the mask (:func:`intervals_mask`) and, for a column with
    a position index, the lookup.  ``probed`` records whether translation
    cost a dictionary probe (the charge record).
    """

    __slots__ = ("column", "probed", "intervals", "complement")

    def __init__(self, column, probed: bool, intervals: CodeIntervals,
                 complement: bool) -> None:
        self.column = column
        self.probed = probed
        self.intervals = intervals
        self.complement = complement

    def __call__(self, num_rows: int, picked: Optional[np.ndarray] = None) -> np.ndarray:
        codes = self.column.codes
        if picked is not None:
            codes = codes[picked]
        mask = intervals_mask(codes, self.intervals, len(self.column.dictionary))
        if self.complement:
            np.logical_not(mask, out=mask)
        return mask


class CodeConjunction:
    """An ``AND`` (nested ones flattened), its conjuncts kept apart so that
    one of them can pick the rows and the others test only those."""

    __slots__ = ("children",)

    def __init__(self, children: List[CodeMask]) -> None:
        self.children = children

    def __call__(self, num_rows: int, picked: Optional[np.ndarray] = None) -> np.ndarray:
        mask = self.children[0](num_rows, picked)
        for child in self.children[1:]:
            mask &= child(num_rows, picked)
        return mask


def _can_drive(node: CodeMask) -> bool:
    """Whether a position index on the node's column could pick its rows."""
    return isinstance(node, CodeLeaf) and not node.complement


_first = itemgetter(0)


def translate_code_predicate(
    predicate: Predicate, columns: Mapping[str, CompressedColumn]
) -> Optional[Tuple[CodeMask, List[CodeLeaf]]]:
    """Translate *predicate* into the code domain — dictionaries only.

    Every value constant becomes code intervals through the sorted
    dictionaries (``bisect``, ``encode_existing``) — the only steps that can
    fail.  Returns ``(apply, leaves)`` or ``None`` when any part of the
    predicate cannot be answered in the code domain (unknown column,
    incomparable literal type); translation is all-or-nothing and
    charge-free, so a failed attempt never double-charges against the
    fallback path.  *leaves* list one :class:`CodeLeaf` per simple
    predicate, in evaluation order, to bill from; ``apply(num_rows)``
    evaluates the mask over the code arrays and may be skipped by a caller
    that already knows the scan's answer.

    Each leaf translates its :func:`~repro.query.ranges.ranges_of` (NULL,
    NaN and bound semantics live there): a dictionary holding NULL reserves
    code 0 for it and a NaN entry sorts last, so the ranges' flags add those
    codes and the intervals bisect only the real values.
    """
    leaves: List[CodeLeaf] = []
    apply = _translate(predicate, columns, leaves)
    if apply is None:
        return None
    return apply, leaves


def _translate(
    predicate: Predicate,
    columns: Mapping[str, CompressedColumn],
    leaves: List[CodeLeaf],
) -> Optional[CodeMask]:
    if isinstance(predicate, TruePredicate):
        return lambda num_rows, picked=None: np.ones(num_rows, dtype=bool)
    if isinstance(predicate, (And, Or)):
        children: List[CodeMask] = []
        for child in predicate.predicates:
            translated = _translate(child, columns, leaves)
            if translated is None:
                return None
            children.append(translated)
        if not children:
            return None
        if isinstance(predicate, And):
            return CodeConjunction([
                conjunct
                for child in children
                for conjunct in (
                    child.children if isinstance(child, CodeConjunction) else (child,)
                )
            ])

        if all(
            isinstance(child, CodeLeaf) and not child.complement
            and child.column is children[0].column
            for child in children
        ):
            # Ranges of one column OR-ed together are one leaf over the
            # union of their intervals (the children stay in *leaves*: the
            # bill is per simple predicate).
            return CodeLeaf(
                children[0].column, False,
                _union(interval for child in children for interval in child.intervals),
                False,
            )

        def disjunction(num_rows: int, picked: Optional[np.ndarray] = None) -> np.ndarray:
            mask = children[0](num_rows, picked)
            for child in children[1:]:
                mask |= child(num_rows, picked)
            return mask

        return disjunction
    if isinstance(predicate, Not):
        # The leaf masks already encode NULL semantics (a NULL row fails
        # every comparison), so plain inversion matches the scalar
        # evaluator: NOT(amount > 5) *does* match NULL rows.
        inner = _translate(predicate.predicate, columns, leaves)
        if inner is None:
            return None
        return lambda num_rows, picked=None: ~inner(num_rows, picked)
    ranges = ranges_of(predicate)
    if ranges is not None:
        column = columns.get(predicate.column)
        if column is None:
            return None
        try:
            intervals, complement = _leaf_codes(column.dictionary, ranges)
        except TypeError:
            # The dictionary cannot answer this predicate (incomparable
            # literal types); the whole translation falls back to the
            # value-level evaluator, which mirrors the row store exactly.
            return None
        leaf = CodeLeaf(
            column, not isinstance(predicate, IsNull), intervals, complement
        )
        leaves.append(leaf)
        return leaf
    return None


def _leaf_codes(dictionary, ranges: ValueRanges) -> Tuple[CodeIntervals, bool]:
    """``(intervals, complement)`` of a leaf's ranges over one dictionary.

    A point is looked up (``encode_existing``: an absent or incomparable
    literal has no code), every other interval end bisects the sorted
    dictionary — comparing a literal of an incomparable type raises
    ``TypeError`` out of here.  The NULL flag adds code 0 and the NaN flag
    the NaN code.  A ``!=`` is the complement of its literal's code and of
    code 0.
    """
    if ranges.hole is not None:
        code = dictionary.encode_existing(ranges.hole)
        found = [] if code is None else [(code, code + 1)]
        if dictionary.has_null:
            found.insert(0, (0, 1))
        return tuple(found), True
    found = []
    if ranges.null and dictionary.has_null:
        found.append((0, 1))
    nan_code = dictionary.nan_code
    if ranges.nan and nan_code is not None:
        found.append((nan_code, nan_code + 1))
    for interval in ranges.intervals:
        if is_singleton(interval):
            code = dictionary.encode_existing(interval[0])
            if code is not None:
                found.append((code, code + 1))
        else:
            found.append(dictionary.range_codes(*interval))
    return _union((lo, hi) for lo, hi in found if lo < hi), False


class ColumnStoreTable:
    """In-memory column-oriented, dictionary-compressed table."""

    store = Store.COLUMN

    #: Delta size at which an insert triggers an automatic merge (class-level
    #: default; tests and sessions override per instance).
    merge_threshold = DEFAULT_MERGE_THRESHOLD

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        self._columns: Dict[str, CompressedColumn] = {
            column.name: CompressedColumn(column.name, column.dtype)
            for column in schema.columns
        }
        self._num_rows = 0
        # Write-optimised delta: per-column uncompressed append buffers.
        # ``_num_rows`` always counts main + delta; delta rows occupy the
        # positions ``main_rows .. num_rows-1`` in append order, which merges
        # preserve (the delta is re-encoded onto the end of main).
        self._delta: Dict[str, DeltaColumn] = {
            name: DeltaColumn() for name in self._columns
        }
        self._delta_len = 0
        # Snapshot support: a sealed table copies-on-write before any
        # in-place mutation of its main columns (see ``snapshot``).
        self._sealed = False
        self._pk_column: Optional[str] = None
        if len(schema.primary_key) == 1:
            self._pk_column = schema.primary_key[0]
        # Primary-key uniqueness is checked against this set; the dictionary
        # alone is not sufficient because several rows may share a code.
        self._pk_values: set = set()
        # Zone-map state: every mutator bumps the epoch; per-column synopses
        # are rebuilt lazily on the next consult (see ``column_zone``).
        self._zone_epoch = next_zone_epoch()
        self._zone_cache: Dict[str, Tuple[int, ColumnZone]] = {}
        # Integrity state: per-unit content checksums keyed by the same zone
        # epoch, plus quarantine bookkeeping (see ``_integrity_check``).
        self.integrity = TableIntegrity(schema.name)

    # -- basic properties --------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def delta_rows(self) -> int:
        """Rows buffered in the write-optimised delta (not yet merged)."""
        return self._delta_len

    @property
    def main_rows(self) -> int:
        """Rows in the dictionary-encoded main store."""
        return self._num_rows - self._delta_len

    @property
    def row_width_bytes(self) -> int:
        return self.schema.row_width_bytes

    @property
    def memory_bytes(self) -> float:
        return sum(
            self._logical_compressed_bytes(name) for name in self._columns
        )

    def compression_rate(self, column: Optional[str] = None) -> float:
        """Compressed-to-raw size ratio for one column or the whole table.

        Computed over the **logical** column (main plus delta) so the ratio —
        and every estimate derived from it — is independent of merge timing.
        """
        if column is not None:
            if self._num_rows == 0:
                return 1.0
            raw = self._num_rows * self.schema.column(column).dtype.width_bytes
            return min(1.0, self._logical_compressed_bytes(column) / raw) if raw else 1.0
        if self._num_rows == 0:
            return 1.0
        raw = sum(
            self._num_rows * col.dtype.width_bytes for col in self.schema.columns
        )
        compressed = sum(
            self._logical_compressed_bytes(name) for name in self._columns
        )
        return min(1.0, compressed / raw) if raw else 1.0

    def has_index(self, column: str) -> bool:
        """Every column-store column has an implicit (dictionary) index."""
        return True

    def column_compressed_bytes(self, column: str) -> float:
        return self._logical_compressed_bytes(column)

    def column_code_bytes(self, column: str) -> float:
        """Bytes a sequential scan of *column* reads (code array only)."""
        return self._logical_code_bytes(column)

    # -- logical statistics (main + delta) ---------------------------------------

    def _logical_distinct(self, column: str) -> int:
        """Distinct count of the merged column, without merging.

        Main's dictionary size (NULL and NaN entries included) plus the
        delta's genuinely new values, NULL and NaN counted once each.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        distinct = compressed.num_distinct + len(delta.new_values)
        if delta.null_count and not compressed.dictionary.has_null:
            distinct += 1
        if delta.has_nan and compressed.dictionary.nan_code is None:
            distinct += 1
        return distinct

    def _logical_code_bytes(self, column: str) -> float:
        """Code-array bytes of the merged column: total rows at merged width."""
        return self._num_rows * code_width_bytes(self._logical_distinct(column))

    def _logical_compressed_bytes(self, column: str) -> float:
        distinct = self._logical_distinct(column)
        dict_bytes = distinct * self.schema.column(column).dtype.width_bytes
        return self._num_rows * code_width_bytes(distinct) + dict_bytes

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
        """The primary-key set, alone in a list (empty without a one-column key)."""
        return [] if self._pk_column is None else [self._pk_values]

    def append_rows(
        self, rows: Sequence[Mapping[str, Any]], accountant: Optional[CostAccountant] = None
    ) -> List[int]:
        """Append validated rows whose keys are new, returning their positions.

        Every cell pays the column-store insert penalty (dictionary lookup and
        potential re-encoding, delta append); the primary key additionally
        pays a uniqueness probe.  The *charges* are per row, but the physical
        append is columnar — one :meth:`CompressedColumn.extend` per column,
        so each dictionary merges the batch's new values in a single pass.  A
        value a dictionary unexpectedly rejects aborts the whole batch
        cleanly: nothing is inserted, no primary key is registered, and the
        error propagates.  NULL mixes freely with values — the dictionary
        reserves code 0 for it
        (:class:`~repro.engine.compression.ColumnDictionary`).
        """
        self._bump_zone_epoch()
        if self._pk_column is not None and accountant is not None:
            # One probe of this table's key set per row; a partitioned
            # table's probes of its other parts are not billed (the cost
            # model prices an insert into one store).
            for _ in rows:
                accountant.charge_index_probe()
        positions = []
        if rows:
            if _DELTA_WRITES.enabled:
                self._extend_delta(rows)
            else:
                self._unseal_for_write()
                self._extend_columns(rows)
            for row in rows:
                if self._pk_column is not None:
                    self._pk_values.add(row[self._pk_column])
                if accountant is not None:
                    accountant.charge_cs_value_inserts(self.schema.num_columns)
                positions.append(self._num_rows)
                self._num_rows += 1
        if self._delta_len >= self.merge_threshold:
            self.merge_delta()
        return positions

    def _extend_columns(self, pending: Sequence[Mapping[str, Any]]) -> None:
        """One :meth:`CompressedColumn.extend` per column, atomically.

        If a column unexpectedly rejects its values the already-extended
        columns are truncated back, so the table never ends up with
        misaligned column lengths.
        """
        extended: List[Tuple[CompressedColumn, int]] = []
        try:
            for name, column in self._columns.items():
                extended.append((column, len(column)))
                column.extend([row[name] for row in pending])
        except Exception:
            for column, old_size in extended:
                column.truncate(old_size)
            raise

    def _extend_delta(self, pending: Sequence[Mapping[str, Any]]) -> None:
        """Delta-path twin of :meth:`_extend_columns`, with the same rollback.

        If a column rejects one of its values mid-batch the already-extended
        delta buffers are truncated back, so the buffers never end up with
        misaligned lengths.
        """
        extended: List[Tuple[str, int]] = []
        try:
            for name, delta in self._delta.items():
                extended.append((name, len(delta)))
                dictionary = self._columns[name].dictionary
                for row in pending:
                    delta.append(row[name], dictionary)
        except Exception:
            for name, old_len in extended:
                self._delta[name].truncate(old_len, self._columns[name].dictionary)
            raise
        self._delta_len += len(pending)

    def merge_delta(self) -> int:
        """Re-encode the delta into main; returns the number of rows merged.

        The merge builds aside and swaps: each main column is cloned, the
        clone absorbs the delta values in one :meth:`CompressedColumn.extend`
        pass, and only then does the table switch over.  A crash at any of
        the ``merge.*`` fault points therefore leaves the table consistent
        (either entirely pre-merge or entirely post-merge), and snapshots
        keep reading the old column objects.  Dictionary accumulation is
        history-order independent, so the post-merge physical state is
        bit-identical to inline insertion — the basis of the
        ``delta_writes_disabled()`` equivalence contract.  The merge itself
        is charge-free: it models asynchronous reorganisation, and all read
        charges are logical (main + delta) anyway.
        """
        if self._delta_len == 0:
            return 0
        faults.fault_point("merge.before")
        merged = self._delta_len
        rebuilt: Dict[str, CompressedColumn] = {}
        for name, column in self._columns.items():
            clone = column.clone()
            clone.extend(list(self._delta[name].values))
            rebuilt[name] = clone
        faults.fault_point("merge.after_build")
        self._columns = rebuilt
        self._delta = {name: DeltaColumn() for name in self._columns}
        self._delta_len = 0
        self._sealed = False
        self._bump_zone_epoch()
        faults.fault_point("merge.after_swap")
        return merged

    def _unseal_for_write(self) -> None:
        """Copy-on-write before an in-place mutation of the main columns.

        No-op unless a :meth:`snapshot` sealed the table; then every main
        column is cloned so the snapshot keeps the originals.  (Delta appends
        never need this — snapshots copy the delta values outright.)
        """
        if self._sealed:
            self._columns = {
                name: column.clone() for name, column in self._columns.items()
            }
            self._sealed = False

    def snapshot(self) -> ColumnStoreSnapshot:
        """A consistent read view of the table as of now (see module docs)."""
        self._sealed = True
        return ColumnStoreSnapshot(
            self.schema,
            dict(self._columns),
            {name: tuple(delta.values) for name, delta in self._delta.items()},
            self._num_rows,
        )

    def check_load(self, columns: Mapping[str, Sequence[Any]]) -> Optional[set]:
        """Raise if loading *columns* would duplicate a primary key.

        Returns the batch's key set (``None`` without a primary key).
        """
        if self._pk_column is None:
            return None
        return check_new_keys(
            self.schema.name, columns[self._pk_column], self.key_sets()
        )

    def load_columns(self, columns: Mapping[str, Sequence[Any]], num_rows: int) -> None:
        """Append *num_rows* validated rows given as column lists — the one loader.

        Loads, store conversions and partition moves all come here, with
        values already coerced.  A load that would duplicate a primary key
        raises before anything changes.  An empty table builds each
        dictionary in one bulk pass; a populated one merges its delta and
        extends every column in one pass — the physical state a DML insert
        of the same rows reaches at its next merge (bulk loads are
        synchronous reorganisation points and never leave a delta behind).
        """
        if not num_rows:
            return
        keys = self.check_load(columns)
        self.merge_delta()
        self._unseal_for_write()
        self._bump_zone_epoch()
        empty = self._num_rows == 0
        for spec in self.schema.columns:
            column = self._columns[spec.name]
            if empty:
                # A column that cannot hold NULL holds no None, and a
                # VARCHAR column only str: all the build reads from a type
                # set is known without a pass.
                column.bulk_load(
                    columns[spec.name],
                    None if spec.nullable else {spec.dtype._exact_type},
                )
            else:
                column.extend(columns[spec.name])
        self._num_rows += num_rows
        if keys is not None:
            if self._pk_values:
                self._pk_values |= keys
            else:
                self._pk_values = keys

    def update_rows(
        self,
        positions: Sequence[int],
        assignments: Mapping[str, Any],
        accountant: Optional[CostAccountant] = None,
    ) -> int:
        """Update the coerced *assignments* on the rows at *positions*.

        Dictionary-compressed column stores cannot modify a row in place: an
        update invalidates the old row version and re-appends a complete new
        version to the delta.  Accordingly every affected row is charged the
        update penalty for *all* of the table's columns, which is the main
        reason updates favour the row store in the paper's cost model.

        The caller coerced the values and checked a key change
        (:func:`~repro.engine.table.checked_assignments`).  Updates merge the
        delta first (charge-free, position-preserving) and then mutate main
        exactly as the pre-delta pipeline did — *positions* computed over
        the union before the merge stay valid.  An update of no rows is a
        no-op: no merge, no copy-on-write, no zone-epoch bump.
        """
        if not assignments or len(positions) == 0:
            return 0
        self.merge_delta()
        self._unseal_for_write()
        self._bump_zone_epoch()
        for position in positions:
            for name, value in assignments.items():
                if name == self._pk_column:
                    self._pk_values.discard(self._columns[name].value_at(position))
                    self._pk_values.add(value)
                self._columns[name].set_value(position, value)
            if accountant is not None:
                accountant.charge_cs_value_updates(self.schema.num_columns)
        return len(positions)

    def delete_rows(
        self, positions: Sequence[int], accountant: Optional[CostAccountant] = None
    ) -> int:
        """Physically remove the rows at *positions* (rebuilds every column).

        The rebuild is columnar: each column masks its code array and shrinks
        its dictionary to the surviving codes — no row is ever reconstructed
        as a dict.  Like updates, deletes merge the delta first.
        """
        if len(positions) == 0:
            return 0
        self.merge_delta()
        self._unseal_for_write()
        self._bump_zone_epoch()
        doomed = np.unique(np.asarray(positions, dtype=np.int64))
        if accountant is not None:
            accountant.charge_cs_value_updates(len(doomed) * self.schema.num_columns)
        in_range = doomed[(doomed >= 0) & (doomed < self._num_rows)]
        if len(in_range):
            keep_mask = np.ones(self._num_rows, dtype=bool)
            keep_mask[in_range] = False
            if self._pk_column is not None:
                removed_keys = self._columns[self._pk_column].values_at(in_range)
                self._pk_values.difference_update(removed_keys)
            for column in self._columns.values():
                kept_codes = column.codes[keep_mask]
                column.load_codes(column.dictionary.rebuild_from_codes(kept_codes)
                                  if len(kept_codes)
                                  else column.dictionary.bulk_build([]))
            self._num_rows = int(keep_mask.sum())
        return len(doomed)

    # -- reads -----------------------------------------------------------------------

    def _integrity_check(self, columns) -> None:
        """Integrity gate of every read entry point.

        Quarantined units raise :class:`~repro.errors.DataCorruptionError`
        on every access; with scan verification enabled each unit is
        additionally checksum-verified at most once per (column, zone
        epoch) — a mutation bumps the epoch and records a fresh baseline,
        so detection means the content changed *without* a mutation.
        Verification charges zero simulated cost (no accountant involved);
        only the current context's integrity counters move.
        """
        state = self.integrity
        for name in columns:
            state.check_quarantine(name)
        if not verify_on_scan_enabled():
            return
        epoch = self._zone_epoch
        for name in columns:
            if not state.scan_pending(name, epoch):
                continue
            compressed = self._columns[name]
            if not state.verify(
                name, compressed.codes, compressed.dictionary, epoch
            ):
                state.check_quarantine(name)  # raises the typed error

    def filter_positions(
        self,
        predicate: Optional[Predicate],
        accountant: Optional[CostAccountant] = None,
        proven_empty: bool = False,
    ) -> Optional[np.ndarray]:
        """Return positions of rows matching *predicate* (``None`` = all rows).

        Always ascending ``int64``: per-group sums accumulate in row order
        and ``LIMIT`` takes a prefix.  Predicates translate to code intervals
        through the sorted dictionaries (:func:`translate_code_predicate` —
        value -> code is the implicit index) and main's rows are found one
        of two ways (:meth:`_main_positions`): **looked up** in a column's
        position index, reading what the predicate selects, or **scanned**
        as vectorized integer comparisons over the code arrays.  The bill is
        the same either way — :meth:`charge_filter_scan` prices the scan the
        lookup replaces, before anything is evaluated.  Delta rows are
        evaluated in the value domain and appended.  Predicates the
        translator cannot express fall back to decode-and-compare, which
        additionally pays per-value decode costs for the referenced columns.
        *proven_empty* carries a zone-map proof that no row matches: the
        scan is billed all the same, and skipped.
        """
        if predicate is None:
            return None
        delta_len = self._delta_len
        if not proven_empty:
            self._integrity_check(
                name for name in sorted(predicate.columns()) if name in self._columns
            )
            if accountant is not None and delta_len:
                accountant.record_delta_scan(
                    self.schema.name, self._num_rows - delta_len, delta_len
                )
        apply = self.charge_filter_scan(predicate, accountant)
        if proven_empty:
            return np.empty(0, dtype=np.int64)
        if apply is not None:
            main_rows = self._num_rows - delta_len
            positions = self._main_positions(apply, main_rows)
            if delta_len:
                # The delta portion is evaluated in the value domain —
                # result-equivalent to the code domain (the differential
                # fuzzer pins this) and charge-free: the scan charge already
                # covers the full logical column.
                arrays = {
                    name: self._delta[name].array()
                    for name in predicate.columns()
                }
                delta_mask = evaluate_predicate_mask(predicate, arrays, delta_len)
                positions = np.concatenate(
                    [positions, np.flatnonzero(delta_mask) + main_rows]
                )
            return positions
        # Fallback: decode the referenced columns (vectorized gather) and
        # evaluate the predicate over the value arrays; predicates the
        # vectorized evaluator cannot express run the row-at-a-time loop.
        arrays = {
            name: self._union_values_array(name)
            for name in sorted(predicate.columns())
        }
        mask = evaluate_predicate_mask(predicate, arrays, self._num_rows)
        return np.nonzero(mask)[0].astype(np.int64)

    @staticmethod
    def _main_positions(apply: CodeMask, main_rows: int) -> np.ndarray:
        """Ascending main positions matching the translated predicate.

        The conjuncts that are plain interval leaves can *drive*: with a
        position index on its column, the most selective of them picks its
        rows — their exact count is known beforehand — and the other
        conjuncts test only those; :func:`_lookup_pays` decides whether that
        beats the scan.  Otherwise every conjunct scans its code array, and
        the driver the scan would have wanted is told so
        (:meth:`~repro.engine.compression.CompressedColumn.note_served_scan`)
        — that is what builds indexes.  ``NOT``, ``!=`` and an ``OR`` across
        columns at the top always scan.
        """
        conjuncts = apply.children if isinstance(apply, CodeConjunction) else [apply]
        drivers = [conjunct for conjunct in conjuncts if _can_drive(conjunct)]
        for leaf in drivers:
            if not leaf.intervals:
                return np.empty(0, dtype=np.int64)
        indexed = [
            (leaf.column.indexed_rows(leaf.intervals), leaf)
            for leaf in drivers if leaf.column.has_position_index
        ]
        if indexed:
            count, driver = min(indexed, key=_first)
            if _lookup_pays(count, driver.intervals, main_rows):
                context.current().counters.position_index_scans += 1
                picked = driver.column.indexed_positions(driver.intervals)
                for conjunct in conjuncts:
                    if conjunct is not driver:
                        picked = picked[conjunct(len(picked), picked)]
                return picked
        masks = [conjunct(main_rows) for conjunct in conjuncts]
        unindexed = [
            (leaf, mask) for leaf, mask in zip(conjuncts, masks)
            if _can_drive(leaf) and not leaf.column.has_position_index
        ]
        # A lone conjunct's count is the length of the answer; several are
        # counted before the AND folds them into the first mask.
        counted = [] if len(masks) == 1 else [
            (int(np.count_nonzero(mask)), leaf) for leaf, mask in unindexed
        ]
        mask = masks[0]
        for other in masks[1:]:
            mask &= other
        positions = np.nonzero(mask)[0].astype(np.int64, copy=False)
        if len(masks) == 1 and unindexed:
            counted = [(len(positions), unindexed[0][0])]
        if counted:
            count, driver = min(counted, key=_first)
            if _lookup_pays(count, driver.intervals, main_rows):
                driver.column.note_served_scan()
        return positions

    def charge_filter_scan(
        self, predicate: Predicate, accountant: Optional[CostAccountant]
    ) -> Optional[CodeMask]:
        """Bill the filter scan of *predicate* — the one home of that charge.

        A function of the table's shape and the translation's verdict, never
        of how many rows match.  Returns the translated mask function
        (``None`` = decode fallback) for a caller that goes on to evaluate;
        one that already holds the answer bills here and stops.
        """
        apply: Optional[CodeMask] = None
        leaves: List[CodeLeaf] = []
        if _CODE_DOMAIN.enabled and (
            not self._delta_len or self._delta_compile_ok(predicate)
        ):
            translated = translate_code_predicate(predicate, self._columns)
            if translated is not None:
                apply, leaves = translated
        if accountant is None:
            return apply
        if apply is not None:
            for leaf in leaves:
                if leaf.probed:
                    # Dictionary lookup of the literal(s).
                    accountant.charge_index_probe()
                accountant.charge_sequential_read(
                    "column_scan", self._logical_code_bytes(leaf.column.name)
                )
                accountant.charge_vector_compares(self._num_rows)
            return apply
        referenced = sorted(predicate.columns())
        for name in referenced:
            accountant.charge_sequential_read(
                "column_scan", self._logical_code_bytes(name)
            )
        accountant.charge_dict_decodes(self._num_rows * len(referenced))
        accountant.charge_predicate_evals(self._num_rows)
        return None

    def _delta_compile_ok(self, predicate: Predicate) -> bool:
        """Whether code-domain compilation stays valid with a non-empty delta.

        Compilation over the frozen main dictionary can only diverge from the
        inline reference (which would have merged the delta's values into the
        dictionary) in its *TypeError verdict*: an interval end bisects the
        dictionary values, and a literal comparable with main's values may be
        incomparable with the delta's (or vice versa — main empty, delta
        populated).  Column values are dtype-coerced and therefore
        homogeneous, so probing every finite end of a non-point interval
        against one representative delta value reproduces the merged
        dictionary's verdict exactly; points are looked up, never bisected.
        """
        if isinstance(predicate, (And, Or)):
            return all(self._delta_compile_ok(child) for child in predicate.predicates)
        if isinstance(predicate, Not):
            return self._delta_compile_ok(predicate.predicate)
        ranges = ranges_of(predicate)
        if ranges is None or ranges.hole is not None:
            return True
        delta = self._delta.get(predicate.column)
        if delta is None or delta.representative is None:
            return True
        try:
            for interval in ranges.intervals:
                if not is_singleton(interval):
                    for end in interval[:2]:
                        if end is not None:
                            end < delta.representative  # noqa: B015 — probe for TypeError
        except TypeError:
            return False
        return True

    def fetch_rows(
        self,
        positions: Optional[Sequence[int]],
        columns: Optional[Sequence[str]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Dict[str, Any]]:
        """Materialise (reconstruct) tuples from the requested columns.

        Tuple reconstruction pays one random access + decode per requested
        cell, which is why selecting many attributes of many rows is the
        column store's weak spot.
        """
        selected = tuple(columns) if columns is not None else self.schema.column_names
        for name in selected:
            self.schema.column(name)
        self._integrity_check(selected)
        if positions is None:
            gather = None
            num_positions = self._num_rows
        else:
            gather = np.asarray(positions, dtype=np.int64)
            num_positions = len(gather)
        for name in selected:
            self.charge_column_read(name, num_positions, accountant)
        batch = ColumnBatch(
            {name: self._union_values_array(name, gather) for name in selected},
            num_rows=num_positions,
        )
        return batch.to_rows()

    def charge_column_read(
        self,
        column: str,
        num_positions: Optional[int],
        accountant: Optional[CostAccountant],
    ) -> None:
        """Bill reading *column* — the one home of the column-read charge.

        ``num_positions=None`` is the unfiltered read: a sequential scan of
        the codes plus a decode per value.  An int materialises that many
        positions: sparse position lists pay one tuple-reconstruction (random
        access + decode) per value; dense ones are served by a sequential
        scan of the code array plus a decode per qualifying value, which is
        how a real column store late-materialises wide selections.
        """
        if accountant is None:
            return
        if num_positions is None:
            num_positions = self._num_rows
        elif self._num_rows == 0:
            return
        elif num_positions <= self._num_rows * SCAN_MATERIALIZATION_THRESHOLD:
            accountant.charge_tuple_reconstructions(num_positions)
            return
        accountant.charge_sequential_read(
            "column_scan", self._logical_code_bytes(column)
        )
        accountant.charge_dict_decodes(num_positions)

    def column_values(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> List[Any]:
        """Return the values of one column, decoding from the dictionary.

        A full-column read is a sequential scan of the compressed codes plus a
        decode per value — the column store's fast path for aggregation.
        """
        return self.column_array(column, positions, accountant).tolist()

    def column_array(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> np.ndarray:
        """Vectorized :meth:`column_values`: decode straight into a numpy array.

        Charges are identical to the scalar accessor — the batch pipeline is a
        wall-clock optimisation, not a cost-model change.
        """
        return decoded_array(self.column_encoded(column, positions, accountant))

    def _union_values_array(
        self, column: str, positions: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Decoded values across main and delta (all rows or a gather).

        With an empty delta this is exactly the main column's decode.
        Otherwise main positions decode through the dictionary and delta
        positions index the raw value buffer; either part being an object
        array (NULL present, or an empty dictionary) promotes the result to
        object, mirroring what decoding the merged dictionary would yield.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        if not len(delta):
            return compressed.values_array_at(positions)
        main_size = len(compressed)
        if positions is None:
            return _concat_values(compressed.values_array_at(None), delta.array())
        positions = np.asarray(positions, dtype=np.int64)
        in_main = positions < main_size
        if in_main.all():
            return compressed.values_array_at(positions)
        delta_array = delta.array()
        if not in_main.any():
            return delta_array[positions - main_size]
        main_part = compressed.values_array_at(positions[in_main])
        delta_part = delta_array[positions[~in_main] - main_size]
        if main_part.dtype == object or delta_part.dtype == object:
            result = np.empty(len(positions), dtype=object)
        else:
            result = np.empty(
                len(positions), dtype=np.result_type(main_part, delta_part)
            )
        result[in_main] = main_part
        result[~in_main] = delta_part
        return result

    def compressed_column(self, column: str) -> CompressedColumn:
        """The main store's compressed column (shard publication reads it)."""
        return self._columns[column]

    def column_encoded(
        self,
        column: str,
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> BatchColumn:
        """Late-materialized read: the column's ``(codes, dictionary)`` pair.

        No value is decoded — downstream operators work on the codes and the
        dictionary is consulted only for the values that reach the result.
        The *charges* are those of a decoded read (including the per-value
        decode charge): carrying codes is a wall-clock optimisation of the
        simulator, not a cost-model change — the simulated system still
        decodes each value it returns.  :meth:`column_array` is this read,
        decoded.

        With a non-empty delta the requested rows span two encodings, so the
        read degrades to a decoded value array (still a :data:`BatchColumn`;
        every consumer handles both shapes).  Charges are unaffected — they
        were always the decode charges.

        A whole-column read (no *positions*, no delta) also carries the
        column's derived state (:attr:`EncodedColumn.derived`), which is not
        billed either.
        """
        self._integrity_check((column,))
        self.charge_column_read(
            column, None if positions is None else len(positions), accountant
        )
        if self._delta_len:
            return self._union_values_array(
                column,
                None if positions is None else np.asarray(positions, dtype=np.int64),
            )
        compressed = self._columns[column]
        return EncodedColumn(compressed.codes_at(positions), compressed.dictionary,
                             compressed.derived if positions is None else None)

    def scan_columns(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> Dict[str, List[Any]]:
        """Read several columns; each column is scanned (or reconstructed) separately."""
        return {
            name: self.column_values(name, positions, accountant) for name in columns
        }

    def scan_batch(
        self,
        columns: Sequence[str],
        positions: Optional[Sequence[int]] = None,
        accountant: Optional[CostAccountant] = None,
    ) -> ColumnBatch:
        """Batch variant of :meth:`scan_columns`: one decoded array per column."""
        if positions is not None and not isinstance(positions, np.ndarray):
            positions = np.asarray(positions, dtype=np.int64)
        num_rows = self._num_rows if positions is None else len(positions)
        return ColumnBatch(
            {name: self.column_array(name, positions, accountant) for name in columns},
            num_rows=num_rows,
        )

    def all_rows(self) -> List[Dict[str, Any]]:
        """Return every row as a dict, without cost accounting (for conversions)."""
        names = self.schema.column_names
        self._integrity_check(names)
        batch = ColumnBatch(
            {name: self._union_values_array(name, None) for name in names},
            num_rows=self._num_rows,
        )
        return batch.to_rows()

    # -- zone maps ----------------------------------------------------------------------

    def _bump_zone_epoch(self) -> None:
        self._zone_epoch = next_zone_epoch()

    @property
    def zone_epoch(self) -> int:
        """Monotonic counter bumped by every mutation (zone staleness token)."""
        return self._zone_epoch

    def column_zone(self, column: str) -> ColumnZone:
        """The column's zone synopsis (cached per zone epoch).

        The bounds are **exact** over the stored rows: in-place updates can
        orphan dictionary entries, so instead of trusting the dictionary's
        value bounds the synopsis reduces the live code array (one
        vectorized int64 pass, cached per zone epoch) and decodes only the
        two extreme codes — the sorted dictionary makes the smallest live
        value code the minimum value.  Exact bounds are what allows
        zero-scan MIN/MAX answers to come straight from the zone; the NULL
        count is maintained incrementally over the reserved code 0.
        """
        cached = self._zone_cache.get(column)
        if cached is not None and cached[0] == self._zone_epoch:
            return cached[1]
        compressed = self._columns[column]
        dictionary = compressed.dictionary
        live = compressed.codes
        if dictionary.has_null:
            live = live[live != 0]
        has_nan = False
        nan_code = dictionary.nan_code
        if nan_code is not None and len(live):
            nan_mask = live == nan_code
            has_nan = bool(nan_mask.any())
            if has_nan:
                live = live[~nan_mask]
        if len(live):
            low = dictionary.decode(int(live.min()))
            high = dictionary.decode(int(live.max()))
        else:
            low = high = None
        zone = ColumnZone(
            min_value=low,
            max_value=high,
            null_count=compressed.null_count,
            num_rows=self._num_rows - self._delta_len,
            has_nan=has_nan,
        )
        delta = self._delta[column]
        if len(delta):
            # Fold the delta values into the main synopsis — exact bounds,
            # exactly as if the delta had been merged.  ``widen_zone`` bails
            # only on an unorderable mix; dtype coercion makes that next to
            # impossible, but if it happens the merge makes it moot.
            widened = widen_zone(zone, delta.values, len(delta))
            if widened is None:
                self.merge_delta()
                return self.column_zone(column)
            zone = widened
        self._zone_cache[column] = (self._zone_epoch, zone)
        return zone

    # -- statistics helpers -----------------------------------------------------------

    def column_distinct_count(self, column: str) -> int:
        return self._logical_distinct(column)

    def column_min_max(self, column: str) -> Tuple[Any, Any]:
        """Bounds of the merged dictionary's entries (NaN sorts last).

        Mirrors reading ``dictionary.values[0]`` / ``values[-1]`` off the
        merged dictionary: NULL is excluded, and a NaN entry — main's or one
        the delta introduces — is the maximum because the sorted dictionary
        places it last.
        """
        compressed = self._columns[column]
        delta = self._delta[column]
        dict_values = compressed.dictionary.real_values
        if not len(delta):
            if not dict_values:
                return None, None
            return dict_values[0], dict_values[-1]
        nan_value = None
        if dict_values and is_nan(dict_values[-1]):
            nan_value = dict_values[-1]
            dict_values = dict_values[:-1]
        if delta.has_nan and nan_value is None:
            nan_value = float("nan")
        bounds: List[Any] = []
        if dict_values:
            bounds.extend((dict_values[0], dict_values[-1]))
        if delta.new_values:
            new_sorted = sorted(delta.new_values)
            bounds.extend((new_sorted[0], new_sorted[-1]))
        if not bounds:
            if nan_value is not None:
                return nan_value, nan_value
            return None, None
        low = min(bounds)
        high = max(bounds) if nan_value is None else nan_value
        return low, high
