"""Columnar batches: the vectorized interchange format of the read pipeline.

A :class:`ColumnBatch` is a set of aligned columns plus optional null masks.
Each column is either

* a plain numpy **value array**, or
* an :class:`EncodedColumn` — a ``(codes, dictionary)`` pair carried straight
  from the column store's dictionary encoding (**late materialisation**).

The codes-vs-values contract: producers hand the executor whichever
representation they already have (the column store its int64 code arrays, the
row store its cached value arrays); operators work on the representation they
receive — group-by uses dictionary codes as group ids without decoding, hash
joins probe on code arrays when both sides share a dictionary, and filtered
column-store scans are compiled to **code-domain** masks in the storage
layer (:func:`repro.engine.column_store.translate_code_predicate`: value
predicates become code intervals/memberships via ``bisect`` on the sorted
dictionary, zone maps skip partitions the predicate provably cannot match) —
and the dictionary is consulted only for the values that reach the result:
group keys decode once per *group*, and full decodes happen only at the
``QueryResult`` boundary (:meth:`ColumnBatch.to_rows` / ``fetch_rows``).
Consumers that need values call :meth:`ColumnBatch.column` (decodes encoded
columns, one fancy-indexing gather, cached); consumers that can exploit
codes call :meth:`ColumnBatch.raw` and check for :class:`EncodedColumn`.
Row dicts are materialised lazily, only when a result actually needs rows.

A partitioned table's parts meet in one code domain: :meth:`ColumnBatch.concat`
carries a part as the first encoded part's codes when that sorted dictionary
already holds every value of the part (integer, boolean and string columns;
:func:`sorted_positions` is both dictionary classes' value→code lookup), so
a populated hot partition leaves main's codes encoded.  Floats, object
arrays and values the dictionary lacks decode every part instead.

NULL handling is dictionary-aware end-to-end: a dictionary holding NULL
reserves code 0 for it (:mod:`repro.engine.compression`), so NULL rows
travel through encoded columns, factorize into their own group, and are
excluded from (or included in, for ``IS NULL``/``IN (… NULL)``) code-domain
predicate masks exactly as the scalar evaluator dictates.

The module also hosts :func:`vectorized_value_mask`, the value-level
vectorized predicate evaluator shared by the row store's full scan and the
column store's decode-and-compare fallback (also reachable via
``code_domain_disabled()`` as the differential reference path).  It mirrors
the row-at-a-time semantics of :mod:`repro.query.predicates` exactly
(``NULL`` never matches a comparison, ``IS NULL`` matches only ``None``);
predicates it cannot express vectorially return ``None`` and the caller
falls back to the scalar loop.

Wall-clock optimisation only: producing or consuming batches never changes
what a query costs — all :class:`~repro.engine.timing.CostAccountant` charges
are made by the storage backends and operators exactly as in the scalar
pipeline.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.query.predicates import And, Not, Or, Predicate, TruePredicate
from repro.query.ranges import ValueRanges, is_singleton, ranges_of

__all__ = [
    "ColumnBatch",
    "EncodedColumn",
    "codes_in",
    "decoded_array",
    "evaluate_predicate_mask",
    "null_mask_of",
    "sorted_positions",
    "take_column",
    "values_to_array",
    "vectorized_value_mask",
]


def values_to_array(values: Sequence[Any]) -> np.ndarray:
    """Convert a Python value sequence to the best-fitting numpy array.

    Numeric and string columns get native dtypes (vectorized reductions and
    comparisons); anything numpy cannot represent natively — ``None`` mixed
    into a column, dates, mixed types — falls back to an object array, which
    still supports elementwise comparisons and fancy-indexed gathers.
    """
    if isinstance(values, np.ndarray):
        return values
    try:
        array = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        return np.asarray(values, dtype=object)
    if array.ndim == 1:
        if array.dtype.kind in "Oiufb":
            return array
        if array.dtype.kind == "U" and array.tolist() == list(values):
            # The round trip guards numpy's fixed-width 'U' dtype silently
            # truncating trailing NUL characters ('0\x00' -> '0'); strings
            # that don't survive it stay Python objects.
            return array
    # Datetimes, timedeltas, ragged inputs etc.: keep the Python objects.
    result = np.empty(len(values), dtype=object)
    result[:] = values
    return result


def null_mask_of(array: np.ndarray) -> Optional[np.ndarray]:
    """Boolean mask of NULL (``None``) entries, or ``None`` when there are none.

    Only object arrays can hold ``None``; native arrays never have nulls.
    """
    if array.dtype != object:
        return None
    mask = np.fromiter((value is None for value in array), dtype=bool, count=len(array))
    return mask if mask.any() else None


class EncodedColumn:
    """A dictionary-compressed column travelling through the batch pipeline.

    Holds the int64 ``codes`` array together with the (sorted)
    ``dictionary`` that decodes them — the column store's native
    representation, carried through the executor unchanged so that group-by,
    joins and row selection can operate on the compact codes.  ``values``
    decodes on first use (one fancy-indexing gather) and caches the result
    on this object only; operators that only need codes never trigger it.

    ``derived`` is the column's
    :class:`~repro.engine.compression.DerivedState` when ``codes`` are a
    column's whole code array, as a whole-column read of the column store
    returns them; the executor then takes its group summary and float weights
    from there instead of recomputing them.  Everything else — a row
    selection (:meth:`take`), a stack of several parts, shard slices,
    row-store and hot parts — carries ``None``.
    """

    __slots__ = ("codes", "dictionary", "derived", "_values")

    def __init__(self, codes: np.ndarray, dictionary, derived=None) -> None:
        self.codes = codes
        self.dictionary = dictionary
        self.derived = derived
        self._values: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def values(self) -> np.ndarray:
        """The decoded value array (gathered lazily, cached)."""
        if self._values is None:
            self._values = self.dictionary.decode_array(self.codes)
        return self._values

    def tolist(self) -> List[Any]:
        return self.values.tolist()

    def take(self, selector: np.ndarray) -> "EncodedColumn":
        """Row selection without decoding: gather the codes only."""
        return EncodedColumn(self.codes[selector], self.dictionary)

    def factorize(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(distinct_codes, inverse)`` in O(n) — no value sort.

        Because the dictionary is sorted, the codes already carry the value
        order: marking the used codes and compacting them with a running sum
        yields exactly what ``np.unique(values, return_inverse=True)`` would,
        without decoding a single value.
        """
        codes = self.codes
        used = np.zeros(max(len(self.dictionary), 1), dtype=bool)
        used[codes] = True
        remap = np.cumsum(used) - 1
        return np.nonzero(used)[0], remap[codes]


BatchColumn = Union[np.ndarray, EncodedColumn]


def decoded_array(values: BatchColumn) -> np.ndarray:
    """The value array of a batch column (decoding if it is encoded)."""
    return values.values if isinstance(values, EncodedColumn) else values


def take_column(values: BatchColumn, selector: np.ndarray) -> BatchColumn:
    """Row-select a batch column, staying encoded when it is encoded."""
    if isinstance(values, EncodedColumn):
        return values.take(selector)
    return values[selector]


def sorted_positions(entries: np.ndarray, values: np.ndarray) -> Optional[np.ndarray]:
    """Position of each of *values* in the sorted *entries*, ``-1`` where absent.

    The value→code lookup of both dictionary classes.  ``None`` when the
    two arrays cannot be matched exactly: only integer, boolean and string
    arrays of one kind are (float entries hold NaN and -0.0, object arrays
    NULL and values numpy does not order).
    """
    kind = entries.dtype.kind
    if kind not in "iubU" or values.dtype.kind != kind:
        return None
    if not len(entries):
        return np.full(len(values), -1, dtype=np.int64)
    slots = np.minimum(np.searchsorted(entries, values), len(entries) - 1)
    return np.where(entries[slots] == values, slots, -1).astype(np.int64, copy=False)


def codes_in(dictionary, part: BatchColumn) -> Optional[np.ndarray]:
    """*part*'s rows as codes of *dictionary*, or ``None`` if it lacks a value.

    A part on another dictionary looks up that dictionary's entries once
    and gathers its codes through the answer; a value array looks up its
    rows.
    """
    if isinstance(part, EncodedColumn):
        if part.dictionary is dictionary:
            return part.codes
        entries = dictionary.codes_of(part.dictionary.values_array)
        codes = None if entries is None else entries[part.codes]
    else:
        codes = dictionary.codes_of(part)
    if codes is None or bool((codes < 0).any()):
        return None
    return codes


def _concat_column(parts: Sequence[BatchColumn]) -> BatchColumn:
    """Stack two or more parts of one column (see :meth:`ColumnBatch.concat`)."""
    first = next((part for part in parts if isinstance(part, EncodedColumn)), None)
    if first is not None:
        pieces = []
        for part in parts:
            codes = codes_in(first.dictionary, part)
            if codes is None:
                break
            pieces.append(codes)
        else:
            return EncodedColumn(np.concatenate(pieces), first.dictionary)
    arrays = [decoded_array(part) for part in parts]
    if any(array.dtype == object for array in arrays):
        arrays = [array.astype(object) for array in arrays]
    return np.concatenate(arrays)


class ColumnBatch:
    """Aligned per-column arrays — the unit of the vectorized pipeline.

    Columns are value arrays or :class:`EncodedColumn` ``(codes, dictionary)``
    pairs; see the module docstring for the codes-vs-values contract.
    """

    __slots__ = ("_columns", "num_rows")

    def __init__(self, columns: Dict[str, BatchColumn], num_rows: Optional[int] = None):
        self._columns = columns
        if num_rows is None:
            num_rows = len(next(iter(columns.values()))) if columns else 0
        self.num_rows = num_rows

    @classmethod
    def from_lists(cls, columns: Mapping[str, Sequence[Any]]) -> "ColumnBatch":
        return cls({name: values_to_array(values) for name, values in columns.items()})

    # -- access -----------------------------------------------------------------

    @property
    def column_names(self) -> List[str]:
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> np.ndarray:
        """The value array of *name* (decoding an encoded column)."""
        return decoded_array(self._columns[name])

    def raw(self, name: str) -> BatchColumn:
        """The column as carried: a value array or an :class:`EncodedColumn`."""
        return self._columns[name]

    def encoded(self, name: str) -> Optional[EncodedColumn]:
        """The column's ``(codes, dictionary)`` pair, or ``None`` if plain."""
        values = self._columns[name]
        return values if isinstance(values, EncodedColumn) else None

    def column_list(self, name: str) -> List[Any]:
        return self.column(name).tolist()

    def arrays(self) -> Dict[str, np.ndarray]:
        """All columns as value arrays (decodes encoded columns)."""
        return {name: decoded_array(values) for name, values in self._columns.items()}

    def raw_columns(self) -> Dict[str, BatchColumn]:
        """All columns as carried — no decode."""
        return dict(self._columns)

    def null_mask(self, name: str) -> Optional[np.ndarray]:
        return null_mask_of(self.column(name))

    # -- construction / transformation -------------------------------------------

    def take(self, selector: np.ndarray) -> "ColumnBatch":
        """Select rows by boolean mask or index array (numpy semantics).

        Encoded columns stay encoded: only their codes are gathered.
        """
        taken = {
            name: take_column(values, selector)
            for name, values in self._columns.items()
        }
        return ColumnBatch(taken)

    @classmethod
    def concat(cls, batches: Sequence["ColumnBatch"]) -> "ColumnBatch":
        """Stack batches with identical column sets (e.g. partition segments).

        A column stays encoded over the first encoded part's dictionary when
        that dictionary holds every value of every other part: a part on the
        same dictionary contributes its codes, any other part its values'
        codes in it (:func:`codes_in`).  A column no dictionary covers —
        floats, object arrays, a part holding a value the dictionary lacks —
        decodes every part and stacks the values.
        """
        if not batches:
            return cls({})
        total_rows = sum(batch.num_rows for batch in batches)
        names = batches[0].column_names
        columns: Dict[str, BatchColumn] = {}
        for name in names:
            parts = [batch.raw(name) for batch in batches if batch.num_rows]
            if not parts:
                columns[name] = batches[0].raw(name)
            elif len(parts) == 1:
                columns[name] = parts[0]
            else:
                columns[name] = _concat_column(parts)
        return cls(columns, num_rows=total_rows)

    # -- lazy row materialisation ---------------------------------------------------

    def to_rows(self, names: Optional[Sequence[str]] = None) -> List[Dict[str, Any]]:
        """Materialise row dicts — the ``QueryResult`` boundary only."""
        selected = list(names) if names is not None else self.column_names
        lists = [self.column(name).tolist() for name in selected]
        return [dict(zip(selected, values)) for values in zip(*lists)] if lists else []


# -- vectorized predicate evaluation over value arrays ---------------------------------


def evaluate_predicate_mask(
    predicate: Predicate, arrays: Mapping[str, np.ndarray], num_rows: int
) -> np.ndarray:
    """Boolean mask of *predicate* over aligned value *arrays* — always.

    Vectorized when :func:`vectorized_value_mask` supports the predicate,
    otherwise the scalar ``Predicate.evaluate`` loop over the referenced
    columns.  This is the one shared fallback for every store's complex-
    predicate path, so NULL and fallback semantics cannot drift between
    call sites.
    """
    mask = vectorized_value_mask(predicate, arrays, num_rows)
    if mask is not None:
        return mask
    referenced = sorted(arrays)
    lists = {name: arrays[name].tolist() for name in referenced}
    return np.fromiter(
        (
            predicate.evaluate({name: lists[name][i] for name in referenced})
            for i in range(num_rows)
        ),
        dtype=bool,
        count=num_rows,
    )


def vectorized_value_mask(
    predicate: Predicate, arrays: Mapping[str, np.ndarray], num_rows: int
) -> Optional[np.ndarray]:
    """Evaluate *predicate* over aligned value *arrays*, or ``None`` if unsupported.

    Matches :meth:`Predicate.evaluate` row-at-a-time semantics: comparisons
    against ``NULL`` (on either side) are false, ``IS NULL`` is true exactly
    for ``None``.  Type errors from exotic value mixes abort vectorisation
    (returning ``None``) rather than guessing.
    """
    try:
        return _value_mask(predicate, arrays, num_rows, _NullMaskCache())
    except TypeError:
        return None


class _NullMaskCache:
    """Per-evaluation memo of each column's null mask.

    The null mask of an object column is an O(n) Python-level pass; a
    predicate tree referencing the same nullable column several times (e.g.
    a BETWEEN, or an AND of comparisons) must not repeat it.
    """

    __slots__ = ("_masks",)

    def __init__(self) -> None:
        self._masks: Dict[int, Optional[np.ndarray]] = {}

    def get(self, array: np.ndarray) -> Optional[np.ndarray]:
        key = id(array)
        if key not in self._masks:
            self._masks[key] = null_mask_of(array)
        return self._masks[key]


def _value_mask(
    predicate: Predicate,
    arrays: Mapping[str, np.ndarray],
    num_rows: int,
    nulls: _NullMaskCache,
) -> Optional[np.ndarray]:
    if isinstance(predicate, TruePredicate):
        return np.ones(num_rows, dtype=bool)
    if isinstance(predicate, And):
        return _combine(predicate.predicates, arrays, num_rows, nulls, np.logical_and)
    if isinstance(predicate, Or):
        return _combine(predicate.predicates, arrays, num_rows, nulls, np.logical_or)
    if isinstance(predicate, Not):
        mask = _value_mask(predicate.predicate, arrays, num_rows, nulls)
        return None if mask is None else ~mask
    ranges = ranges_of(predicate)
    if ranges is None:
        return None
    array = arrays.get(predicate.column)
    if array is None:
        return None
    null_mask = nulls.get(array)
    if null_mask is None:
        return _cells_mask(array, ranges)
    mask = null_mask.copy() if ranges.null else np.zeros(len(array), dtype=bool)
    keep = ~null_mask
    mask[keep] = _cells_mask(array[keep], ranges)
    return mask


def _cells_mask(cells: np.ndarray, ranges: ValueRanges) -> np.ndarray:
    """Mask of the non-NULL *cells* in *ranges*.

    One comparison per finite interval end, then the NaN flag.  NaN fails
    every comparison, so only an interval unbounded at both ends has to
    leave NaN out explicitly.  An object column holding NaN makes numpy
    warn about the invalid comparison it answers correctly; the warning is
    silenced here, where the answer is known to be right.
    """
    matched: Optional[np.ndarray] = None
    with np.errstate(invalid="ignore"):
        for interval in ranges.intervals:
            low, high, low_closed, high_closed = interval
            if is_singleton(interval):
                part = _compare(cells, operator.eq, low)
            else:
                part = None
                if low is not None:
                    part = _compare(cells, operator.ge if low_closed else operator.gt, low)
                if high is not None:
                    upper = _compare(cells, operator.le if high_closed else operator.lt, high)
                    part = upper if part is None else part & upper
                if part is None:
                    part = ~_nan_cells(cells)
            matched = part if matched is None else matched | part
        if ranges.nan:
            nan = _nan_cells(cells)
            matched = nan if matched is None else matched | nan
    return np.zeros(len(cells), dtype=bool) if matched is None else matched


def _nan_cells(cells: np.ndarray) -> np.ndarray:
    """Mask of the NaN cells (only float and object columns can hold NaN)."""
    if cells.dtype.kind in "fO":
        return np.asarray(cells != cells, dtype=bool)
    return np.zeros(len(cells), dtype=bool)


def _reject_nul_string_literal(value: Any) -> None:
    """Abort vectorization for string literals containing NUL characters.

    numpy coerces comparison literals to its fixed-width string dtype, which
    silently drops trailing ``\\x00`` — such comparisons must take the scalar
    path (the raised TypeError triggers the fallback).
    """
    if isinstance(value, str) and "\x00" in value:
        raise TypeError("NUL-containing string literal cannot be vectorized")


def _combine(
    predicates: Iterable[Predicate],
    arrays: Mapping[str, np.ndarray],
    num_rows: int,
    nulls: _NullMaskCache,
    combiner,
) -> Optional[np.ndarray]:
    combined: Optional[np.ndarray] = None
    for child in predicates:
        mask = _value_mask(child, arrays, num_rows, nulls)
        if mask is None:
            return None
        combined = mask if combined is None else combiner(combined, mask)
    return combined


def _compare(cells: np.ndarray, compare, value: Any) -> np.ndarray:
    _reject_nul_string_literal(value)
    result = np.asarray(compare(cells, value))
    if result.dtype != bool:
        result = result.astype(bool)
    if result.shape != cells.shape:
        # A scalar result means numpy refused elementwise comparison.
        raise TypeError("comparison did not vectorize")
    return result
