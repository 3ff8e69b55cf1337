"""Dictionary compression for the column store.

The column store of the paper's hybrid database (SAP HANA) keeps every column
dictionary-encoded: the distinct values are stored once in a sorted
dictionary, and the column itself is an array of integer codes.  Two
consequences matter for the storage advisor:

* aggregation scans touch far fewer bytes than a row-store scan would (the
  paper's ``f_compression`` adjustment), and
* the dictionary acts as an *implicit index* for point and range predicates
  (Section 3.1, point/range queries on the column store).

What is implicit in a sorted dictionary is the **value -> code** half of an
index: a literal becomes a code, a range a code interval, by ``bisect``, and
nothing has to be stored for it.  The **code -> rows** half is not implicit
— finding the rows of a code means comparing every stored code — so a
:class:`CompressedColumn` *builds* it, as a position index
(:func:`rows_by_id` over its codes), once the selective scans it has served
since its codes last changed would have paid for the build.  The position
index, a whole-column group summary (:func:`group_summary`) and the float
weights of a numeric column are the column's :class:`DerivedState`; every
mutator of the code array drops it (see :class:`CompressedColumn`).

NULL handling: ``None`` cannot be ordered against real values, so it never
participates in the sort.  A dictionary holding any NULL reserves **code 0**
for it; the sorted real values occupy codes ``1..N``.  A NULL-free
dictionary uses codes ``0..N-1`` exactly as before, so the hot no-NULL path
is unchanged.  Because NULL's code is smaller than every value code, the
code order of the value codes still mirrors the value order — the property
the code-range predicate translation and the O(n) group-by factorization
rely on.

This module implements the dictionary encoding and the compression-rate
statistic consumed by the cost model.
"""

from __future__ import annotations

import bisect
from itertools import compress, repeat
from operator import is_
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.engine import context
from repro.engine.types import DataType
from repro.engine.zonemap import is_nan as _is_nan

#: Half-open code intervals ``[lo, hi)``: ascending, disjoint, none empty.
CodeIntervals = Sequence[Tuple[int, int]]

#: numpy's stable sort of keys of at most this many bits is a radix sort.
_RADIX_BITS = 16


def _radix_passes(capacity: int) -> int:
    """Stable sorts :func:`rows_by_id` runs for ids below *capacity*."""
    return max(1, -(-(capacity - 1).bit_length() // _RADIX_BITS))


def rows_by_id(ids: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: the rows of every id in ``[0, capacity)``, together.

    ``order`` lists the row positions in stable id order — ascending inside
    one id — and ``starts`` (``capacity + 1`` offsets) says where each id's
    rows begin, so the rows whose id lies in ``[lo, hi)`` are
    ``order[starts[lo]:starts[hi]]`` and ``starts[hi] - starts[lo]`` counts
    them without reading any.  The sort is least-significant-digit radix
    over 16-bit digits (one pass per digit, each numpy's radix sort): at
    100 k rows one pass is 0.9 ms where the stable sort of the int64 ids is
    7 ms.
    """
    order: Optional[np.ndarray] = None
    for index in range(_radix_passes(capacity)):
        digit = ids if order is None else ids[order]
        if index:
            digit = digit >> (index * _RADIX_BITS)
        by_digit = np.argsort(digit.astype(np.uint16), kind="stable")
        order = by_digit if order is None else order[by_digit]
    starts = np.zeros(capacity + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=capacity), out=starts[1:])
    return order, starts


#: Rows of the shortest prefix searched for first occurrences.
_FIRST_PREFIX = 1024


def _first_occurrences(ids: np.ndarray, used: np.ndarray, capacity: int) -> np.ndarray:
    """The row of the first occurrence of each id in *used*.

    Assigning row numbers in reverse row order leaves, per id, the smallest
    row written last.  The assignment runs over a growing prefix of the rows
    — a sixty-fourth, a sixteenth, a quarter, all — and stops once every
    used id has shown: a low-cardinality key shows all its values within the
    first few hundred rows, and an id whose only row is the last costs the
    full pass plus the shorter ones before it, at most 4/3 n assignments.
    """
    num_rows = len(ids)
    start = max(_FIRST_PREFIX, 8 * len(used))
    shift = 0
    while num_rows >> (shift + 2) >= start:
        shift += 2
    first_by_id = np.full(capacity, num_rows, dtype=np.int64)
    while True:
        size = num_rows >> shift
        first_by_id[ids[:size][::-1]] = np.arange(size - 1, -1, -1, dtype=np.int64)
        first = first_by_id[used]
        if shift == 0 or int(first.max()) < num_rows:
            return first
        shift -= 2


class GroupSummary(NamedTuple):
    """The ids of one id array that occur, and where each first occurs."""

    #: The ids that occur, ascending.
    used: np.ndarray
    #: Positions into ``used`` in first-occurrence order.
    emit_order: np.ndarray
    #: The ids that occur in first-occurrence order (``used[emit_order]``).
    emit: np.ndarray
    #: The first row of each id of ``emit``.
    first_rows: np.ndarray
    #: The number of rows of each id of ``emit``.
    counts: np.ndarray


def group_summary(ids: np.ndarray, capacity: int) -> GroupSummary:
    """One ``bincount`` over *ids* (all in ``[0, capacity)``) and the first
    row of every id that occurs (:func:`_first_occurrences`)."""
    counts = np.bincount(ids, minlength=capacity)
    used = np.flatnonzero(counts)
    first = _first_occurrences(ids, used, capacity)
    emit_order = np.argsort(first)
    emit = used[emit_order]
    return GroupSummary(used, emit_order, emit, first[emit_order], counts[emit])


def _codes_fit(codes: np.ndarray, capacity: int) -> bool:
    """Whether every code lies in ``[0, capacity)`` — only corruption behind
    a column's back puts one outside."""
    return not len(codes) or 0 <= int(codes.min()) <= int(codes.max()) < capacity


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class DerivedState:
    """What one version of a column's codes determines, built on demand.

    A :class:`CompressedColumn` starts a fresh one every time its codes
    change, so whatever is in it describes the codes it was built from:

    * the **position index** ``(order, starts)`` of :func:`rows_by_id`, and
      the count of served scans that decides when to build it;
    * the **group summary** of the codes as group ids
      (:meth:`group_summary`): what a whole-column ``GROUP BY`` orders its
      groups by;
    * the **float weights** ``reals.astype(float64)[codes]`` of a numeric
      dictionary without a NULL slot (:meth:`float_weights`): what a
      whole-column grouped ``SUM`` / ``AVG`` sums.

    Both arrays are asked for through the whole-column
    :class:`~repro.engine.batch.EncodedColumn` that carries this state
    (``encoded.derived is self``) and are built from that column's codes and
    dictionary, so they describe exactly the ids and values it holds; any
    other column — a row selection, a stack of parts, a column carrying
    another state — gets ``None`` and the caller computes its own array.  A
    state that a change has since replaced is only reachable through such a
    handle.  Cached arrays are read-only.  Codes outside the dictionary
    build nothing (``None`` too), as in
    :meth:`CompressedColumn.build_position_index`.

    A pickled state (a checkpoint snapshot pickles its tables whole) keeps
    the position index and the served-scan count but not the group summary
    or the float weights: those are as large as the code array and cheap to
    rebuild on the first ``GROUP BY`` after recovery.
    """

    __slots__ = ("position_index", "served_scans", "_summary", "_weights")

    def __init__(self) -> None:
        self.position_index: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Scans the position index would have answered.
        self.served_scans = 0
        self._summary: Optional[GroupSummary] = None
        self._weights: Optional[np.ndarray] = None

    def __getstate__(self) -> Tuple[Any, int]:
        return self.position_index, self.served_scans

    def __setstate__(self, state: Tuple[Any, int]) -> None:
        self.__init__()
        self.position_index, self.served_scans = state

    @property
    def has_group_summary(self) -> bool:
        return self._summary is not None

    @property
    def has_float_weights(self) -> bool:
        return self._weights is not None

    def group_summary(self, encoded) -> Optional[GroupSummary]:
        """:func:`group_summary` of *encoded*'s codes as group ids, built
        once; ``None`` unless *encoded* carries this state."""
        if encoded.derived is not self:
            return None
        if self._summary is None:
            codes, capacity = encoded.codes, len(encoded.dictionary)
            if _codes_fit(codes, capacity):
                self._summary = GroupSummary(*map(_frozen, group_summary(codes, capacity)))
        return self._summary

    def float_weights(self, encoded) -> Optional[np.ndarray]:
        """``entries.astype(float64)[codes]`` of *encoded*, built once;
        ``None`` unless *encoded* carries this state and its dictionary is
        numeric without a NULL slot."""
        if encoded.derived is not self:
            return None
        if self._weights is None:
            dictionary = encoded.dictionary
            if dictionary.has_null:
                return None
            entries, codes = dictionary.values_array, encoded.codes
            if entries.dtype.kind in "iufb" and _codes_fit(codes, len(entries)):
                self._weights = _frozen(entries.astype(np.float64, copy=False)[codes])
        return self._weights


def code_width_bytes(num_distinct: int) -> int:
    """Width in bytes of one dictionary code for ``num_distinct`` values.

    Codes are bit-packed in real systems; we round to the next whole byte,
    which preserves the qualitative dependence of scan cost on the number of
    distinct values.
    """
    if num_distinct <= 1:
        return 1
    # ceil(log2(n)) in integer arithmetic: exact past 2**53, and no numpy
    # scalar round trip on a per-statement path.
    bits = (num_distinct - 1).bit_length()
    return (bits + 7) // 8


#: Integer columns whose value span is at most this (or at most their
#: length) get their dictionary from a ``bincount`` instead of a sort.
_BINCOUNT_SPAN = 1 << 16

_NoneType = type(None)


def _distinct_and_codes(
    values: Sequence[Any], kinds: Optional[set] = None
) -> Tuple[List[Any], np.ndarray]:
    """The sorted distinct *values* (no NULL among them) and each one's code.

    The build follows the shape of the data; every shape yields what
    ``np.unique`` over :func:`~repro.engine.batch.values_to_array` yields —
    the same entries, in the same order, as the same Python types:

    * all ``str`` (the one question asked of *kinds*, the values' type set):
      ``sorted(set())`` and a dict lookup — no fixed-width ``<U`` array, no
      string sort over every value;
    * ``int64`` whose span is small: a ``bincount`` marks the values present;
    * every other native array (floats keep ``np.unique``'s NaN collapsing
      and signed-zero choice): ``np.unique``;
    * anything numpy keeps as objects: ``sorted(set())`` and a dict lookup.
    """
    from repro.engine.batch import values_to_array

    if kinds != {str}:
        array = values_to_array(values)
        if array.dtype.kind == "i" and len(array):
            low = int(array.min())
            span = int(array.max()) - low + 1
            if span <= max(len(array), _BINCOUNT_SPAN):
                shifted = array - low
                present = np.bincount(shifted, minlength=span).astype(bool)
                distinct = (np.flatnonzero(present) + low).tolist()
                return distinct, (np.cumsum(present) - 1)[shifted]
        if array.dtype != object:
            distinct, codes = np.unique(array, return_inverse=True)
            return distinct.tolist(), codes.reshape(-1).astype(np.int64, copy=False)
        values = array.tolist()
    distinct = sorted(set(values))
    code_of = dict(zip(distinct, range(len(distinct))))
    codes = np.fromiter(map(code_of.__getitem__, values), dtype=np.int64,
                        count=len(values))
    return distinct, codes


class ColumnDictionary:
    """Sorted dictionary of the distinct values of one column.

    Because the values are kept sorted, the value→code mapping *is* a binary
    search — no separate hash map has to be maintained (inserting a value
    mid-dictionary would otherwise re-number every larger value's hash-map
    entry one by one).

    ``_values`` holds only the sorted real values (NaN, if present, last by
    convention); NULL is represented by the ``_has_null`` flag and the
    reserved code 0.  The code of the value at sorted position *p* is
    ``p + offset`` where ``offset`` is 1 iff NULL is present.
    """

    def __init__(self, dtype: DataType) -> None:
        self.dtype = dtype
        self._values: List[Any] = []
        self._has_null = False
        self._values_array: Optional[np.ndarray] = None
        self._reals_array: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._values) + self._offset

    @property
    def _offset(self) -> int:
        return 1 if self._has_null else 0

    def _real_count(self) -> int:
        """Number of orderable values — the bisect search space.

        Every ``bisect`` over ``_values`` must stop before a trailing NaN:
        comparisons against NaN are all false, so an unbounded binary search
        whose probe lands on the NaN entry jumps *past* it and can overshoot
        real values below it (e.g. placing 129.3 after 143.32).
        """
        values = self._values
        if values and _is_nan(values[-1]):
            return len(values) - 1
        return len(values)

    @property
    def values(self) -> Sequence[Any]:
        """The dictionary entries in code order (``None`` first if present)."""
        if self._has_null:
            return (None,) + tuple(self._values)
        return tuple(self._values)

    @property
    def real_values(self) -> Sequence[Any]:
        """The entries but NULL, in code order (the live list: read only)."""
        return self._values

    @property
    def values_array(self) -> np.ndarray:
        """The dictionary entries as a code-aligned numpy array (cached).

        Decoding a whole code array is one fancy-indexing gather
        (``values_array[codes]``) instead of a per-value Python loop.  When
        NULL is present the array is an object array with ``None`` at
        position 0.
        """
        if self._values_array is None:
            from repro.engine.batch import values_to_array

            if self._has_null:
                array = np.empty(len(self._values) + 1, dtype=object)
                array[0] = None
                for position, value in enumerate(self._values):
                    array[position + 1] = value
                self._values_array = array
            else:
                self._values_array = values_to_array(self._values)
        return self._values_array

    @property
    def reals_array(self) -> np.ndarray:
        """The real entries — every entry but NULL — in code order (cached).

        ``values_array`` without the reserved slot that forces it to
        ``object`` dtype: an integer, boolean or float column keeps its
        native dtype here whether or not it holds NULL.
        """
        if self._reals_array is None:
            if self._has_null:
                from repro.engine.batch import values_to_array

                self._reals_array = values_to_array(self._values)
            else:
                self._reals_array = self.values_array
        return self._reals_array

    def _invalidate(self) -> None:
        self._values_array = None
        self._reals_array = None

    def encode_with_insert(self, value: Any) -> Tuple[int, Optional[int]]:
        """Return ``(code, shift_position)`` for *value*, inserting it if new.

        The dictionary stays sorted, so inserting a new value shifts the codes
        of every larger value by one.  ``shift_position`` is the insertion
        position when that happened (the caller must re-map already stored
        codes ``>= shift_position``), or ``None`` if the value already existed.
        Adding NULL to a NULL-free dictionary reserves code 0, which shifts
        *every* stored code (``shift_position`` 0).  The shift itself is
        implicit — codes are positions in the code-ordered entry list; the
        *cost* of dictionary maintenance is accounted for by the device
        model, not by Python runtime.
        """
        if value is None:
            if self._has_null:
                return 0, None
            self._has_null = True
            self._invalidate()
            # Code 0 is now NULL; every existing value code moves up by one.
            return 0, 0
        offset = self._offset
        if _is_nan(value):
            # NaN defeats bisect (every comparison is false would place it
            # first); it sorts *last* by convention, like np.unique puts it.
            code = self.nan_code
            if code is not None:
                return code, None
            self._values.append(value)
            self._invalidate()
            # Appended behind every existing value: no stored code shifts.
            return len(self._values) - 1 + offset, None
        position = bisect.bisect_left(self._values, value, 0, self._real_count())
        if position < len(self._values) and self._values[position] == value:
            return position + offset, None
        self._values.insert(position, value)
        self._invalidate()
        return position + offset, position + offset

    def clone(self) -> "ColumnDictionary":
        """An independent copy (merges build aside and swap atomically).

        The cached arrays are shared: nothing writes into them, and the
        copy's first change drops its own references.
        """
        copy = ColumnDictionary(self.dtype)
        copy._values = list(self._values)
        copy._has_null = self._has_null
        copy._values_array = self._values_array
        copy._reals_array = self._reals_array
        return copy

    def encode(self, value: Any) -> int:
        """Return the current code for *value*, adding it to the dictionary if new.

        Beware that inserting a new value can shift the codes of larger
        values; :class:`CompressedColumn` uses :meth:`encode_with_insert` and
        re-maps its stored codes accordingly.
        """
        code, _ = self.encode_with_insert(value)
        return code

    def encode_existing(self, value: Any) -> Optional[int]:
        """Return the code for *value* or ``None`` if it is not present."""
        if value is None:
            return 0 if self._has_null else None
        try:
            position = bisect.bisect_left(self._values, value, 0, self._real_count())
        except TypeError:
            # Literal of an incomparable type can never be in the dictionary.
            return None
        if position < len(self._values) and self._values[position] == value:
            return position + self._offset
        return None

    def codes_of(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Code of each of *values*, ``-1`` where absent (``None``: see
        :func:`~repro.engine.batch.sorted_positions`)."""
        from repro.engine.batch import sorted_positions

        positions = sorted_positions(self.reals_array, values)
        if positions is None or not self._has_null:
            return positions
        return np.where(positions < 0, -1, positions + 1)

    @property
    def has_null(self) -> bool:
        """Whether NULL is present (and code 0 is reserved for it)."""
        return self._has_null

    @property
    def nan_code(self) -> Optional[int]:
        """Code of a NaN dictionary entry, or ``None``.

        ``np.unique`` (and :func:`bisect`) sort NaN after every real value, so
        if present it is the last entry of the dictionary.
        """
        if self._values:
            last = self._values[-1]
            if isinstance(last, float) and last != last:
                return len(self._values) - 1 + self._offset
        return None

    def decode(self, code: int) -> Any:
        if self._has_null:
            return None if code == 0 else self._values[code - 1]
        return self._values[code]

    def decode_array(self, codes: np.ndarray) -> np.ndarray:
        """Decode a code array with one fancy-indexing gather.

        Small gathers against a cold cache (typical for point/range selects
        right after a dictionary insert invalidated it) decode per value
        instead of rebuilding the whole values array.
        """
        if len(self) == 0:
            return np.empty(0, dtype=object)
        if self._values_array is None and len(codes) * 4 < len(self):
            from repro.engine.batch import values_to_array

            return values_to_array([self.decode(code) for code in codes.tolist()])
        return self.values_array[codes]

    def range_codes(self, low: Any, high: Any,
                    include_low: bool = True, include_high: bool = True) -> Tuple[int, int]:
        """Return the half-open code interval ``[lo, hi)`` of values in range.

        Because the dictionary is sorted, a value-range predicate translates
        into a code-range predicate — the "implicit index" of the column
        store.  The interval holds real values only: both ends carry the
        code offset past the reserved NULL code, and an open upper end stops
        before a trailing NaN entry.
        """
        offset = self._offset
        reals = self._real_count()
        if low is None:
            lo = 0
        else:
            lo = (bisect.bisect_left(self._values, low, 0, reals) if include_low
                  else bisect.bisect_right(self._values, low, 0, reals))
        if high is None:
            hi = reals
        else:
            hi = (bisect.bisect_right(self._values, high, 0, reals) if include_high
                  else bisect.bisect_left(self._values, high, 0, reals))
        return lo + offset, hi + offset

    def bulk_build(self, values: Sequence[Any], kinds: Optional[set] = None) -> np.ndarray:
        """Build the dictionary from *values* in one pass and return the codes.

        *kinds* is the values' type set when the caller already knows it (a
        non-nullable column's loader does); otherwise it is taken here.
        NULLs take the reserved code 0; the rest is built by its shape (see
        :func:`_distinct_and_codes`).
        """
        self._invalidate()
        if kinds is None:
            kinds = set(map(type, values))
        self._has_null = _NoneType in kinds
        if not self._has_null:
            self._values, codes = _distinct_and_codes(values, kinds)
            return codes
        null_mask = np.fromiter(map(is_, values, repeat(None)), dtype=bool,
                                count=len(values))
        non_null = list(compress(values, ~null_mask))
        self._values, sub_codes = _distinct_and_codes(non_null, kinds - {_NoneType})
        codes = np.zeros(len(values), dtype=np.int64)
        codes[~null_mask] = sub_codes + 1
        return codes

    def bulk_codes(self, values: Sequence[Any]) -> np.ndarray:
        """Codes for *values*, all of which must already be in the dictionary.

        A few values against a cold cache (a merge of a handful of buffered
        rows) are looked up one by one instead of rebuilding the whole
        values array, as :meth:`decode_array` does for small gathers.
        """
        from repro.engine.batch import values_to_array

        if self._values_array is None and len(values) * 4 < len(self):
            nan_code = self.nan_code
            return np.fromiter(
                (nan_code if _is_nan(value) else self.encode_existing(value)
                 for value in values),
                dtype=np.int64, count=len(values),
            )
        if not self._has_null:
            array = self.values_array
            if array.dtype != object:
                candidate = values_to_array(values)
                if candidate.dtype != object:
                    return np.searchsorted(array, candidate).astype(np.int64, copy=False)
        offset = self._offset
        code_of = {v: i + offset for i, v in enumerate(self._values)}
        nan_code = self.nan_code

        def code_for(value: Any) -> int:
            if value is None:
                return 0
            if _is_nan(value):
                return nan_code
            return code_of[value]

        return np.fromiter(
            (code_for(v) for v in values), dtype=np.int64, count=len(values)
        )

    def merge_values(self, new_values: Sequence[Any]) -> Optional[np.ndarray]:
        """Insert any not-yet-present values of *new_values* in one pass.

        Returns the old-code → new-code remap array (the caller re-maps its
        stored codes), or ``None`` when the dictionary did not change.  NaN
        is kept out of the sort (it would poison Python's ``sorted``) and
        re-appended last, where :attr:`nan_code` expects it; a first NULL
        reserves code 0 and shifts every value code up by one.
        """
        fresh = []
        fresh_nan = False
        fresh_null = False
        for value in set(new_values):
            if value is None:
                fresh_null = not self._has_null
            elif _is_nan(value):
                fresh_nan = True
            elif self.encode_existing(value) is None:
                fresh.append(value)
        old_nan = self.nan_code is not None
        if not fresh and not (fresh_nan and not old_nan) and not fresh_null:
            return None
        old_offset = self._offset
        old_values = self._values
        core_count = self._real_count()
        core = old_values[:core_count]
        # Splice the (typically few) fresh values into the sorted entry list
        # at their bisect positions; a value code moves up by one for every
        # fresh value landing at or before its position, which makes the
        # old-code -> new-code remap a vectorized searchsorted instead of a
        # Python dict rebuild over the whole dictionary.  Interleaved
        # insert/merge workloads hit this once per statement batch.
        fresh.sort()
        positions = [bisect.bisect_left(core, value) for value in fresh]
        merged: List[Any] = []
        previous = 0
        for position, value in zip(positions, fresh):
            merged.extend(core[previous:position])
            merged.append(value)
            previous = position
        merged.extend(core[previous:])
        if old_nan:
            # Reuse the stored NaN object (NaN != NaN defeats lookups).
            merged.append(old_values[-1])
        elif fresh_nan:
            merged.append(float("nan"))
        self._values = merged
        if fresh_null:
            self._has_null = True
        self._invalidate()
        new_offset = self._offset
        remap = np.empty(old_offset + len(old_values), dtype=np.int64)
        if old_offset:
            remap[0] = 0
        if core_count:
            shifts = np.searchsorted(
                np.asarray(positions, dtype=np.int64),
                np.arange(core_count),
                side="right",
            )
            remap[old_offset:old_offset + core_count] = (
                np.arange(core_count) + shifts + new_offset
            )
        if old_nan:
            remap[old_offset + core_count] = new_offset + len(merged) - 1
        return remap

    def rebuild_from_codes(self, kept_codes: np.ndarray) -> np.ndarray:
        """Shrink the dictionary to the codes in *kept_codes* (columnar delete).

        Returns *kept_codes* re-mapped to the shrunken dictionary.  The
        surviving entries keep their code order (NULL first if it survives),
        so the result is exactly the dictionary a fresh bulk build over the
        surviving rows would produce.
        """
        used = np.unique(kept_codes)
        old_offset = self._offset
        self._values = [
            self._values[int(code) - old_offset]
            for code in used
            if code >= old_offset
        ]
        self._has_null = bool(old_offset and len(used) and used[0] == 0)
        self._invalidate()
        return np.searchsorted(used, kept_codes).astype(np.int64, copy=False)


class CompressedColumn:
    """One dictionary-encoded column: a dictionary plus an array of codes.

    **Derived state.**  What the column derives from its codes lives in one
    :class:`DerivedState`, and every method that writes ``_codes`` —
    :meth:`_encode_maintaining_codes` (``append``, ``set_value``),
    :meth:`extend`, :meth:`bulk_load`, :meth:`load_codes`, :meth:`truncate` —
    replaces it with an empty one first (:meth:`_codes_changed`).  Nothing
    outside this module writes ``_codes`` or assigns ``_derived``
    (``run_checks.sh`` greps for both), so derived state never describes
    codes other than the ones stored: a column under writes never builds a
    position index and builds its group state per statement, as it was
    computed before it was kept; a read-mostly column builds each once.
    :meth:`clone` starts without any.  A sealed column is never mutated in place, so snapshot
    readers may share its state.

    * The **position index**, ``(order, starts)`` of :func:`rows_by_id` over
      the live codes: the rows of the codes in ``[lo, hi)`` are one slice of
      ``order``, counted exactly by two reads of ``starts`` before any row
      is touched.  Nobody asks for it; the column builds it by a rule over
      what it has itself observed — :meth:`note_served_scan` is told of
      every scan the index *would have* answered, and once
      :data:`SERVED_SCANS_PER_PASS` of them per radix pass of the build have
      come in since the codes last changed, the build has been paid for
      (ski rental: at worst twice the cost of never building).
    * The **group summary** and the **float weights**, built by the first
      whole-column ``GROUP BY`` that needs them: :meth:`column_encoded
      <repro.engine.column_store.ColumnStoreTable.column_encoded>` hands the
      state to the executor with the whole code array (:attr:`derived`).

    Derived state describes the codes as they were when it was built
    (inside a read, behind the table's integrity gate).  Corruption *behind
    the column's back* (a flipped bit in the code array, no mutator
    involved) leaves state built earlier answering from the pre-corruption
    content; detection — a checksum over the codes themselves — is
    unaffected, and repair rebuilds through :meth:`load_codes`, which drops
    it.
    """

    GROWTH = 1024

    #: Served scans, per radix pass of the build, that pay for a position
    #: index.  A measurement: one pass costs 0.9 ms at 100 k rows and 14 ms
    #: at 1 M, a selective scan 25-90 us and 0.5-1.3 ms (``=`` - ``BETWEEN``)
    #: — 10 to 35 scans' worth.
    SERVED_SCANS_PER_PASS = 16

    def __init__(self, name: str, dtype: DataType) -> None:
        self.name = name
        self.dtype = dtype
        self.dictionary = ColumnDictionary(dtype)
        self._codes = np.empty(self.GROWTH, dtype=np.int64)
        self._size = 0
        # Maintained incrementally by every mutator: the zone-map synopsis
        # consults it on each filtered scan, and an O(n) recount there would
        # tax interleaved insert/scan workloads.
        self._null_count = 0
        self._derived = DerivedState()

    def __len__(self) -> int:
        return self._size

    @property
    def codes(self) -> np.ndarray:
        """The code array (a view limited to the live portion)."""
        return self._codes[: self._size]

    @property
    def null_count(self) -> int:
        """Number of stored NULL cells (codes equal to the reserved code 0)."""
        return self._null_count

    def _recount_nulls(self) -> None:
        """Recount from the codes (bulk rebuild paths only)."""
        if not self.dictionary.has_null or self._size == 0:
            self._null_count = 0
        else:
            self._null_count = int(np.count_nonzero(self.codes == 0))

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._size + extra
        if needed <= len(self._codes):
            return
        new_capacity = max(needed, int(len(self._codes) * 1.5) + self.GROWTH)
        grown = np.empty(new_capacity, dtype=np.int64)
        grown[: self._size] = self._codes[: self._size]
        self._codes = grown

    def _encode_maintaining_codes(self, value: Any) -> int:
        """Encode *value*, re-mapping stored codes if the dictionary shifted."""
        self._codes_changed()
        code, shift_position = self.dictionary.encode_with_insert(value)
        if shift_position is not None and self._size:
            live = self._codes[: self._size]
            live[live >= shift_position] += 1
        return code

    def append(self, value: Any) -> None:
        code = self._encode_maintaining_codes(value)
        self._ensure_capacity(1)
        self._codes[self._size] = code
        self._size += 1
        if value is None:
            self._null_count += 1

    def extend(self, values: Sequence[Any]) -> None:
        """Append *values*, merging new distinct values in one dictionary pass.

        Bulk encoding re-sorts the dictionary at most once per batch (instead
        of once per new value) and re-maps the stored codes with a single
        vectorized gather.
        """
        values = values if isinstance(values, list) else list(values)
        if not values:
            return
        if len(values) == 1:
            self.append(values[0])
            return
        self._codes_changed()
        dictionary = self.dictionary
        remap = dictionary.merge_values(values)
        if remap is not None and self._size:
            live = self._codes[: self._size]
            live[:] = remap[live]
        new_codes = dictionary.bulk_codes(values)
        self._ensure_capacity(len(values))
        self._codes[self._size: self._size + len(values)] = new_codes
        self._size += len(values)
        self._null_count += values.count(None)

    def bulk_load(self, values: Sequence[Any], kinds: Optional[set] = None) -> None:
        """Replace the column contents with *values* (fast path for loads).

        *kinds*, the values' type set if the caller knows it, spares the
        dictionary build one pass (:meth:`ColumnDictionary.bulk_build`).
        """
        self._codes_changed()
        codes = self.dictionary.bulk_build(values, kinds)
        self._codes = codes
        self._size = len(values)
        self._recount_nulls()

    def load_codes(self, codes: np.ndarray) -> None:
        """Adopt a pre-encoded code array (columnar rebuild fast path)."""
        self._codes_changed()
        self._codes = np.ascontiguousarray(codes, dtype=np.int64)
        self._size = len(codes)
        self._recount_nulls()

    def truncate(self, size: int) -> None:
        """Roll the live code region back to *size* rows (batch-insert abort).

        Values merged into the dictionary by the aborted batch may survive as
        unused entries; the remap applied alongside the merge kept every live
        code decoding to its original value, so the column stays consistent.
        """
        self._codes_changed()
        self._size = size
        self._recount_nulls()

    def clone(self) -> "CompressedColumn":
        """An independent copy, dictionary included.

        Write-buffer merges extend a clone and swap it in atomically (the
        code buffer is copied with its spare capacity, so the rows a merge
        appends usually fit), and sealed tables copy-on-write through this
        before an in-place mutation — the original object keeps serving
        snapshot readers unchanged.
        """
        copy = CompressedColumn(self.name, self.dtype)
        copy.dictionary = self.dictionary.clone()
        copy._codes = self._codes.copy()
        copy._size = self._size
        copy._null_count = self._null_count
        return copy

    def codes_at(self, positions: Optional[Sequence[int]] = None) -> np.ndarray:
        """The code array (all rows, or a position gather) — no decoding."""
        if positions is None:
            return self.codes
        return self._codes[np.asarray(positions, dtype=np.int64)]

    def value_at(self, position: int) -> Any:
        return self.dictionary.decode(int(self._codes[position]))

    def values_at(self, positions: Sequence[int]) -> List[Any]:
        codes = self._codes[np.asarray(positions, dtype=np.int64)]
        return self.dictionary.decode_array(codes).tolist()

    def values_array_at(self, positions: Optional[Sequence[int]] = None) -> np.ndarray:
        """Decoded values as a numpy array (all rows, or a position gather)."""
        if positions is None:
            codes = self.codes
        else:
            codes = self._codes[np.asarray(positions, dtype=np.int64)]
        return self.dictionary.decode_array(codes)

    def all_values(self) -> List[Any]:
        return self.dictionary.decode_array(self.codes).tolist()

    def set_value(self, position: int, value: Any) -> None:
        # Nullness of the old cell must be read before the encode: encoding
        # the first NULL reserves code 0 and shifts every stored code.
        was_null = self.dictionary.has_null and self._codes[position] == 0
        code = self._encode_maintaining_codes(value)
        self._codes[position] = code
        if value is None:
            if not was_null:
                self._null_count += 1
        elif was_null:
            self._null_count -= 1

    # -- derived state -----------------------------------------------------------

    def _codes_changed(self) -> None:
        """Every writer of ``_codes`` calls this first (see the class docs)."""
        self._derived = DerivedState()

    @property
    def derived(self) -> DerivedState:
        """The state derived from the codes as they are now."""
        return self._derived

    @property
    def has_position_index(self) -> bool:
        return self._derived.position_index is not None

    @property
    def served_scans(self) -> int:
        """Scans an index would have answered since the codes last changed."""
        return self._derived.served_scans

    def note_served_scan(self) -> None:
        """A scan just ran that the position index would have answered."""
        derived = self._derived
        if derived.position_index is not None:
            return
        derived.served_scans += 1
        passes = _radix_passes(len(self.dictionary))
        if derived.served_scans >= self.SERVED_SCANS_PER_PASS * passes:
            self.build_position_index()

    def build_position_index(self) -> None:
        """Build the position index now (the rule calls this; so do tests).

        Codes outside the dictionary — only corruption behind the column's
        back produces them — have no place in ``starts``: no index is built
        and the column keeps scanning.
        """
        codes = self.codes
        capacity = len(self.dictionary)
        if not _codes_fit(codes, capacity):
            return
        order, starts = rows_by_id(codes, capacity)
        if len(codes) < 2 ** 32:
            order = order.astype(np.uint32)
        self._derived.position_index = (order, starts)
        context.current().counters.position_index_builds += 1

    def indexed_rows(self, intervals: CodeIntervals) -> int:
        """Exact number of rows whose code lies in *intervals* (index built)."""
        _, starts = self._derived.position_index
        return sum(int(starts[hi] - starts[lo]) for lo, hi in intervals)

    def indexed_positions(self, intervals: CodeIntervals) -> np.ndarray:
        """Ascending positions of the rows whose code lies in *intervals*.

        One slice of ``order`` per interval; the positions of a single code
        are stored ascending, several codes' are sorted here.
        """
        order, starts = self._derived.position_index
        positions = np.concatenate(
            [order[starts[lo]:starts[hi]] for lo, hi in intervals], dtype=np.int64
        )
        if sum(hi - lo for lo, hi in intervals) > 1:
            positions.sort()
        return positions

    # -- statistics --------------------------------------------------------------

    @property
    def num_distinct(self) -> int:
        return len(self.dictionary)

    @property
    def raw_bytes(self) -> float:
        """Uncompressed footprint of the column."""
        return self._size * self.dtype.width_bytes

    @property
    def code_bytes(self) -> float:
        """Size of the code array alone — the bytes a sequential scan reads."""
        return self._size * code_width_bytes(self.num_distinct)

    @property
    def compressed_bytes(self) -> float:
        """Dictionary-encoded footprint: code array plus the dictionary."""
        dict_bytes = self.num_distinct * self.dtype.width_bytes
        return self.code_bytes + dict_bytes

    @property
    def compression_rate(self) -> float:
        """Compressed size relative to the raw size (lower is better).

        An empty column reports 1.0 (no compression benefit).
        """
        if self._size == 0:
            return 1.0
        return min(1.0, self.compressed_bytes / self.raw_bytes)
