"""Aggregate functions and (grouped) accumulation.

The aggregation operator collects columnar batches from an access path and
feeds the value arrays through numpy reductions: ungrouped aggregates are
single reductions, grouped aggregates give every row a group id and reduce
per id with ``bincount``/``reduceat`` (:class:`_Groups`).  Value arrays
numpy cannot reduce (mixed objects, NULLs in object columns) fall back to
the scalar :class:`Accumulator` loop, which remains the semantic reference.

With aggregate pushdown enabled (:mod:`repro.engine.executor.agg_pushdown`),
dictionary-encoded columns never materialise per-row values:

* :class:`~repro.engine.batch.EncodedColumn` group keys group in **code
  space** — a row's group id *is* its code, for several keys the
  mixed-radix combination ``code_a * |dict_b| + code_b`` while that space
  stays within ``max(4096, rows)``.  Rows are never renumbered: one shared
  ``bincount`` counts them (``COUNT(*)``, every ``AVG`` denominator, the
  mask of codes that occur), every other aggregate reads each row once,
  and only the K codes that occur are ordered (by first occurrence, found
  on a growing prefix of the rows) and decoded, one key per *group*;
* ``SUM``/``AVG`` over an encoded numeric column reduce in the dictionary
  domain — ``bincount(codes) · decoded(dictionary)`` ungrouped, a
  weight-gather ``bincount`` grouped — touching O(|dictionary|) decoded
  values instead of O(rows);
* ``COUNT``/``MIN``/``MAX`` reduce over the codes (the sorted dictionary
  makes the smallest live code the minimum value and puts NaN on the top
  code) and decode one value per result.

Keys that are not encoded and combinations past the bound factorize with
``np.unique`` into dense ids first; from there on the reduction is the
same.  A key is encoded when it comes from the column store, from an
interned row-store string column, or from a partitioned table whose hot
values main's dictionary holds (``ColumnBatch.concat`` keeps the stack in
main's codes); a joined dimension attribute keeps the dimension's encoding
when every base row finds its partner.  Float keys, NULL-bearing row-store
columns and hot values main lacks arrive as value arrays.

Every tier keeps the one float order of :mod:`repro.query.ranges`: all NaN
keys are one group, ``MAX`` is NaN if any input is and ``MIN`` only if every
non-NULL input is.  Numpy gives it to the vectorized kernels (``np.unique``,
the NaN-last dictionary, ``np.maximum`` / ``np.fmin``) and
:func:`~repro.query.ranges.least` / :func:`~repro.query.ranges.greatest` /
:func:`~repro.query.ranges.group_key` to the scalar fold, so no value sends
an aggregation to another tier.

The module also hosts the partition-partial machinery: ``SUM``/``AVG`` split
into mergeable ``(sum, count)`` states so each partition aggregates
independently and :func:`merge_partition_partials` combines the states
associatively, preserving the reference first-occurrence group order.

The *cost* of aggregation is charged by the operator through the timing
model; vectorized, code-domain, partial and scalar execution all charge
identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.batch import EncodedColumn
from repro.engine.compression import GroupSummary, group_summary, rows_by_id
from repro.engine.executor.agg_pushdown import aggregate_pushdown_enabled
from repro.errors import ExecutionError
from repro.query.ast import AggregateFunction, AggregateSpec
from repro.query.ranges import greatest, group_key, least


class Accumulator:
    """Incremental accumulator for one aggregate function.

    The running sum starts as the int ``0`` so that summing an all-int
    column yields an int, exactly like the vectorized reductions — the
    scalar reference must not drift to float where numpy preserves the
    integer domain.
    """

    def __init__(self, function: AggregateFunction) -> None:
        self.function = function
        self._count = 0
        self._sum: Any = 0
        self._min: Any = None
        self._max: Any = None

    def update(self, value: Any) -> None:
        if value is None:
            return
        self._count += 1
        if self.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self._sum += value
        elif self.function is AggregateFunction.MIN:
            self._min = value if self._min is None else least(self._min, value)
        elif self.function is AggregateFunction.MAX:
            self._max = value if self._max is None else greatest(self._max, value)

    def result(self) -> Any:
        if self.function is AggregateFunction.COUNT:
            return self._count
        if self.function is AggregateFunction.SUM:
            return self._sum if self._count else None
        if self.function is AggregateFunction.AVG:
            return self._sum / self._count if self._count else None
        if self.function is AggregateFunction.MIN:
            return self._min
        return self._max


def aggregate_values(function: AggregateFunction, values: Iterable[Any]) -> Any:
    """Aggregate an iterable of values in one go."""
    accumulator = Accumulator(function)
    for value in values:
        accumulator.update(value)
    return accumulator.result()


#: Group ids are used as they come while their space is at most this large
#: (or at most the number of input rows); a larger combination of several
#: keys is factorized down to the ids that occur first.
_DENSE_ID_SPACE = 4096

class _Groups:
    """The groups of one aggregation, in id space.

    Every row carries a group id in ``[0, capacity)`` — a key's dictionary
    code, the mixed-radix combination of several keys' codes, or the inverse
    of a factorization — and every reduction runs over those ids as they
    are: rows are never renumbered.  One ``bincount`` is taken up front and
    shared (``counts``: it is ``COUNT(*)``, every ``AVG`` denominator and
    the mask of the ids that occur).  Only the K ids that occur are ordered —
    by first occurrence, the emission order of the scalar accumulator loop —
    and per-id results are compressed to those K (``emit``) *as arrays*
    before anything is divided, converted or decoded, so an id without rows
    (a dictionary entry orphaned by DML or filtered out) costs nothing and
    is never looked at.  That count and order are the
    :func:`~repro.engine.compression.group_summary` of the ids; when the ids
    are a whole column's codes, *summary* is the one that column's derived
    state keeps, built once per version of the codes, not once per statement.

    The stable sort that brings the rows of each group together
    (:func:`~repro.engine.compression.rows_by_id`, the computation behind a
    column's position index) — the single most expensive step of a large
    group-by — runs only when a min/max ``reduceat`` or a scalar per-group
    fold asks for it, and at most once; ``bincount``-served aggregates never
    need it.
    """

    __slots__ = ("ids", "capacity", "counts", "emit", "first_rows",
                 "_emit_order", "_used", "_sorted")

    def __init__(self, ids: np.ndarray, capacity: int,
                 summary: Optional[GroupSummary] = None) -> None:
        self.ids = ids
        self.capacity = capacity
        if summary is None:
            summary = group_summary(ids, capacity)
        self._used = summary.used
        self._emit_order = summary.emit_order
        #: The ids that occur and their first rows, in emission order.
        self.emit = summary.emit
        self.first_rows = summary.first_rows
        #: Rows per emitted group.
        self.counts = summary.counts
        self._sorted: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def bincount(self, ids: np.ndarray, weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Per emitted group, the number of rows in *ids* — or, with
        *weights*, their weight sum, accumulated in row order exactly like
        the scalar fold adds them."""
        return np.bincount(ids, weights=weights, minlength=self.capacity)[self.emit]

    def _segments(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_order, starts, ends)`` in id order: the slice
        ``[starts[i]:ends[i]]`` of the reordered rows holds exactly the rows
        of the i-th smallest id that occurs, in row order."""
        if self._sorted is None:
            row_order, starts = rows_by_id(self.ids, self.capacity)
            self._sorted = (row_order, starts[self._used], starts[self._used + 1])
        return self._sorted

    def extremes(self, reduce: np.ufunc, values: np.ndarray) -> np.ndarray:
        """``reduce`` (a ``MIN``/``MAX`` ufunc) of *values* per
        emitted group.  Every segment is non-empty, so ``reduceat`` reads
        each exactly."""
        row_order, starts, _ = self._segments()
        return reduce.reduceat(values[row_order], starts)[self._emit_order]

    def slices(self, values: Sequence[Any]) -> List[List[Any]]:
        """The values of each emitted group's rows, in row order."""
        row_order, starts, ends = self._segments()
        ordered = (
            values[row_order].tolist()
            if isinstance(values, np.ndarray)
            else [values[i] for i in row_order.tolist()]
        )
        starts, ends = starts.tolist(), ends.tolist()
        return [ordered[starts[i]: ends[i]] for i in self._emit_order.tolist()]


def _key_values_at(column: Any, first_rows: np.ndarray) -> List[Any]:
    """Group key values at the groups' first rows (one decode per group)."""
    if isinstance(column, EncodedColumn):
        return column.dictionary.decode_array(column.codes[first_rows]).tolist()
    array = column if isinstance(column, np.ndarray) else np.asarray(column, dtype=object)
    return array[first_rows].tolist()


def _is_reducible(values: Any) -> bool:
    """Whether numpy can reduce *values* directly (native dtype, no NULLs)."""
    return isinstance(values, np.ndarray) and values.dtype.kind in "iufb"


def _extreme(function: AggregateFunction) -> np.ufunc:
    """The ufunc of ``MIN``/``MAX`` in the one float order: ``fmin`` drops
    NaN unless every input is NaN, ``maximum`` propagates it."""
    return np.fmin if function is AggregateFunction.MIN else np.maximum


def _reduce_column(function: AggregateFunction, values: np.ndarray) -> Any:
    """Ungrouped numpy reduction over a native value array (no NULLs)."""
    count = len(values)
    if function is AggregateFunction.COUNT:
        return count
    if count == 0:
        return None
    if function is AggregateFunction.SUM:
        if values.dtype.kind in "iub":
            if _int_sum_is_safe(values):
                # Integer inputs sum to an int, like the scalar reference.
                return int(np.sum(values, dtype=np.int64))
            # int64 could wrap and float64 could round: exact scalar fold.
            return aggregate_values(function, values.tolist())
        return float(np.sum(values, dtype=np.float64))
    if function is AggregateFunction.AVG:
        return float(np.sum(values, dtype=np.float64)) / count
    return _extreme(function).reduce(values).item()


def _int_sum_is_safe(values: np.ndarray, count: Optional[int] = None) -> bool:
    """Whether a vectorized sum of integer *values* is provably exact.

    The vectorized paths accumulate in float64 (``bincount`` weights) or
    int64; both are exact only while every partial sum stays inside the
    2**53 window, bounded here by ``count * max(|min|, |max|)``.  Larger
    inputs take the exact scalar fold (Python ints never wrap).  *count*
    overrides the row count when *values* is a dictionary whose codes repeat
    (encoded columns).
    """
    if count is None:
        count = len(values)
    if count == 0 or len(values) == 0 or values.dtype.kind == "b":
        return True
    peak = max(abs(int(values.min())), abs(int(values.max())), 1)
    return peak * count < 2 ** 53


# -- code/dictionary-domain reductions over encoded columns -----------------------------

#: Sentinel: the encoded fast path cannot serve this (decode and fall back).
_UNSUPPORTED = object()


def _dictionary_reals(dictionary) -> Optional[np.ndarray]:
    """The dictionary's real entries as a numeric array aligned with the
    value codes (the reserved NULL slot, if any, excluded), or ``None`` when
    the entries are not numeric.

    The entries keep their native dtype next to a NULL slot too, so an
    integer or boolean column stays in the integer domain (a float64
    coercion would skip the exactness guard and hand back float sums).
    Integers beyond 64 bits stay objects — not numeric here, the caller's
    scalar fold is exact.
    """
    if getattr(dictionary, "has_null", False):
        values = dictionary.reals_array
    else:
        values = dictionary.values_array
    return values if values.dtype.kind in "iufb" else None


def _normalized(value: Any) -> Any:
    return value.item() if isinstance(value, np.generic) else value


def _reduce_encoded(function: AggregateFunction, column: EncodedColumn) -> Any:
    """Ungrouped reduction in the code/dictionary domain, or ``_UNSUPPORTED``.

    ``SUM``/``AVG`` over a numeric dictionary reduce as
    ``bincount(codes) · decoded(dictionary)`` — the dot is restricted to the
    codes actually stored so an orphaned NaN dictionary entry with a zero
    count cannot poison the total.  ``MIN``/``MAX`` reduce the codes (the
    sorted dictionary makes the smallest live value code the minimum, and
    NaN's code the top one) and decode exactly one value.
    """
    codes = column.codes
    dictionary = column.dictionary
    num_rows = len(codes)
    has_null = bool(getattr(dictionary, "has_null", False))
    null_count = int(np.count_nonzero(codes == 0)) if has_null else 0
    if function is AggregateFunction.COUNT:
        return num_rows - null_count
    if num_rows == 0:
        return None
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        if len(dictionary) * 4 > num_rows:
            # A dictionary nearly as large as the column: the per-code
            # bincount costs more than decoding and summing directly.
            return _UNSUPPORTED
        reals = _dictionary_reals(dictionary)
        if reals is None:
            return _UNSUPPORTED
        if reals.dtype.kind in "iu" and not _int_sum_is_safe(reals, num_rows):
            return _UNSUPPORTED  # the decode fallback folds exactly
        non_null = num_rows - null_count
        if non_null == 0:
            return None
        offset = 1 if has_null else 0
        counts = np.bincount(codes, minlength=len(dictionary))[offset:]
        used = counts > 0
        total = np.dot(counts[used], reals[used])
        if function is AggregateFunction.SUM:
            if reals.dtype.kind in "iub":
                return int(total)
            return float(total)
        return float(total) / non_null
    # MIN / MAX
    live = codes[codes != 0] if has_null else codes
    if len(live) == 0:
        return None
    if function is AggregateFunction.MIN:
        return _normalized(dictionary.decode(int(live.min())))
    return _normalized(dictionary.decode(int(live.max())))


def _grouped_encoded(
    function: AggregateFunction, column: EncodedColumn, groups: _Groups
) -> Any:
    """Per-group reduction in the code domain, or ``_UNSUPPORTED``."""
    codes = column.codes
    dictionary = column.dictionary
    has_null = bool(getattr(dictionary, "has_null", False))
    if function is AggregateFunction.COUNT:
        if not has_null:
            return groups.counts.tolist()
        return groups.bincount(groups.ids[codes != 0]).tolist()
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        reals = _dictionary_reals(dictionary)
        if reals is None:
            return _UNSUPPORTED
        if reals.dtype.kind in "iu" and not _int_sum_is_safe(reals, len(codes)):
            return _UNSUPPORTED  # the decode fallback folds exactly
        weights = reals.astype(np.float64, copy=False)
        if has_null:
            # Skip NULL rows exactly like the scalar fold; ``bincount``
            # accumulates in row order, so the per-group float sums are
            # bit-identical to the scalar reference's additions.
            valid = codes != 0
            ids = groups.ids[valid]
            sums = groups.bincount(ids, weights[codes[valid] - 1])
            non_null = groups.bincount(ids)
        else:
            row_weights = (None if column.derived is None
                           else column.derived.float_weights(column))
            if row_weights is None:
                row_weights = weights[codes]
            sums = groups.bincount(groups.ids, row_weights)
            non_null = groups.counts
        sums, non_null = sums.tolist(), non_null.tolist()
        if function is AggregateFunction.AVG:
            return [s / c if c else None for s, c in zip(sums, non_null)]
        if reals.dtype.kind in "iub":
            return [int(s) if c else None for s, c in zip(sums, non_null)]
        return [s if c else None for s, c in zip(sums, non_null)]
    # MIN / MAX: reduce the codes per group, decode one value per group.
    if has_null:
        return _UNSUPPORTED  # NULL-skipping per-group fold stays scalar
    reduce = np.minimum if function is AggregateFunction.MIN else np.maximum
    return dictionary.decode_array(groups.extremes(reduce, codes)).tolist()


@dataclass
class GroupedAggregation:
    """Group-by aggregation over aligned column arrays."""

    aggregates: Sequence[AggregateSpec]
    group_by_names: Sequence[str]

    def run(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> List[Dict[str, Any]]:
        """Aggregate *num_rows* rows.

        ``aggregate_inputs[i]`` is the value array feeding ``aggregates[i]``
        (``None`` for ``COUNT(*)``); ``group_key_columns`` holds one aligned
        array per group-by output name (empty for an ungrouped aggregation).
        Group key columns may be :class:`EncodedColumn` pairs, which group
        from their codes without decoding; encoded aggregate *inputs* reduce
        in the dictionary domain when pushdown is enabled and decode to
        value arrays otherwise (the decode-then-reduce reference).
        """
        if aggregate_pushdown_enabled():
            aggregate_inputs = list(aggregate_inputs)
        else:
            # Decode-then-reduce reference: encoded inputs materialise up
            # front, exactly like the pre-pushdown pipeline.
            aggregate_inputs = [
                values.values if isinstance(values, EncodedColumn) else values
                for values in aggregate_inputs
            ]
        for values in aggregate_inputs:
            if values is not None and len(values) != num_rows:
                raise ExecutionError("aggregate input length does not match row count")
        for values in group_key_columns:
            if len(values) != num_rows:
                raise ExecutionError("group-by input length does not match row count")

        if not self.group_by_names:
            row: Dict[str, Any] = {}
            for spec, values in zip(self.aggregates, aggregate_inputs):
                if spec.function is AggregateFunction.COUNT and values is None:
                    row[spec.output_name] = num_rows
                    continue
                if isinstance(values, EncodedColumn):
                    reduced = _reduce_encoded(spec.function, values)
                    if reduced is not _UNSUPPORTED:
                        row[spec.output_name] = reduced
                        continue
                    values = values.values
                if _is_reducible(values):
                    row[spec.output_name] = _reduce_column(spec.function, values)
                else:
                    source: Iterable[Any] = (
                        values if values is not None else range(num_rows)
                    )
                    if isinstance(source, np.ndarray):
                        source = source.tolist()
                    row[spec.output_name] = aggregate_values(spec.function, source)
            return [row]

        grouped = self._run_grouped_vectorized(
            aggregate_inputs, group_key_columns, num_rows
        )
        if grouped is not None:
            return grouped
        return self._run_grouped_scalar(aggregate_inputs, group_key_columns, num_rows)

    def _run_grouped_vectorized(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> Optional[List[Dict[str, Any]]]:
        """Group-by in id space; ``None`` if the keys resist it.

        :meth:`_derive_groups` gives every row a group id — for
        dictionary-encoded keys the codes themselves (aggregate pushdown) —
        and :class:`_Groups` reduces over those ids directly.  One key value
        decodes per *group*, and groups are emitted in first-occurrence
        order, exactly like the scalar accumulator loop, so all paths
        produce identical result lists.
        """
        keyed = self._derive_groups(group_key_columns, num_rows)
        if keyed is None:
            return None
        summary = None
        if len(group_key_columns) == 1 and aggregate_pushdown_enabled():
            # A lone encoded key's group ids are its codes.
            key = group_key_columns[0]
            if isinstance(key, EncodedColumn) and key.derived is not None:
                summary = key.derived.group_summary(key)
        groups = _Groups(*keyed, summary)
        columns = [
            _key_values_at(column, groups.first_rows)
            for column in group_key_columns
        ]
        for spec, values in zip(self.aggregates, aggregate_inputs):
            columns.append(self._grouped_aggregate(spec.function, values, groups))
        names = list(self.group_by_names)
        names.extend(spec.output_name for spec in self.aggregates)
        return [dict(zip(names, values)) for values in zip(*columns)]

    @staticmethod
    def _derive_groups(
        group_key_columns: Sequence[Sequence[Any]], num_rows: int
    ) -> Optional[Tuple[np.ndarray, int]]:
        """``(ids, capacity)``: one group id in ``[0, capacity)`` per row,
        or ``None`` when the keys resist vectorization.

        With aggregate pushdown enabled an encoded key's id *is* its code and
        its capacity the dictionary's length; the decode-then-reduce
        reference compacts the codes first (:meth:`EncodedColumn.factorize`)
        and plain arrays factorize with ``np.unique``.  Several keys combine
        mixed-radix, ``id_a * capacity_b + id_b``; the combination is used as
        it is while its space stays within ``max(_DENSE_ID_SPACE,
        num_rows)`` and is factorized once more past that.
        """
        by_code = aggregate_pushdown_enabled()
        keys: List[Tuple[np.ndarray, int]] = []
        for column in group_key_columns:
            if isinstance(column, EncodedColumn):
                if by_code:
                    keys.append((column.codes, len(column.dictionary)))
                else:
                    distinct_codes, inverse = column.factorize()
                    keys.append((inverse, len(distinct_codes)))
                continue
            array = column if isinstance(column, np.ndarray) else np.asarray(column, dtype=object)
            try:
                uniques, inverse = np.unique(array, return_inverse=True)
            except TypeError:
                # Unsortable key mix (e.g. NULLs in an object column).
                return None
            keys.append((inverse.reshape(-1), len(uniques)))
        capacity = math.prod(size for _, size in keys)
        if capacity > 2 ** 62:
            return None  # combined key would overflow int64
        ids = keys[0][0]
        for key_ids, size in keys[1:]:
            ids = ids * size + key_ids
        if len(keys) > 1 and capacity > max(_DENSE_ID_SPACE, num_rows):
            uniques, ids = np.unique(ids, return_inverse=True)
            ids, capacity = ids.reshape(-1), len(uniques)
        return ids, capacity

    @staticmethod
    def _grouped_aggregate(
        function: AggregateFunction,
        values: Optional[Sequence[Any]],
        groups: _Groups,
    ) -> List[Any]:
        """Per-group results for one aggregate (vectorized when possible)."""
        if values is None:
            # COUNT(*): every row counts.
            return groups.counts.tolist()
        if isinstance(values, EncodedColumn):
            reduced = _grouped_encoded(function, values, groups)
            if reduced is not _UNSUPPORTED:
                return reduced
            values = values.values
        if _is_reducible(values):
            if function is AggregateFunction.COUNT:
                return groups.counts.tolist()
            if function in (AggregateFunction.SUM, AggregateFunction.AVG):
                if values.dtype.kind not in "iub" or _int_sum_is_safe(values):
                    sums = groups.bincount(
                        groups.ids, values.astype(np.float64, copy=False)
                    )
                    if function is AggregateFunction.AVG:
                        return (sums / groups.counts).tolist()
                    if values.dtype.kind in "iub":
                        # Integer inputs sum to ints, like the scalar fold.
                        return [int(value) for value in sums.tolist()]
                    return sums.tolist()
                # Unsafe integer sums (float64 weights would round, int64
                # could wrap): fall through to the exact scalar fold.
            else:
                return groups.extremes(_extreme(function), values).tolist()
        # Object/string values: scalar-aggregate each group's slice, which
        # preserves exact NULL-skipping semantics.
        return [aggregate_values(function, slice_) for slice_ in groups.slices(values)]

    def _run_grouped_scalar(
        self,
        aggregate_inputs: Sequence[Optional[Sequence[Any]]],
        group_key_columns: Sequence[Sequence[Any]],
        num_rows: int,
    ) -> List[Dict[str, Any]]:
        """Reference implementation: per-row accumulator updates."""
        aggregate_inputs = [
            values.tolist() if isinstance(values, (np.ndarray, EncodedColumn)) else values
            for values in aggregate_inputs
        ]
        group_key_columns = [
            column.tolist() if isinstance(column, (np.ndarray, EncodedColumn)) else column
            for column in group_key_columns
        ]
        groups: Dict[Tuple[Any, ...], List[Accumulator]] = {}
        for position in range(num_rows):
            key = tuple(group_key(column[position]) for column in group_key_columns)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [Accumulator(spec.function) for spec in self.aggregates]
                groups[key] = accumulators
            for accumulator, values in zip(accumulators, aggregate_inputs):
                accumulator.update(values[position] if values is not None else 1)
        output_names = [spec.output_name for spec in self.aggregates]
        results = []
        for key, accumulators in groups.items():
            row = dict(zip(self.group_by_names, key))
            for name, accumulator in zip(output_names, accumulators):
                row[name] = accumulator.result()
            results.append(row)
        return results


# -- partition-partial aggregation ------------------------------------------------------
#
# A partitioned table aggregates each partition independently and merges the
# per-partition states associatively (zone-pruned partitions contribute
# nothing; no batch concatenation).  ``AVG`` is the one function whose final
# value does not merge, so each original aggregate expands into mergeable
# primitives — ``AVG(x)`` becomes ``(SUM(x), COUNT(x))`` — that the
# per-partition :class:`GroupedAggregation` computes with its ordinary
# (code-domain capable) kernels.


def _expanded_specs(
    aggregates: Sequence[AggregateSpec],
) -> Tuple[List[AggregateSpec], List[List[str]]]:
    """Mergeable primitive specs plus, per original spec, their aliases."""
    expanded: List[AggregateSpec] = []
    layout: List[List[str]] = []
    for index, spec in enumerate(aggregates):
        if spec.function is AggregateFunction.AVG:
            parts = [
                AggregateSpec(AggregateFunction.SUM, spec.column,
                              alias=f"__partial_{index}_sum"),
                AggregateSpec(AggregateFunction.COUNT, spec.column,
                              alias=f"__partial_{index}_count"),
            ]
        else:
            parts = [
                AggregateSpec(spec.function, spec.column,
                              alias=f"__partial_{index}_{spec.function.value}"),
            ]
        expanded.extend(parts)
        layout.append([part.alias for part in parts])
    return expanded, layout


def partition_partial_rows(
    aggregates: Sequence[AggregateSpec],
    group_by_names: Sequence[str],
    aggregate_inputs: Sequence[Optional[Sequence[Any]]],
    group_key_columns: Sequence[Sequence[Any]],
    num_rows: int,
) -> List[Dict[str, Any]]:
    """One partition's mergeable partial states, keyed by group values."""
    expanded, layout = _expanded_specs(aggregates)
    expanded_inputs: List[Optional[Sequence[Any]]] = []
    for values, aliases in zip(aggregate_inputs, layout):
        expanded_inputs.extend([values] * len(aliases))
    aggregation = GroupedAggregation(
        aggregates=expanded, group_by_names=list(group_by_names)
    )
    return aggregation.run(expanded_inputs, group_key_columns, num_rows)


def _merge_partial(function: AggregateFunction, left: Any, right: Any) -> Any:
    """Combine two partial states of one primitive (``None`` = no values)."""
    if function is AggregateFunction.COUNT:
        return left + right
    if left is None:
        return right
    if right is None:
        return left
    if function is AggregateFunction.SUM:
        return left + right
    if function is AggregateFunction.MIN:
        return least(left, right)
    return greatest(left, right)


def merge_partition_partials(
    aggregates: Sequence[AggregateSpec],
    group_by_names: Sequence[str],
    per_partition_rows: Sequence[List[Dict[str, Any]]],
) -> List[Dict[str, Any]]:
    """Merge per-partition partial states into the final result rows.

    Groups are keyed by their key values (so partitions with different
    dictionary representations merge correctly) and emitted in
    first-occurrence order across the partitions in partition order —
    exactly the order the concatenate-then-reduce reference emits.
    Unorderable partial merges raise ``TypeError``; the caller falls back to
    the reference aggregation over the concatenated batches.
    """
    expanded, layout = _expanded_specs(aggregates)
    merged: Dict[Tuple[Any, ...], Dict[str, Any]] = {}
    order: List[Tuple[Any, ...]] = []
    for rows in per_partition_rows:
        for row in rows:
            key = tuple(group_key(row[name]) for name in group_by_names)
            entry = merged.get(key)
            if entry is None:
                merged[key] = dict(row)
                order.append(key)
            else:
                for spec in expanded:
                    alias = spec.alias
                    entry[alias] = _merge_partial(
                        spec.function, entry[alias], row[alias]
                    )
    results: List[Dict[str, Any]] = []
    for key in order:
        entry = merged[key]
        row = {name: entry[name] for name in group_by_names}
        for spec, aliases in zip(aggregates, layout):
            partials = [entry[alias] for alias in aliases]
            if spec.function is AggregateFunction.AVG:
                total, count = partials
                row[spec.output_name] = total / count if count else None
            else:
                # COUNT/SUM/MIN/MAX partial states are the final values.
                row[spec.output_name] = partials[0]
        results.append(row)
    if not group_by_names and not results:
        # Every partition was pruned or empty: the ungrouped reference still
        # emits one row of identity aggregates.
        identity = {
            spec.output_name: 0 if spec.function is AggregateFunction.COUNT else None
            for spec in aggregates
        }
        results.append(identity)
    return results
