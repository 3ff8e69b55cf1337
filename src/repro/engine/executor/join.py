"""Hash joins between the query's base table and joined (dimension) tables.

The join implementation is deliberately simple — an equi hash join that builds
on the joined table and probes with the base table's key values.  Two costs
matter for the storage advisor:

* the build/probe work itself (proportional to the participating rows), and
* a **layout-conversion penalty** when the two sides live in different stores
  (the paper: keeping joined tables in the same store "saves the conversion of
  the different memory layouts and allows for faster joins").

The implementation is vectorized: when both key columns are native numpy
arrays the build/probe runs as a sort + binary search, otherwise a Python
hash table is built once and the dimension attributes are gathered with one
fancy-indexing pass per column.  Dictionary-encoded key columns
(:class:`~repro.engine.batch.EncodedColumn`) stay late-materialized: when
both sides share one dictionary the probe runs directly on the int64 code
arrays; otherwise an encoded probe side resolves each *dictionary* value
once (``|dictionary|`` value probes instead of one per row) and maps its
codes through the result.  Either way the *charged* cost is the same
hash-join build/probe work as the scalar implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.engine.batch import (
    BatchColumn,
    ColumnBatch,
    EncodedColumn,
    decoded_array,
)
from repro.engine.executor.access import AccessPath
from repro.engine.timing import CostAccountant
from repro.engine.types import Store
from repro.query.ast import JoinClause


@dataclass
class JoinedColumns:
    """Result of joining one dimension table against the base rows.

    ``match_mask[i]`` says whether base row *i* found a join partner; the
    aligned ``columns`` contain the dimension attributes for matching rows
    (``None`` where there is no match — callers filter by the mask).  A
    column may still be dictionary-encoded (:class:`EncodedColumn`) when the
    gather could stay on codes.
    """

    match_mask: np.ndarray
    columns: Dict[str, BatchColumn]


def _probe_positions(
    build_keys: np.ndarray, probe_keys: np.ndarray
) -> np.ndarray:
    """Position (in the build side) of each probe key; ``-1`` for no match.

    Matches the first occurrence of a duplicated build key, like the scalar
    ``dict.setdefault`` build did; NaN matches nothing (``NaN != NaN``).

    The needles are factorized first: every distinct key is searched once,
    in ascending order, and the answer gathered back.  A foreign-key probe
    repeats its keys, and a binary search over unordered needles misses the
    cache on every step.
    """
    if (
        build_keys.dtype.kind in "iufb"
        and probe_keys.dtype.kind in "iufb"
        and len(build_keys)
    ):
        distinct, first_position = np.unique(build_keys, return_index=True)
        needles, inverse = np.unique(probe_keys, return_inverse=True)
        slots = np.searchsorted(distinct, needles)
        slots = np.clip(slots, 0, len(distinct) - 1)
        matched = distinct[slots] == needles
        positions = np.where(matched, first_position[slots], -1).astype(np.int64)
        return positions[inverse.reshape(-1)]
    hash_table: Dict[Any, int] = {}
    for position, key in enumerate(build_keys.tolist()):
        hash_table.setdefault(key, position)
    return np.fromiter(
        (hash_table.get(key, -1) for key in probe_keys.tolist()),
        dtype=np.int64,
        count=len(probe_keys),
    )


def _keyed_positions(build: BatchColumn, probe: BatchColumn) -> np.ndarray:
    """Build-side position of every probe key, exploiting dictionary codes.

    Three paths, all with identical match semantics (first build occurrence,
    ``-1`` for no match):

    * both sides encoded with the *same* dictionary object — probe the int64
      code arrays directly, no value is ever compared;
    * encoded probe side — resolve each probe-*dictionary* value against the
      build keys once and gather the per-row answer through the codes
      (``|dictionary|`` value probes instead of one per row);
    * plain arrays — value-level sort/hash probe as before.
    """
    if isinstance(probe, EncodedColumn):
        if isinstance(build, EncodedColumn) and build.dictionary is probe.dictionary:
            positions = _probe_positions(build.codes, probe.codes)
            nan_code = probe.dictionary.nan_code
            if nan_code is not None:
                # The NaN code would match itself, but NaN keys never join by
                # value (NaN != NaN), exactly like the decoded probe paths.
                positions = np.where(probe.codes == nan_code, -1, positions)
            return positions
        if len(probe.dictionary) == 0:
            return np.full(len(probe), -1, dtype=np.int64)
        dictionary_positions = _probe_positions(
            decoded_array(build), probe.dictionary.values_array
        )
        return dictionary_positions[probe.codes]
    return _probe_positions(decoded_array(build), probe)


def _gather_column(
    values: BatchColumn, positions: np.ndarray, match_mask: np.ndarray
) -> BatchColumn:
    """Gather a dimension column at *positions*, staying encoded if possible.

    An encoded column with a full match gathers codes only; a partial match
    needs ``None`` fill values, which forces the decoded object-array path.
    """
    if isinstance(values, EncodedColumn):
        if match_mask.all():
            return values.take(positions)
        values = values.values
    return _gather(values, positions, match_mask)


def _gather(values: np.ndarray, positions: np.ndarray, match_mask: np.ndarray) -> np.ndarray:
    """Gather *values* at *positions*, filling ``None`` where there is no match."""
    if match_mask.all():
        return values[positions]
    safe = np.where(match_mask, positions, 0)
    gathered = values[safe] if len(values) else np.empty(len(positions), dtype=object)
    if gathered.dtype != object:
        gathered = gathered.astype(object)
    else:
        gathered = gathered.copy()
    gathered[~match_mask] = None
    return gathered


def join_dimension(
    base_key_values: Union[np.ndarray, EncodedColumn, Sequence[Any]],
    join: JoinClause,
    dimension_path: AccessPath,
    needed_columns: Sequence[str],
    base_store: Store,
    accountant: CostAccountant,
) -> JoinedColumns:
    """Join the base table's key values against *dimension_path*.

    ``needed_columns`` are the dimension attributes the query references
    (group-by columns, aggregated columns); the join key column is fetched in
    addition.  The returned column arrays are aligned with
    ``base_key_values`` and keyed by the qualified ``"table.column"`` name.
    """
    fetch_columns = [join.right_column] + [
        name for name in needed_columns if name != join.right_column
    ]
    dimension_batch = dimension_path.collect_batch(fetch_columns, None, accountant)
    dimension_rows = dimension_batch.num_rows

    # Cross-store joins pay for converting the (smaller) build side's layout.
    if dimension_path.primary_store is not base_store:
        accountant.charge_layout_conversion(dimension_rows * len(fetch_columns))

    # Build phase on the dimension table, probe phase with the base keys.
    accountant.charge_hash_inserts("join_build", dimension_rows)
    probe_keys: BatchColumn = (
        base_key_values
        if isinstance(base_key_values, (np.ndarray, EncodedColumn))
        else np.asarray(base_key_values, dtype=object)
    )
    accountant.charge_hash_probes("join_probe", len(probe_keys))
    positions = _keyed_positions(dimension_batch.raw(join.right_column), probe_keys)
    match_mask = positions >= 0

    aligned: Dict[str, BatchColumn] = {}
    for name in needed_columns:
        aligned[f"{join.table}.{name}"] = _gather_column(
            dimension_batch.raw(name), positions, match_mask
        )
    return JoinedColumns(match_mask=match_mask, columns=aligned)
