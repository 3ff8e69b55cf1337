"""Query operators: aggregation, selection and the DML operations.

Operators work against :class:`~repro.engine.executor.access.AccessPath`
objects, so they are oblivious to stores and partitioning; all store-specific
cost behaviour is encapsulated in the access paths, the join helper and the
timing model.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.engine.batch import BatchColumn, ColumnBatch, take_column
from repro.engine.deadline import deadline_check
from repro.engine.executor.access import AccessPath
from repro.engine.executor.agg_pushdown import (
    TIER_PARTITION_PARTIAL,
    TIER_ZERO_SCAN,
    aggregate_pushdown_enabled,
)
from repro.engine.executor.aggregates import (
    GroupedAggregation,
    merge_partition_partials,
    partition_partial_rows,
)
from repro.engine.executor.join import join_dimension
from repro.engine.shard import (
    shard_execution_enabled,
    try_sharded_aggregation,
    try_sharded_select,
)
from repro.engine.timing import CostAccountant
from repro.errors import QueryError
from repro.query.ast import (
    AggregateFunction,
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    SelectQuery,
    UpdateQuery,
    split_qualified,
)


def execute_aggregation(
    query: AggregationQuery,
    paths: Mapping[str, AccessPath],
    accountant: CostAccountant,
) -> List[Dict[str, Any]]:
    """Execute an aggregation query (optionally grouped and joined).

    The base path's recorded :class:`AggregateStrategy` (re-derived when its
    zone-epoch token went stale) picks the execution tier: zero-scan answers
    come straight from the strategy's synopsis-derived row, partition-partial
    aggregations merge per-partition states, and everything else takes the
    generic collect-then-reduce path (whose aggregation kernels still exploit
    dictionary codes — the code-domain tier).  Every tier charges the
    accountant identically.
    """
    base_path = paths[query.table]

    if query.predicate is not None:
        unknown = {
            name for name in query.predicate.columns()
            if split_qualified(name)[0] not in (None, query.table)
        }
        if unknown:
            raise QueryError(
                "predicates on joined tables are not supported; qualify only "
                f"base-table columns (got {sorted(unknown)})"
            )
    base_columns, encode_columns = aggregation_scan_columns(
        query, base_path.table.schema
    )

    strategy = base_path.aggregate_decision_for(query)
    accountant.record_aggregate_strategy(query.table, strategy.describe())

    if aggregate_pushdown_enabled():
        if strategy.tier == TIER_ZERO_SCAN and strategy.answer is not None:
            # The answer was precomputed from the zone synopses; the collect
            # still runs, for its bill alone (nothing decodes — encoded
            # columns stay untouched), and the per-row aggregate-update
            # charges are identical because the batch holds exactly the rows
            # the verdicts proved.
            batch = base_path.collect_batch(
                base_columns, query.predicate, accountant,
                encode_columns=encode_columns,
            )
            charge_aggregation(query, batch.num_rows, accountant)
            return [dict(strategy.answer)]
        if strategy.tier == TIER_PARTITION_PARTIAL:
            return _execute_partition_partial(
                query, base_path, base_columns, encode_columns, accountant
            )

    if (base_path.never_shards is None and not query.joins
            and shard_execution_enabled()):
        # Shard-parallel scatter/gather: workers compute partial states over
        # shared-memory code shards, the parent merges and then bills the
        # serial collect-then-reduce from the gathered counts.  ``None``
        # means ineligible-or-failed — nothing was charged; fall through.
        sharded = try_sharded_aggregation(base_path, query, base_columns, accountant)
        if sharded is not None:
            return sharded

    deadline_check()
    batch = base_path.collect_batch(
        base_columns, query.predicate, accountant, encode_columns=encode_columns
    )
    num_rows = batch.num_rows

    # Resolve joins: fetch the referenced dimension attributes aligned with the
    # base rows and drop base rows without a join partner.  Everything stays
    # columnar — filtering by the match mask is one fancy-indexing pass, over
    # the codes alone for dictionary-encoded columns.
    joined_columns: Dict[str, BatchColumn] = {}
    for join in query.joins:
        if join.left_column not in batch:
            raise QueryError(
                f"join key {join.left_column!r} is not a column of {query.table!r}"
            )
        dimension_path = paths[join.table]
        needed = sorted(
            name for name in _columns_owned_by(query, join.table)
            if name != join.right_column
        ) or [join.right_column]
        result = join_dimension(
            base_key_values=batch.raw(join.left_column),
            join=join,
            dimension_path=dimension_path,
            needed_columns=needed,
            base_store=base_path.primary_store,
            accountant=accountant,
        )
        if not bool(result.match_mask.all()):
            keep = result.match_mask
            batch = batch.take(keep)
            joined_columns = {
                name: take_column(values, keep)
                for name, values in joined_columns.items()
            }
            result.columns = {
                name: take_column(values, keep)
                for name, values in result.columns.items()
            }
            num_rows = batch.num_rows
        joined_columns.update(result.columns)

    # Group keys keep their carried representation (encoded columns group on
    # codes); aggregate inputs reduce inside the aggregation, in the
    # dictionary domain where they can.
    available = batch.raw_columns()
    available.update(joined_columns)

    aggregate_inputs, group_key_columns = _assemble_inputs(query, available)

    charge_aggregation(query, num_rows, accountant)

    aggregation = GroupedAggregation(
        aggregates=query.aggregates,
        group_by_names=list(query.group_by),
    )
    return aggregation.run(aggregate_inputs, group_key_columns, num_rows)


def aggregation_scan_columns(
    query: AggregationQuery, base_schema
) -> "tuple[List[str], List[str]]":
    """Base-table columns an aggregation reads, and which to serve encoded.

    The encode set is the group-by keys: the aggregation groups on dictionary
    codes, so the access path serves them interned/encoded where the store
    can.
    """
    base_columns: List[str] = []
    for name in sorted(query.columns_of(query.table)):
        if name == "*":
            continue
        if not base_schema.has_column(name):
            raise QueryError(
                f"aggregation query references unknown column {name!r} of table "
                f"{query.table!r}"
            )
        base_columns.append(name)
    if not base_columns:
        # COUNT(*)-style query: read the narrowest column to obtain the row count.
        narrowest = min(base_schema.columns, key=lambda column: column.width_bytes)
        base_columns = [narrowest.name]

    encode_columns: List[str] = []
    for name in query.group_by:
        owner, column = split_qualified(name)
        if (owner is None or owner == query.table) and column in base_columns:
            encode_columns.append(column)
    return base_columns, encode_columns


def charge_aggregation(
    query: AggregationQuery, num_rows: int, accountant: CostAccountant
) -> None:
    """Bill reducing *num_rows* input rows — the one home of that charge.

    Every tier and the shard gather call it with the row count they
    reduced: the bill depends on the count, not on who counted.
    """
    accountant.charge_aggregate_updates(num_rows * len(query.aggregates))
    if query.group_by:
        accountant.charge_group_by_updates(num_rows)


def _assemble_inputs(
    query: AggregationQuery, available: Mapping[str, BatchColumn]
) -> "tuple[List[Optional[Sequence[Any]]], List[Sequence[Any]]]":
    """Aggregate inputs (``None`` for ``COUNT(*)``) and group key columns."""
    aggregate_inputs: List[Optional[Sequence[Any]]] = []
    for spec in query.aggregates:
        if spec.function is AggregateFunction.COUNT and spec.column == "*":
            aggregate_inputs.append(None)
            continue
        aggregate_inputs.append(_resolve_column(spec.column, query, available))
    group_key_columns = [
        _resolve_column(name, query, available) for name in query.group_by
    ]
    return aggregate_inputs, group_key_columns


def _execute_partition_partial(
    query: AggregationQuery,
    base_path: AccessPath,
    base_columns: Sequence[str],
    encode_columns: Sequence[str],
    accountant: CostAccountant,
) -> List[Dict[str, Any]]:
    """Aggregate each partition independently and merge the partial states.

    Zone-pruned partitions contribute nothing; batches are never
    concatenated, so each partition reduces in its own representation (the
    main portion's dictionary codes stay encoded next to a populated hot
    partition).  Charges are identical to the concatenate-then-reduce
    reference: the per-partition collects charge exactly what the single
    concatenated collect would, and the aggregation charges are computed
    over the summed row count.
    """
    group_names = list(query.group_by)
    batches = base_path.collect_partition_batches(
        base_columns, query.predicate, accountant, encode_columns=encode_columns
    )
    num_rows = sum(batch.num_rows for batch in batches)
    charge_aggregation(query, num_rows, accountant)

    aggregation = GroupedAggregation(
        aggregates=query.aggregates, group_by_names=group_names
    )
    try:
        per_partition: List[List[Dict[str, Any]]] = []
        for batch in batches:
            if batch.num_rows == 0:
                continue
            inputs, keys = _assemble_inputs(query, batch.raw_columns())
            per_partition.append(
                partition_partial_rows(
                    query.aggregates, group_names, inputs, keys, batch.num_rows
                )
            )
        return merge_partition_partials(query.aggregates, group_names, per_partition)
    except TypeError:
        # Unorderable partial merge (exotic mixed types across partitions):
        # aggregate the concatenated batches exactly like the reference path.
        # All charges were made above — none are repeated here.
        batch = ColumnBatch.concat(batches)
        inputs, keys = _assemble_inputs(query, batch.raw_columns())
        return aggregation.run(inputs, keys, batch.num_rows)


def _columns_owned_by(query: AggregationQuery, table: str) -> List[str]:
    """Columns of *table* (a joined table) referenced by the query."""
    columns = set()
    for spec in query.aggregates:
        owner, column = split_qualified(spec.column)
        if owner == table:
            columns.add(column)
    for name in query.group_by:
        owner, column = split_qualified(name)
        if owner == table:
            columns.add(column)
    return sorted(columns)


def _resolve_column(
    name: str, query: AggregationQuery, available: Mapping[str, Sequence[Any]]
) -> Sequence[Any]:
    """Look up a (possibly qualified) column among the collected arrays."""
    owner, column = split_qualified(name)
    if owner is None or owner == query.table:
        if column in available:
            return available[column]
    if name in available:
        return available[name]
    raise QueryError(f"column {name!r} is not available to the aggregation")


def execute_select(
    query: SelectQuery, path: AccessPath, accountant: CostAccountant
) -> List[Dict[str, Any]]:
    """Execute a point/range query."""
    names = path.table.schema.column_names
    for name in query.columns:
        if name not in names:
            raise QueryError(
                f"select query references unknown column {name!r} of {query.table!r}"
            )
    if (path.never_shards is None and query.predicate is not None
            and shard_execution_enabled()):
        # Shard-parallel filtered scan; the parent fetches the gathered
        # positions itself so materialisation charges match serial exactly.
        sharded = try_sharded_select(path, query, accountant)
        if sharded is not None:
            return sharded
    deadline_check()
    return path.select_rows(list(query.columns), query.predicate, query.limit, accountant)


def execute_insert(
    query: InsertQuery, path: AccessPath, accountant: CostAccountant
) -> int:
    """Execute an insert query, returning the number of inserted rows."""
    return path.insert(list(query.rows), accountant)


def execute_update(
    query: UpdateQuery, path: AccessPath, accountant: CostAccountant
) -> int:
    """Execute an update query, returning the number of affected rows."""
    names = path.table.schema.column_names
    for name in query.assignments:
        if name not in names:
            raise QueryError(
                f"update query references unknown column {name!r} of {query.table!r}"
            )
    return path.update(dict(query.assignments), query.predicate, accountant)


def execute_delete(
    query: DeleteQuery, path: AccessPath, accountant: CostAccountant
) -> int:
    """Execute a delete query, returning the number of removed rows."""
    return path.delete(query.predicate, accountant)
