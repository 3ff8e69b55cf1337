"""Cost-term extraction: turning a query plus data characteristics into work.

The estimator computes, for a query and a hypothetical store assignment, the
amount of work of each kind the hybrid store would perform — without touching
any data.  Only *query characteristics* (query type, number of aggregates and
their functions, grouping, selectivity, number of affected rows/columns) and
*data characteristics* from the catalog (row counts, widths, data types,
distinct counts, compression rates) enter the computation, exactly the
inputs the paper's cost model uses (Section 3.1).

The result is a list of :class:`CostContribution` objects (one for the base
table plus one per joined table), which the
:class:`~repro.core.cost_model.model.CostModel` turns into milliseconds using
its per-store parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.engine.column_store import SCAN_MATERIALIZATION_THRESHOLD
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics
from repro.engine.types import Store
from repro.engine.zonemap import ColumnZone, ZoneUnit, is_nan, zone_pruning_enabled
from repro.errors import EstimationError
from repro.query.ast import (
    AggregationQuery,
    DeleteQuery,
    InsertQuery,
    Query,
    QueryType,
    SelectQuery,
    UpdateQuery,
    split_qualified,
)
from repro.query.predicates import Between, CompareOp, Comparison, Predicate


@dataclass(frozen=True)
class TableProfile:
    """Schema plus statistics of one table — the estimator's view of the catalog."""

    schema: TableSchema
    statistics: TableStatistics

    @property
    def num_rows(self) -> int:
        return self.statistics.num_rows

    @property
    def row_width_bytes(self) -> int:
        return self.schema.row_width_bytes

    def column_width(self, name: str) -> int:
        return self.schema.column(name).width_bytes

    def column_compressed_bytes(self, name: str) -> float:
        if self.statistics.has_column(name):
            return self.statistics.column_compressed_bytes(name)
        return self.num_rows * self.column_width(name)

    def column_code_bytes(self, name: str) -> float:
        """Bytes a column-store scan of *name* reads (code array only)."""
        if self.statistics.has_column(name):
            return self.statistics.column_code_bytes(name)
        return self.num_rows * self.column_width(name)

    def dtype_cost_factor(self, name: str) -> float:
        return self.schema.column(name).dtype.cost_factor


@dataclass
class CostContribution:
    """Work of one table's share of a query, to be priced with store weights."""

    table: str
    store: Store
    query_type: QueryType
    terms: Dict[str, float] = field(default_factory=dict)

    def add(self, term: str, amount: float) -> None:
        if amount:
            self.terms[term] = self.terms.get(term, 0.0) + amount


def query_contributions(
    query: Query,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> List[CostContribution]:
    """Compute the per-table cost contributions of *query*.

    ``store_assignment`` maps every table referenced by the query to the store
    it is (hypothetically) kept in; ``profiles`` supplies the schemas and
    statistics.
    """
    for table in query.tables:
        if table not in store_assignment:
            raise EstimationError(f"no store assignment for table {table!r}")
        if table not in profiles:
            raise EstimationError(f"no statistics for table {table!r}")

    if isinstance(query, AggregationQuery):
        return _aggregation_contributions(query, store_assignment, profiles)
    if isinstance(query, SelectQuery):
        return [_select_contribution(query, store_assignment, profiles)]
    if isinstance(query, InsertQuery):
        return [_insert_contribution(query, store_assignment, profiles)]
    if isinstance(query, UpdateQuery):
        return [_update_contribution(query, store_assignment, profiles)]
    if isinstance(query, DeleteQuery):
        return [_delete_contribution(query, store_assignment, profiles)]
    raise EstimationError(f"unsupported query type: {type(query).__name__}")


# -- shared helpers ---------------------------------------------------------------


def _statistics_unit(label: str, num_rows: int, columns, table_wide: bool) -> ZoneUnit:
    """Catalog :class:`ColumnStatistics` *columns* as a :class:`ZoneUnit`.

    The one statistics -> unit adapter, and the home of the estimator's two
    conservatisms.  NaN-polluted bounds (NaN propagates through the stats
    collectors' min/max) are no synopsis: every comparison against them is
    false, which would read as a "provably empty" proof for predicates that
    do match rows.  And *table_wide* statistics know no null count — every
    NULL-based proof stays conservative — and an unknown range there is no
    synopsis (per-partition statistics are exact: no range means no real
    value).
    """

    def zone(column: str) -> Optional[ColumnZone]:
        stats = columns.get(column)
        if stats is None or is_nan(stats.min_value) or is_nan(stats.max_value):
            return None
        if not table_wide:
            return ColumnZone(stats.min_value, stats.max_value, stats.null_count,
                              num_rows, stats.has_nan)
        if stats.min_value is None or stats.max_value is None:
            return None
        return ColumnZone(stats.min_value, stats.max_value, None, num_rows)

    return ZoneUnit(label, num_rows, (), zone)


def partition_scan_fraction(
    predicate: Optional[Predicate], profile: TableProfile
) -> float:
    """Estimated fraction of the table's rows in partitions the scan keeps.

    The estimated counterpart of the executor's zone-map pruning.  For a
    partitioned table the catalog records per-partition min/max/null-count
    statistics (:class:`~repro.engine.statistics.PartitionStatistics`,
    derived from the exact zone synopses), so the estimator prices exactly
    the partitions the executor will scan.  An unpartitioned table is one
    unit under its table-wide ``min_value``/``max_value`` statistics: 0.0
    when they prove the predicate disjoint (the scan terms are dropped from
    the estimate, mirroring the access path, which skips the scan), else
    1.0.  Only *read* estimates consume this: the write path keeps
    seed-identical accounting, so DML estimates stay unscaled.
    """
    if predicate is None or not zone_pruning_enabled():
        return 1.0
    statistics = profile.statistics
    partitions = getattr(statistics, "partitions", ())
    if partitions:
        units = [
            _statistics_unit(partition.label, partition.num_rows,
                             partition.columns, table_wide=False)
            for partition in partitions
        ]
    else:
        units = [_statistics_unit(statistics.table, profile.num_rows,
                                  statistics.columns, table_wide=True)]
    total = surviving = 0
    for unit in units:
        total += unit.num_rows
        if unit.can_match(predicate):
            surviving += unit.num_rows
    return surviving / total if total > 0 else 1.0


def _selectivity(predicate: Optional[Predicate], profile: TableProfile) -> float:
    if predicate is None:
        return 1.0
    selectivity = predicate.estimate_selectivity(profile.statistics.columns)
    return min(1.0, max(0.0, selectivity))


def _matched_rows(predicate: Optional[Predicate], profile: TableProfile) -> float:
    if predicate is None:
        return float(profile.num_rows)
    return _selectivity(predicate, profile) * profile.num_rows


def _uses_primary_key_index(predicate: Optional[Predicate], schema: TableSchema) -> bool:
    """Whether the row store can answer *predicate* with its primary-key index.

    The row store maintains both an equality and a range index on a
    single-column primary key, so comparisons and BETWEEN ranges on that
    column avoid a table scan.
    """
    if predicate is None:
        return False
    primary_key = schema.primary_key
    if len(primary_key) != 1:
        return False
    key = primary_key[0]
    if isinstance(predicate, Comparison) and predicate.column == key:
        return True
    if isinstance(predicate, Between) and predicate.column == key:
        return True
    return False


def _charge_row_store_lookup(
    contribution: CostContribution,
    predicate: Optional[Predicate],
    profile: TableProfile,
    matched: float,
    scan_fraction: float = 1.0,
) -> None:
    """Terms for locating matching rows in the row store.

    ``scan_fraction`` scales the scan-volume terms to the partitions the
    zone maps keep (matched rows only live in surviving partitions, so the
    matched-row terms stay unscaled).
    """
    if predicate is None:
        return
    if _uses_primary_key_index(predicate, profile.schema):
        contribution.add("index_probes", 1.0)
        contribution.add("random_fetches", matched)
    else:
        contribution.add(
            "row_scan_bytes",
            profile.num_rows * profile.row_width_bytes * scan_fraction,
        )
        contribution.add("pred_evals", float(profile.num_rows) * scan_fraction)


def _charge_column_store_lookup(
    contribution: CostContribution,
    predicate: Optional[Predicate],
    profile: TableProfile,
    scan_fraction: float = 1.0,
) -> None:
    """Terms for locating matching rows in the column store (implicit index)."""
    if predicate is None:
        return
    contribution.add("index_probes", 1.0)
    for name in sorted(predicate.columns()):
        _, column = split_qualified(name)
        if profile.schema.has_column(column):
            contribution.add(
                "column_scan_bytes",
                profile.column_code_bytes(column) * scan_fraction,
            )
    contribution.add("vector_compares", float(profile.num_rows) * scan_fraction)


def _charge_column_store_materialisation(
    contribution: CostContribution,
    profile: TableProfile,
    columns,
    matched: float,
    scan_fraction: float = 1.0,
) -> None:
    """Terms for materialising *matched* rows of *columns* from the column store.

    Mirrors the engine's access-path choice: sparse position lists pay tuple
    reconstruction per cell, dense ones a sequential scan of the code arrays
    (scaled to the surviving partitions) plus a decode per qualifying value.
    """
    if profile.num_rows <= 0 or not columns:
        return
    selectivity = matched / profile.num_rows
    if selectivity <= SCAN_MATERIALIZATION_THRESHOLD:
        contribution.add("reconstructions", matched * len(columns))
        return
    for column in sorted(columns):
        if profile.schema.has_column(column):
            contribution.add(
                "column_scan_bytes",
                profile.column_code_bytes(column) * scan_fraction,
            )
    contribution.add("decodes", matched * len(columns))


# -- aggregation queries --------------------------------------------------------------


def _aggregation_contributions(
    query: AggregationQuery,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> List[CostContribution]:
    base_profile = profiles[query.table]
    base_store = store_assignment[query.table]
    base = CostContribution(query.table, base_store, QueryType.AGGREGATION)
    base.add("queries", 1.0)

    scan_fraction = partition_scan_fraction(query.predicate, base_profile)
    pruned = scan_fraction == 0.0
    matched = 0.0 if pruned else _matched_rows(query.predicate, base_profile)

    # Base-table columns the aggregation has to read (aggregates, grouping,
    # join keys) — the predicate columns are accounted for by the lookup terms.
    needed = set()
    for spec in query.aggregates:
        owner, column = split_qualified(spec.column)
        if (owner or query.table) == query.table and column != "*":
            needed.add(column)
    for name in query.group_by:
        owner, column = split_qualified(name)
        if (owner or query.table) == query.table:
            needed.add(column)
    for join in query.joins:
        needed.add(join.left_column)
    needed = {name for name in needed if base_profile.schema.has_column(name)}
    if not needed:
        narrowest = min(
            base_profile.schema.columns, key=lambda column: column.width_bytes
        )
        needed = {narrowest.name}

    if pruned:
        pass  # the scan is skipped outright; only the query overhead remains
    elif base_store is Store.ROW:
        if query.predicate is not None:
            _charge_row_store_lookup(base, query.predicate, base_profile, matched,
                                     scan_fraction)
            base.add("random_fetches", matched)
        else:
            base.add(
                "row_scan_bytes", base_profile.num_rows * base_profile.row_width_bytes
            )
    else:
        if query.predicate is not None:
            _charge_column_store_lookup(base, query.predicate, base_profile,
                                        scan_fraction)
            _charge_column_store_materialisation(base, base_profile, needed,
                                                 matched, scan_fraction)
        else:
            for column in sorted(needed):
                base.add("column_scan_bytes", base_profile.column_code_bytes(column))
            base.add("decodes", float(base_profile.num_rows) * len(needed))

    # The aggregation itself: one accumulator update per qualifying row and
    # aggregate, weighted by the aggregated columns' data-type cost factors
    # (the paper's c_dataType adjustment).
    dtype_weight = 0.0
    for spec in query.aggregates:
        owner, column = split_qualified(spec.column)
        profile = profiles.get(owner or query.table, base_profile)
        if column != "*" and profile.schema.has_column(column):
            dtype_weight += profile.dtype_cost_factor(column)
        else:
            dtype_weight += 1.0
    base.add("agg_updates", matched * dtype_weight)
    if query.has_group_by:
        base.add("group_rows", matched)

    contributions = [base]
    for join in query.joins:
        dimension_profile = profiles[join.table]
        dimension_store = store_assignment[join.table]
        dimension = CostContribution(join.table, dimension_store, QueryType.AGGREGATION)
        dimension_columns = {join.right_column}
        for name in query.group_by:
            owner, column = split_qualified(name)
            if owner == join.table:
                dimension_columns.add(column)
        for spec in query.aggregates:
            owner, column = split_qualified(spec.column)
            if owner == join.table:
                dimension_columns.add(column)
        dimension_columns = {
            name for name in dimension_columns if dimension_profile.schema.has_column(name)
        }
        if dimension_store is Store.ROW:
            dimension.add(
                "row_scan_bytes",
                dimension_profile.num_rows * dimension_profile.row_width_bytes,
            )
        else:
            for column in sorted(dimension_columns):
                dimension.add(
                    "column_scan_bytes",
                    dimension_profile.column_code_bytes(column),
                )
            dimension.add(
                "decodes", float(dimension_profile.num_rows) * len(dimension_columns)
            )
        contributions.append(dimension)

        # Join terms are charged to the base contribution: build on the joined
        # table, probe with the (filtered) base rows, convert layouts if the
        # two sides live in different stores.
        base.add("join_build_rows", float(dimension_profile.num_rows))
        base.add("join_probe_rows", matched)
        if dimension_store is not base_store:
            base.add(
                "conversion_cells",
                float(dimension_profile.num_rows) * len(dimension_columns),
            )
    return contributions


# -- point / range queries ---------------------------------------------------------------


def _select_contribution(
    query: SelectQuery,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> CostContribution:
    profile = profiles[query.table]
    store = store_assignment[query.table]
    contribution = CostContribution(query.table, store, QueryType.SELECT)
    contribution.add("queries", 1.0)

    scan_fraction = partition_scan_fraction(query.predicate, profile)
    if scan_fraction == 0.0:
        # The statistics prove an empty result; the scan never runs.
        return contribution

    matched = _matched_rows(query.predicate, profile)
    if query.limit is not None:
        matched = min(matched, float(query.limit))
    num_selected = len(query.columns) if query.columns else profile.schema.num_columns

    if store is Store.ROW:
        if query.predicate is None:
            contribution.add("row_scan_bytes", profile.num_rows * profile.row_width_bytes)
        else:
            _charge_row_store_lookup(contribution, query.predicate, profile, matched,
                                     scan_fraction)
            contribution.add("random_fetches", matched)
    else:
        _charge_column_store_lookup(contribution, query.predicate, profile,
                                    scan_fraction)
        selected = (
            list(query.columns) if query.columns else list(profile.schema.column_names)
        )
        _charge_column_store_materialisation(contribution, profile, selected,
                                             matched, scan_fraction)
    return contribution


# -- inserts, updates, deletes ----------------------------------------------------------------


def _insert_contribution(
    query: InsertQuery,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> CostContribution:
    profile = profiles[query.table]
    store = store_assignment[query.table]
    contribution = CostContribution(query.table, store, QueryType.INSERT)
    contribution.add("queries", 1.0)
    count = float(query.num_rows)
    contribution.add("index_probes", count)
    if store is Store.ROW:
        contribution.add("insert_rows", count)
        contribution.add("insert_bytes", count * profile.row_width_bytes)
    else:
        contribution.add("insert_cells", count * profile.schema.num_columns)
    return contribution


def _update_contribution(
    query: UpdateQuery,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> CostContribution:
    profile = profiles[query.table]
    store = store_assignment[query.table]
    contribution = CostContribution(query.table, store, QueryType.UPDATE)
    contribution.add("queries", 1.0)
    matched = _matched_rows(query.predicate, profile)
    if store is Store.ROW:
        # In-place update of the assigned cells only.
        _charge_row_store_lookup(contribution, query.predicate, profile, matched)
        contribution.add("update_cells", matched * len(query.assignments))
    else:
        # The column store re-appends a full row version per affected row.
        _charge_column_store_lookup(contribution, query.predicate, profile)
        contribution.add("update_cells", matched * profile.schema.num_columns)
    return contribution


def _delete_contribution(
    query: DeleteQuery,
    store_assignment: Mapping[str, Store],
    profiles: Mapping[str, TableProfile],
) -> CostContribution:
    profile = profiles[query.table]
    store = store_assignment[query.table]
    contribution = CostContribution(query.table, store, QueryType.DELETE)
    contribution.add("queries", 1.0)
    matched = _matched_rows(query.predicate, profile)
    if store is Store.ROW:
        _charge_row_store_lookup(contribution, query.predicate, profile, matched)
    else:
        _charge_column_store_lookup(contribution, query.predicate, profile)
    contribution.add("update_cells", matched * profile.schema.num_columns)
    return contribution
