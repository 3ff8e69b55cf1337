"""Recommendation data structures of the storage advisor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.engine.partitioning import TablePartitioning
from repro.engine.types import Store

#: A per-table layout choice: a plain store or a store-aware partitioning.
StoreChoice = Union[Store, TablePartitioning]


@dataclass
class StorageLayout:
    """A complete storage layout: one :data:`StoreChoice` per table."""

    choices: Dict[str, StoreChoice] = field(default_factory=dict)

    def store_assignment(self, default: Store = Store.COLUMN) -> Dict[str, Store]:
        """Collapse the layout to a per-table store assignment.

        Partitioned tables report the store of their analytical (historic)
        portion, which is what the table-level cost model needs when it
        estimates joins against them.
        """
        assignment = {}
        for table, choice in self.choices.items():
            if isinstance(choice, Store):
                assignment[table] = choice
            elif choice.vertical is not None or choice.horizontal is None:
                assignment[table] = Store.COLUMN
            else:
                assignment[table] = choice.horizontal.cold_store
        for table, store in list(assignment.items()):
            if store is None:  # pragma: no cover - defensive
                assignment[table] = default
        return assignment

    def partitioned_tables(self) -> Dict[str, TablePartitioning]:
        return {
            table: choice
            for table, choice in self.choices.items()
            if isinstance(choice, TablePartitioning)
        }

    def describe(self) -> str:
        lines = []
        for table in sorted(self.choices):
            choice = self.choices[table]
            if isinstance(choice, Store):
                lines.append(f"{table}: {choice.value} store")
            else:
                lines.append(f"{table}: {choice.describe()}")
        return "\n".join(lines)

    @classmethod
    def uniform(cls, tables, store: Store) -> "StorageLayout":
        """A layout that keeps every listed table in *store* (baseline layouts)."""
        return cls({table: store for table in tables})


@dataclass
class TableRecommendation:
    """The advisor's decision for one table."""

    table: str
    choice: StoreChoice
    estimated_ms_row: float
    estimated_ms_column: float
    reason: str = ""

    @property
    def recommended_store(self) -> Optional[Store]:
        return self.choice if isinstance(self.choice, Store) else None

    @property
    def is_partitioned(self) -> bool:
        return isinstance(self.choice, TablePartitioning)

    def describe(self) -> str:
        if isinstance(self.choice, Store):
            layout = f"{self.choice.value} store"
        else:
            layout = self.choice.describe()
        return (
            f"{self.table}: {layout} "
            f"(estimated workload share: row={self.estimated_ms_row:.2f} ms, "
            f"column={self.estimated_ms_column:.2f} ms){' - ' + self.reason if self.reason else ''}"
        )


@dataclass
class ViewRecommendation:
    """The advisor's proposal to materialize one recurring aggregation.

    Priced through the same shared :class:`EstimateMemo` as store moves: the
    base cost is the cost model's estimate of executing the defining query
    against the current layout, the view cost prices serving the materialized
    rows (query overhead + a sequential read of the view), and the benefit is
    their difference accumulated over the shape's recurrences in the
    monitored workload.  ``base_plan``/``view_plan`` are hypothetical
    :class:`~repro.api.plan.PhysicalPlan` objects renderable by the EXPLAIN
    renderer (:meth:`explain`).
    """

    view: str
    table: str
    fingerprint: str
    query: object
    occurrences: int
    estimated_base_ms: float
    estimated_view_ms: float
    estimated_rows: int
    base_plan: Optional[object] = None
    view_plan: Optional[object] = None

    @property
    def estimated_benefit_ms(self) -> float:
        """Estimated workload savings over all recurrences."""
        return (self.estimated_base_ms - self.estimated_view_ms) * self.occurrences

    @property
    def estimated_speedup(self) -> float:
        if self.estimated_view_ms <= 0:
            return 0.0
        return self.estimated_base_ms / self.estimated_view_ms

    def describe(self) -> str:
        return (
            f"{self.view}: materialize query {self.fingerprint} over "
            f"{self.table} (seen {self.occurrences}x, ~{self.estimated_rows} "
            f"row(s); estimated {self.estimated_base_ms:.2f} ms -> "
            f"{self.estimated_view_ms:.2f} ms per run, "
            f"{self.estimated_benefit_ms:.2f} ms total)"
        )

    def explain(self) -> str:
        """EXPLAIN rendering of the base plan vs. the rewritten what-if plan."""
        if self.base_plan is None or self.view_plan is None:
            return self.describe()
        from repro.api.explain import render_plan

        return (
            "without view:\n" + render_plan(self.base_plan)
            + "\nwith view:\n" + render_plan(self.view_plan)
        )


@dataclass
class Recommendation:
    """A full storage-layout recommendation for a workload."""

    layout: StorageLayout
    table_recommendations: List[TableRecommendation] = field(default_factory=list)
    estimated_total_ms: float = 0.0
    estimated_row_only_ms: float = 0.0
    estimated_column_only_ms: float = 0.0
    ddl_statements: List[str] = field(default_factory=list)

    @property
    def estimated_improvement_vs_row(self) -> float:
        """Relative improvement of the recommended layout over row-store-only."""
        if self.estimated_row_only_ms <= 0:
            return 0.0
        return 1.0 - self.estimated_total_ms / self.estimated_row_only_ms

    def choice_for(self, table: str) -> StoreChoice:
        return self.layout.choices[table]

    def describe(self) -> str:
        lines = ["Storage advisor recommendation:"]
        for recommendation in self.table_recommendations:
            lines.append("  " + recommendation.describe())
        lines.append(
            f"  estimated workload runtime: {self.estimated_total_ms:.2f} ms "
            f"(row-only {self.estimated_row_only_ms:.2f} ms, "
            f"column-only {self.estimated_column_only_ms:.2f} ms)"
        )
        if self.ddl_statements:
            lines.append("  statements:")
            for statement in self.ddl_statements:
                lines.append(f"    {statement}")
        return "\n".join(lines)
