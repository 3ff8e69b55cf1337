"""System catalog of the hybrid-store database.

The catalog records, per table, the schema, the current storage layout (the
store of an unpartitioned table, or the partitioning annotation described in
Section 4 of the paper), and the table statistics the storage advisor's cost
model consumes.  The executor consults the partitioning annotation to rewrite
queries transparently; the advisor consults the statistics and the layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.engine.partitioning import TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.statistics import TableStatistics, statistics_from_schema
from repro.engine.types import Store
from repro.errors import CatalogError


@dataclass
class CatalogEntry:
    """Catalog record of one table."""

    schema: TableSchema
    store: Store = Store.ROW
    partitioning: Optional[TablePartitioning] = None
    statistics: Optional[TableStatistics] = None

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def is_partitioned(self) -> bool:
        return self.partitioning is not None

    def describe_layout(self) -> str:
        if self.partitioning is not None:
            return f"partitioned ({self.partitioning.describe()})"
        return f"{self.store.value} store"


@dataclass(frozen=True)
class ViewEntry:
    """Catalog record of one materialized view.

    The entry is the *definition* — name, base table and the defining query's
    fingerprint (the planner's rewrite key).  The materialized state itself
    lives with the database (:class:`~repro.engine.matview.MaterializedView`),
    like table data lives outside the catalog.
    """

    name: str
    table: str
    fingerprint: str
    query: object = field(repr=False, compare=False, default=None)

    def describe(self) -> str:
        return f"{self.name}: view {self.fingerprint} over {self.table}"


class Catalog:
    """Name -> :class:`CatalogEntry` registry (plus the materialized-view registry)."""

    def __init__(self) -> None:
        self._entries: Dict[str, CatalogEntry] = {}
        self._views: Dict[str, ViewEntry] = {}
        self._view_version = 0

    # -- registration ----------------------------------------------------------------

    def register_table(
        self,
        schema: TableSchema,
        store: Store = Store.ROW,
        statistics: Optional[TableStatistics] = None,
    ) -> CatalogEntry:
        if schema.name in self._entries:
            raise CatalogError(f"table {schema.name!r} already exists")
        entry = CatalogEntry(schema=schema, store=store, statistics=statistics)
        self._entries[schema.name] = entry
        return entry

    def drop_table(self, name: str) -> None:
        if name not in self._entries:
            raise CatalogError(f"unknown table {name!r}")
        del self._entries[name]

    # -- materialized views ------------------------------------------------------------

    @property
    def view_catalog_version(self) -> int:
        """Monotone counter bumped by view DDL and explicit refreshes.

        Part of the plan-cache key: any change to the view catalog must
        invalidate cached plans, or a plan recorded before ``CREATE VIEW``
        would keep bypassing the view (and one recorded before ``DROP VIEW``
        would keep rewriting to a view that no longer exists).
        """
        return self._view_version

    def bump_view_version(self) -> None:
        self._view_version += 1

    def validate_view(self, name: str, table: str, fingerprint: str) -> None:
        """Raise unless a view of this name and query could be registered."""
        if name in self._views:
            raise CatalogError(f"materialized view {name!r} already exists")
        if not self.has_table(table):
            raise CatalogError(
                f"materialized view {name!r}: unknown base table {table!r}"
            )
        for other in self._views.values():
            if other.fingerprint == fingerprint:
                raise CatalogError(
                    f"materialized view {other.name!r} already materializes "
                    f"query {fingerprint}"
                )

    def register_view(self, name: str, table: str, fingerprint: str,
                      query: object = None) -> ViewEntry:
        self.validate_view(name, table, fingerprint)
        entry = ViewEntry(name=name, table=table, fingerprint=fingerprint, query=query)
        self._views[name] = entry
        self.bump_view_version()
        return entry

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise CatalogError(f"unknown materialized view {name!r}")
        del self._views[name]
        self.bump_view_version()

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view_names(self) -> List[str]:
        return sorted(self._views)

    def views_on(self, table: str) -> List[ViewEntry]:
        """View entries whose base table is *table* (sorted by name)."""
        return [self._views[name] for name in self.view_names()
                if self._views[name].table == table]

    def view_for_fingerprint(self, fingerprint: str) -> Optional[ViewEntry]:
        for entry in self._views.values():
            if entry.fingerprint == fingerprint:
                return entry
        return None

    # -- lookup ------------------------------------------------------------------------

    def entry(self, name: str) -> CatalogEntry:
        try:
            return self._entries[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._entries

    def schema(self, name: str) -> TableSchema:
        return self.entry(name).schema

    def store_of(self, name: str) -> Store:
        return self.entry(name).store

    def table_names(self) -> List[str]:
        return sorted(self._entries)

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    # -- layout updates -------------------------------------------------------------------

    def set_store(self, name: str, store: Store) -> None:
        entry = self.entry(name)
        entry.store = store
        entry.partitioning = None

    def set_partitioning(self, name: str, partitioning: TablePartitioning) -> None:
        entry = self.entry(name)
        partitioning.validate(entry.schema)
        entry.partitioning = partitioning

    def clear_partitioning(self, name: str, store: Store) -> None:
        entry = self.entry(name)
        entry.partitioning = None
        entry.store = store

    # -- statistics --------------------------------------------------------------------------

    def update_statistics(self, name: str, statistics: TableStatistics) -> None:
        self.entry(name).statistics = statistics

    def statistics_of(self, name: str) -> TableStatistics:
        """Return the stored statistics, deriving defaults from the schema if absent."""
        entry = self.entry(name)
        if entry.statistics is None:
            entry.statistics = statistics_from_schema(entry.schema, num_rows=0, store=entry.store)
        return entry.statistics

    # -- reporting ----------------------------------------------------------------------------

    def describe(self) -> str:
        """Human-readable one-line-per-table summary of the current layout."""
        lines = []
        for name in self.table_names():
            entry = self.entry(name)
            rows = entry.statistics.num_rows if entry.statistics else 0
            lines.append(f"{name}: {entry.describe_layout()} ({rows} rows)")
        for name in self.view_names():
            lines.append(f"{self._views[name].describe()} (materialized)")
        return "\n".join(lines)
