"""Synthetic data generation for the paper's evaluation scenarios.

The paper's micro-benchmarks use "carefully generated" tables consisting of an
ID column plus keyfigures (aggregated measures), group-by attributes, filter
attributes and a few frequently modified OLTP attributes (Section 5.1/5.2:
"the table consisted of 30 attributes (ID and several keyfigures, filter
attributes, and group-by attributes)").  :class:`SyntheticTableConfig`
describes such a table; :class:`SyntheticTable` carries the generated rows
together with the *roles* of the columns, which the workload generators use to
build realistic OLAP and OLTP queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_SEED
from repro.engine.database import HybridDatabase
from repro.engine.schema import TableSchema
from repro.engine.types import DataType, Store
from repro.errors import WorkloadError


@dataclass(frozen=True)
class SyntheticTableConfig:
    """Shape of a synthetic evaluation table."""

    name: str = "facts"
    num_rows: int = 100_000
    num_keyfigures: int = 10
    num_group_attrs: int = 9
    num_filter_attrs: int = 8
    num_oltp_attrs: int = 2
    #: Distinct values per group-by attribute (small, as typical for dimensions).
    group_cardinality: int = 25
    #: Distinct values per filter attribute.
    filter_cardinality: int = 1_000
    #: Distinct values per OLTP (status-like) attribute.
    oltp_cardinality: int = 6
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.num_rows < 0:
            raise WorkloadError("num_rows must be non-negative")
        if self.num_keyfigures < 1:
            raise WorkloadError("a synthetic table needs at least one keyfigure")


@dataclass
class TableRoles:
    """Column roles of a synthetic table, used by the query generators."""

    table: str
    primary_key: str
    keyfigures: Tuple[str, ...]
    group_attrs: Tuple[str, ...]
    filter_attrs: Tuple[str, ...]
    oltp_attrs: Tuple[str, ...]
    filter_cardinality: int
    oltp_cardinality: int
    num_rows: int
    next_id: int


@dataclass
class SyntheticTable:
    """A generated table: schema, rows and column roles."""

    config: SyntheticTableConfig
    schema: TableSchema
    rows: List[Dict] = field(default_factory=list)
    roles: TableRoles = None  # type: ignore[assignment]

    def load_into(self, database: HybridDatabase, store: Store = Store.COLUMN) -> None:
        """Create the table in *database* (in *store*) and bulk load the rows."""
        database.create_table(self.schema, store)
        database.load_rows(self.schema.name, self.rows)


def build_schema(config: SyntheticTableConfig) -> Tuple[TableSchema, TableRoles]:
    """Build the schema and the column-role description for *config*."""
    columns: List[Tuple[str, DataType]] = [("id", DataType.INTEGER)]
    keyfigures = tuple(f"kf_{i}" for i in range(config.num_keyfigures))
    group_attrs = tuple(f"grp_{i}" for i in range(config.num_group_attrs))
    filter_attrs = tuple(f"flt_{i}" for i in range(config.num_filter_attrs))
    oltp_attrs = tuple(f"status_{i}" for i in range(config.num_oltp_attrs))
    columns.extend((name, DataType.DOUBLE) for name in keyfigures)
    columns.extend((name, DataType.VARCHAR) for name in group_attrs)
    columns.extend((name, DataType.INTEGER) for name in filter_attrs)
    columns.extend((name, DataType.VARCHAR) for name in oltp_attrs)
    schema = TableSchema.build(config.name, columns, primary_key=["id"])
    roles = TableRoles(
        table=config.name,
        primary_key="id",
        keyfigures=keyfigures,
        group_attrs=group_attrs,
        filter_attrs=filter_attrs,
        oltp_attrs=oltp_attrs,
        filter_cardinality=config.filter_cardinality,
        oltp_cardinality=config.oltp_cardinality,
        num_rows=config.num_rows,
        next_id=config.num_rows,
    )
    return schema, roles


def generate_rows(config: SyntheticTableConfig) -> List[Dict]:
    """Deterministically generate the rows of a synthetic table."""
    rng = random.Random(config.seed)
    schema, roles = build_schema(config)
    rows: List[Dict] = []
    for i in range(config.num_rows):
        row: Dict = {"id": i}
        for name in roles.keyfigures:
            row[name] = round(rng.random() * 10_000.0, 4)
        for position, name in enumerate(roles.group_attrs):
            cardinality = max(2, config.group_cardinality - position)
            row[name] = f"{name}_v{rng.randrange(cardinality)}"
        for name in roles.filter_attrs:
            row[name] = rng.randrange(config.filter_cardinality)
        for name in roles.oltp_attrs:
            row[name] = f"s{rng.randrange(config.oltp_cardinality)}"
        rows.append(row)
    return rows


def build_table(config: Optional[SyntheticTableConfig] = None) -> SyntheticTable:
    """Build a complete synthetic table (schema, roles and rows)."""
    config = config or SyntheticTableConfig()
    schema, roles = build_schema(config)
    rows = generate_rows(config)
    return SyntheticTable(config=config, schema=schema, rows=rows, roles=roles)


def new_row(roles: TableRoles, rng: random.Random, row_id: Optional[int] = None) -> Dict:
    """Generate a new (insertable) row consistent with the table's roles."""
    if row_id is None:
        row_id = roles.next_id
        roles.next_id += 1
    row: Dict = {"id": row_id}
    for name in roles.keyfigures:
        row[name] = round(rng.random() * 10_000.0, 4)
    for name in roles.group_attrs:
        row[name] = f"{name}_v{rng.randrange(8)}"
    for name in roles.filter_attrs:
        row[name] = rng.randrange(roles.filter_cardinality)
    for name in roles.oltp_attrs:
        row[name] = f"s{rng.randrange(roles.oltp_cardinality)}"
    return row


def paper_accuracy_table(num_rows: int, seed: int = DEFAULT_SEED) -> SyntheticTable:
    """The 30-attribute table of the estimation-accuracy experiments (Fig. 6)."""
    config = SyntheticTableConfig(
        name="facts",
        num_rows=num_rows,
        num_keyfigures=10,
        num_group_attrs=9,
        num_filter_attrs=8,
        num_oltp_attrs=2,
        seed=seed,
    )
    return build_table(config)


def olap_setting_table(num_rows: int, seed: int = DEFAULT_SEED) -> SyntheticTable:
    """The OLAP-shaped table of Fig. 9(a): 10 keyfigures, 8 group-bys, 2 OLTP attributes."""
    config = SyntheticTableConfig(
        name="olap_setting",
        num_rows=num_rows,
        num_keyfigures=10,
        num_group_attrs=8,
        num_filter_attrs=0,
        num_oltp_attrs=2,
        seed=seed,
    )
    return build_table(config)


def oltp_setting_table(num_rows: int, seed: int = DEFAULT_SEED) -> SyntheticTable:
    """The OLTP-shaped table of Fig. 9(b): 18 OLTP attributes, 1 keyfigure, 1 group-by."""
    config = SyntheticTableConfig(
        name="oltp_setting",
        num_rows=num_rows,
        num_keyfigures=1,
        num_group_attrs=1,
        num_filter_attrs=0,
        num_oltp_attrs=18,
        seed=seed,
    )
    return build_table(config)
