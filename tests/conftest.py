"""Shared fixtures for the test suite.

Most tests use a small deterministic ``sales`` table that exists in both
stores, so that row-store and column-store behaviour can be compared
directly.  Heavier fixtures (synthetic wide tables, TPC-H data) are module
scoped to keep the suite fast.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

import pytest

from repro.engine import DataType, HybridDatabase, Store, TableSchema

SALES_NUM_ROWS = 1_000


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "fuzz: seeded cross-store differential fuzz suite (runs in tier-1; "
        "select standalone with -m fuzz)",
    )
    config.addinivalue_line(
        "markers",
        "faultinject: crash-point recovery differential suite (runs in "
        "tier-1; select standalone with -m faultinject)",
    )
    config.addinivalue_line(
        "markers",
        "shard: shard-parallel scatter/gather execution suite (runs in "
        "tier-1; select standalone with -m shard)",
    )
    config.addinivalue_line(
        "markers",
        "matview: materialized-view subsystem suite (runs in tier-1; "
        "select standalone with -m matview)",
    )
    config.addinivalue_line(
        "markers",
        "resilience: process-fault matrix / supervised-pool / deadline "
        "suite (runs in tier-1; select standalone with -m resilience)",
    )
    config.addinivalue_line(
        "markers",
        "integrity: checksum / quarantine / scrub-and-repair corruption "
        "matrix (runs in tier-1; select standalone with -m integrity)",
    )


class ChargeTrace(list):
    """Ordered ``(component, nanoseconds)`` record of every charge billed."""

    def take(self) -> list:
        """The charges recorded since the last ``take`` (and forget them)."""
        taken = list(self)
        self.clear()
        return taken


@pytest.fixture
def charge_trace(monkeypatch) -> ChargeTrace:
    """Record every ``CostBreakdown.add`` in call order.

    ``CostBreakdown`` accumulates floats per component, so the *order* of
    charges is part of bit-identity; the differential tests compare a fast
    path's trace against its reference's, not just the per-component totals.
    """
    from repro.engine.timing import CostBreakdown

    trace = ChargeTrace()
    original = CostBreakdown.add

    def recording_add(breakdown, component, nanoseconds):
        trace.append((component, nanoseconds))
        original(breakdown, component, nanoseconds)

    monkeypatch.setattr(CostBreakdown, "add", recording_add)
    return trace


@pytest.fixture(scope="session")
def sales_schema() -> TableSchema:
    return TableSchema.build(
        "sales",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("product", DataType.INTEGER),
            ("revenue", DataType.DOUBLE),
            ("quantity", DataType.INTEGER),
            ("status", DataType.VARCHAR),
        ],
        primary_key=["id"],
    )


@pytest.fixture(scope="session")
def sales_rows() -> List[Dict]:
    rng = random.Random(42)
    return [
        {
            "id": i,
            "region": f"region_{i % 7}",
            "product": rng.randrange(50),
            "revenue": round(rng.random() * 500.0, 3),
            "quantity": rng.randint(1, 20),
            "status": ("open", "shipped", "cancelled")[i % 3],
        }
        for i in range(SALES_NUM_ROWS)
    ]


@pytest.fixture
def database_factory(sales_schema, sales_rows) -> Callable[[Store], HybridDatabase]:
    """Factory building a fresh database with the sales table in the given store."""

    def build(store: Store = Store.ROW) -> HybridDatabase:
        database = HybridDatabase()
        database.create_table(sales_schema, store)
        database.load_rows("sales", sales_rows)
        return database

    return build


@pytest.fixture
def row_database(database_factory) -> HybridDatabase:
    return database_factory(Store.ROW)


@pytest.fixture
def column_database(database_factory) -> HybridDatabase:
    return database_factory(Store.COLUMN)
