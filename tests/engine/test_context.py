"""The execution context and its one setter (``repro.engine.context``).

* ``scope(...)`` installs a changed copy of the current context and puts the
  previous *object* back on exit — also when the body raises, including a
  ``QueryTimeoutError`` escaping a sharded gather.
* Deadlines nest by tightening only.
* An enclosing ``shard_config(max_attempts=...)`` / ``integrity_disabled()``
  governs a default ``connect()``; an explicit ``connect(resilience=...,
  integrity=...)`` overrides it.
* Whatever ran, the process-default context is the object it was.
"""

import pytest

from repro.api import connect
from repro.config import IntegrityConfig, ResilienceConfig
from repro.engine.context import EngineCounters, current, scope
from repro.engine.deadline import deadline_remaining, query_deadline
from repro.engine.integrity import (
    integrity_disabled,
    integrity_scope,
    verify_on_scan_enabled,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.shard import (
    audit_shared_segments,
    resilience_scope,
    shard_config,
    shutdown_worker_pool,
)
from repro.engine.types import DataType, Store
from repro.errors import QueryTimeoutError
from repro.query.builder import aggregate
from repro.testing.faults import FaultPlan, inject

pytestmark = pytest.mark.resilience

SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("hits", DataType.INTEGER),
    ),
)

QUERY = aggregate("metrics").sum("hits").count().group_by("bucket").build()


def open_session(**config):
    session = connect(**config)
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows(
        "metrics",
        [{"id": i, "bucket": f"b{i % 5}", "hits": i % 13} for i in range(600)],
    )
    return session


@pytest.fixture(autouse=True)
def _default_context_untouched():
    """Every test here must leave the process-default context object alone."""
    default = current()
    yield
    assert current() is default
    shutdown_worker_pool()
    audit_shared_segments()


def test_scope_installs_a_copy_and_restores_the_previous_object():
    default = current()
    counters = EngineCounters()
    policy = ResilienceConfig(max_attempts=5)
    with scope(counters=counters, resilience=policy):
        inner = current()
        assert inner is not default
        assert inner.counters is counters and inner.resilience is policy
        assert inner.integrity is default.integrity and inner.deadline is None
        # The per-subsystem spellings are calls of the same setter.
        with integrity_scope(IntegrityConfig(enabled=False)):
            assert current().resilience is policy
            assert not current().integrity.enabled
            with resilience_scope(ResilienceConfig(backoff_s=0.5)):
                assert current().resilience.backoff_s == 0.5
                assert current().counters is counters
            assert current().resilience is policy
        assert current() is inner
    assert current() is default


def test_scope_restores_when_the_body_raises():
    default = current()
    with pytest.raises(RuntimeError, match="boom"):
        with scope(timeout=5.0, resilience=ResilienceConfig(max_attempts=1)):
            raise RuntimeError("boom")
    assert current() is default and deadline_remaining() is None


def test_timeout_out_of_a_sharded_gather_restores_the_context():
    default = current()
    session = open_session(resilience=ResilienceConfig(gather_timeout_s=30.0))
    with shard_config(fan_out=2, min_rows=1):
        session.execute(QUERY)  # warm plan + pool outside the deadline
        enclosing = current()
        with inject(FaultPlan(crash_at="shard.worker.hang", every_hit=True)):
            with pytest.raises(QueryTimeoutError):
                session.execute(QUERY, timeout=0.3)
        assert current() is enclosing and deadline_remaining() is None
    assert current() is default
    assert session.stats().query_timeouts == 1
    session.close()


def test_nested_deadlines_only_tighten():
    with query_deadline(5.0):
        outer = current().deadline
        with query_deadline(60.0):
            assert current().deadline == outer  # cannot extend
        with query_deadline(None):
            assert current().deadline == outer  # arms nothing
        with query_deadline(0.5):
            assert current().deadline[0] < outer[0]
            assert current().deadline[1] == 0.5
            assert deadline_remaining() <= 0.5
        assert current().deadline == outer
    assert deadline_remaining() is None


def test_enclosing_scopes_govern_a_default_session_only():
    default_session = open_session()
    explicit = open_session(
        resilience=ResilienceConfig(max_attempts=3),
        integrity=IntegrityConfig(),
    )
    with shard_config(fan_out=2, min_rows=1, max_attempts=1):
        assert "retry" not in default_session.explain(QUERY)
        assert "retry x2" in explicit.explain(QUERY)
    with integrity_disabled():
        assert not verify_on_scan_enabled()
        default_session.execute(QUERY)
        explicit.execute(QUERY)
    assert default_session.stats().integrity_units_verified == 0
    assert explicit.stats().integrity_units_verified > 0
    default_session.close()
    explicit.close()
