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


def contexts_seen(session):
    """The context each of *session*'s statements executed under."""
    seen = []
    session.add_plan_listener(lambda query, plan, result: seen.append(current()))
    return seen


def test_a_session_installs_one_context_while_the_enclosing_one_stands():
    session = open_session()
    seen = contexts_seen(session)
    for _ in range(3):
        session.execute(QUERY)
    assert seen[0] is not current()
    assert seen[1] is seen[0] and seen[2] is seen[0]
    session.close()


def test_scopes_entered_between_statements_govern_the_next_one():
    """``integrity_disabled()``, ``shard_config(max_attempts=1)`` and
    ``query_deadline`` entered between two statements of one session each
    govern the second; leaving them, the third runs as the first did."""
    session = open_session()
    seen = contexts_seen(session)
    session.execute(QUERY)
    first = seen[-1]
    assert first.integrity.enabled and first.deadline is None
    with integrity_disabled():
        session.execute(QUERY)
        assert not seen[-1].integrity.enabled
    with shard_config(max_attempts=1):
        session.execute(QUERY)
        assert seen[-1].resilience.max_attempts == 1
    with query_deadline(30.0):
        session.execute(QUERY)
        assert seen[-1].deadline == current().deadline is not None
    session.execute(QUERY)
    assert seen[-1].integrity.enabled and seen[-1].deadline is None
    assert seen[-1].resilience.max_attempts == first.resilience.max_attempts
    assert seen[-1].counters is first.counters
    session.close()


def test_a_timed_out_statement_leaves_no_deadline_to_the_next():
    session = open_session()
    seen = contexts_seen(session)
    session.execute(QUERY)
    with pytest.raises(QueryTimeoutError):
        session.execute(QUERY, timeout=0.0)
    assert current().deadline is None
    session.execute(QUERY)
    assert seen[-1].deadline is None and seen[-1] is seen[0]
    assert session.stats().query_timeouts == 1
    session.close()


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
