"""Resilient execution layer: process-fault matrix, supervision, deadlines.

The resilience fuzzer and its satellites.  The contracts pinned here:

* **Process-fault matrix** — for every fault in
  :data:`repro.testing.faults.PROCESS_FAULTS` (worker killed mid-shard,
  wedged worker, poisoned/unpicklable result, shared-memory unlink race,
  shared-memory bit flip caught by the integrity checksums), a
  one-shot fault is healed by the retry rung (the query still executes
  sharded) and an ``every_hit`` fault exhausts the budget and degrades to
  serial — in both cases with rows and charges **bit-identical** to the
  ``shard_execution_disabled()`` reference, a visible degradation record,
  and a self-healed pool.
* **Supervision** — a dead worker is replaced individually (the pool object
  survives), replacements are counted, and a mid-query worker kill leaks no
  shared-memory segment (the close/atexit ledger audit stays clean).
* **Deadlines** — ``Session.execute(timeout=...)`` cancels even a wedged
  sharded query within ~2x the deadline, raises ``QueryTimeoutError``,
  records no execution and leaves the pool healthy.
* **Matview refresh atomicity** — a crash at any declared
  ``matview.refresh.*`` point installs nothing: the next
  serve returns rows identical to the ``matview_disabled()`` reference.
* **Registration** — the declared crash-point/process-fault counts are
  pinned so new faults cannot land without landing here too.
"""

import time
from copy import copy

import pytest

from repro.config import ResilienceConfig
from repro.engine import shard as shard_module
from repro.engine.context import current
from repro.engine.database import HybridDatabase
from repro.engine.matview import matview_disabled
from repro.engine.schema import Column, TableSchema
from repro.engine.shard import (
    audit_shared_segments,
    gather_timeout_for,
    get_worker_pool,
    shard_config,
    shard_execution_disabled,
    shutdown_worker_pool,
)
from repro.errors import QueryTimeoutError
from repro.testing.faults import (
    CRASH_POINTS,
    MATVIEW_CRASH_POINTS,
    PROCESS_FAULTS,
    CrashError,
    FaultPlan,
    inject,
)
from repro.engine.types import DataType, Store
from repro.query.builder import aggregate, insert, select
from repro.query.predicates import ge

pytestmark = pytest.mark.resilience

SCHEMA = TableSchema(
    "metrics",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("bucket", DataType.VARCHAR),
        Column("value", DataType.DOUBLE, nullable=True),
        Column("hits", DataType.INTEGER),
    ),
)

NUM_ROWS = 2_000

#: Fast-failure knobs for the fault matrix: wedges time out in fractions of
#: a second and retries back off in milliseconds, so the whole matrix runs
#: in seconds while exercising exactly the production code paths.
FAST = dict(fan_out=4, min_rows=1, gather_timeout_s=0.8, backoff_s=0.005)


def make_rows(num_rows, offset=0):
    """NULL-bearing (never NaN) rows, so partial merges stay provably safe."""
    return [
        {
            "id": offset + i,
            "bucket": f"b{i % 5}",
            "value": None if i % 11 == 0 else round((i % 97) * 0.5, 2),
            "hits": i % 13,
        }
        for i in range(num_rows)
    ]


def build_database(num_rows=NUM_ROWS):
    database = HybridDatabase()
    database.create_table(SCHEMA, store=Store.COLUMN)
    database.load_rows("metrics", make_rows(num_rows))
    return database


def grouped_query():
    return (
        aggregate("metrics")
        .sum("value").count().min("hits")
        .group_by("bucket")
        .where(ge("hits", 3))
        .build()
    )


def filtered_select():
    return select("metrics").columns("id", "bucket").where(ge("hits", 5)).build()


def rows_key(row):
    return sorted((key, repr(value)) for key, value in row.items())


def assert_same_rows(left, right):
    assert sorted(left, key=rows_key) == sorted(right, key=rows_key)


@pytest.fixture(autouse=True)
def _pool_cleanup():
    yield
    shutdown_worker_pool()
    audit_shared_segments()


# -- the process-fault matrix ----------------------------------------------------------


@pytest.mark.parametrize("fault", PROCESS_FAULTS)
@pytest.mark.parametrize("query_factory", [grouped_query, filtered_select],
                         ids=["aggregate", "select"])
def test_one_shot_fault_heals_by_retry(fault, query_factory):
    """A single fault is absorbed by the retry rung: still sharded, identical."""
    database = build_database()
    query = query_factory()
    with shard_execution_disabled():
        reference = database.execute(query)
    counters = copy(current().counters)
    with shard_config(**FAST):
        with inject(FaultPlan(crash_at=fault)):
            result = database.execute(query)
    assert_same_rows(result.rows, reference.rows)
    assert result.cost.components == reference.cost.components
    # The retry re-ran the scatter — the query really executed sharded.
    assert result.shard_stats["metrics"][0] == 4
    assert not result.degradations
    live = current().counters
    assert live.shard_retries == counters.shard_retries + 1
    assert live.shard_degradations == counters.shard_degradations
    # The pool healed in place: alive, and the next query runs sharded too.
    pool = shard_module._POOL
    assert pool is not None and pool.alive()
    with shard_config(**FAST):
        again = database.execute(query)
    assert again.shard_stats and shard_module._POOL is pool


@pytest.mark.parametrize("fault", PROCESS_FAULTS)
def test_persistent_fault_degrades_to_serial(fault):
    """An every-hit fault exhausts the budget: serial rows, serial charges."""
    database = build_database()
    query = grouped_query()
    with shard_execution_disabled():
        reference = database.execute(query)
    counters = copy(current().counters)
    with shard_config(**FAST):
        with inject(FaultPlan(crash_at=fault, every_hit=True)):
            result = database.execute(query)
    assert_same_rows(result.rows, reference.rows)
    # The serial fallback bills exactly the serial reference — the failed
    # sharded attempts left no partial charges behind.
    assert result.cost.components == reference.cost.components
    assert not result.shard_stats
    ladder = result.degradations["metrics"]
    assert ladder.startswith("shard-parallel -> retry x1 -> serial")
    live = current().counters
    assert live.shard_degradations == counters.shard_degradations + 1
    assert live.shard_retries == counters.shard_retries + 1
    # Self-healed: with the fault gone the same pool shards again.
    pool = shard_module._POOL
    assert pool is not None and pool.alive()
    with shard_config(**FAST):
        healthy = database.execute(query)
    assert healthy.shard_stats["metrics"][0] == 4
    assert healthy.cost.components == reference.cost.components


def test_fault_matrix_points_are_all_consulted():
    """One sharded query consults every declared process fault."""
    database = build_database()
    plan = FaultPlan(crash_at=None)  # record hits, never fire
    with shard_config(min_rows=1):
        with inject(plan):
            database.execute(grouped_query())
    assert set(PROCESS_FAULTS) <= set(plan.hits)


# -- supervision and the segment ledger ------------------------------------------------


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_worker_replacement_is_individual(start_method):
    """A killed worker is replaced in place; the pool object survives."""
    database = build_database()
    # A generous gather timeout: killed workers are detected by the liveness
    # poll (not the timeout), and spawn replacements can take a while to boot.
    with shard_config(min_rows=1, gather_timeout_s=15.0, backoff_s=0.005):
        shutdown_worker_pool()
        pool = get_worker_pool(start_method)
        before = current().counters.worker_replacements
        pids = pool.worker_pids()
        with inject(FaultPlan(crash_at="shard.worker.kill")):
            result = database.execute(grouped_query())
    assert result.shard_stats
    assert shard_module._POOL is pool  # never torn down wholesale
    assert pool.alive()
    assert current().counters.worker_replacements == before + 1
    # Exactly one crew member changed.
    replaced = sum(1 for old, new in zip(pids, pool.worker_pids()) if old != new)
    assert replaced == 1


def test_mid_query_worker_kill_leaks_no_segments():
    """The segment ledger audits clean after a kill + pool shutdown."""
    database = build_database()
    with shard_config(**FAST):
        with inject(FaultPlan(crash_at="shard.worker.kill")):
            database.execute(grouped_query())
    shutdown_worker_pool()
    leaked, doubled = audit_shared_segments()
    assert leaked == [] and doubled == []
    assert shard_module._SEGMENT_LEDGER == {}


def test_audit_reports_and_reclaims():
    """The audit flags ledger anomalies (and never raises)."""
    shard_module._SEGMENT_LEDGER["repro-bogus-leak"] = 0
    shard_module._SEGMENT_LEDGER["repro-bogus-double"] = 2
    leaked, doubled = audit_shared_segments()
    assert leaked == ["repro-bogus-leak"]
    assert doubled == ["repro-bogus-double"]
    assert shard_module._SEGMENT_LEDGER == {}


def test_teardown_distinguishes_races_from_real_errors():
    """Expected shutdown races stay silent; real errors are counted."""
    before = current().counters.teardown_errors
    shard_module._teardown("race", lambda: (_ for _ in ()).throw(ValueError()))
    assert current().counters.teardown_errors == before
    shard_module._teardown("real", lambda: (_ for _ in ()).throw(RuntimeError()))
    assert current().counters.teardown_errors == before + 1


def test_backoff_is_bounded_and_positive():
    for attempt in range(1, 12):
        delay = shard_module._backoff_delay(attempt)
        assert 0.0 < delay <= shard_module._RETRY_BACKOFF_CAP_S


def test_gather_timeout_scales_with_rows():
    assert gather_timeout_for(0) == current().resilience.gather_timeout_s
    assert gather_timeout_for(500_000) == current().resilience.gather_timeout_s
    assert gather_timeout_for(2_000_000) == pytest.approx(
        2.0 * current().resilience.gather_timeout_s
    )
    with shard_config(gather_timeout_s=10.0):
        assert gather_timeout_for(3_000_000) == pytest.approx(30.0)


def test_interleaved_sessions_each_obey_their_own_policy():
    """Two sessions alive at once: every statement runs under its own config.

    ``strict`` never retries and never checksums; ``patient`` retries twice
    and verifies on scan.  Interleaved statement by statement under a
    persistent fault, each degrades down its own ladder and moves (or does
    not move) the verification counter — and once both are closed a default
    ``connect()`` is back on the default policy.
    """
    from repro.api import connect
    from repro.config import IntegrityConfig

    def open_session(**config):
        session = connect(**config)
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("metrics", make_rows(600))
        return session

    def degraded_statement(session, round_index):
        """A write (fresh zone epoch), then the query under a persistent fault."""
        session.execute(insert("metrics", make_rows(1, offset=10_000 + round_index)))
        session.merge_deltas("metrics")
        verified = session.stats().integrity_units_verified
        with inject(FaultPlan(crash_at="shard.result.poison", every_hit=True)):
            result = session.execute(grouped_query())
        return (result.degradations["metrics"],
                session.stats().integrity_units_verified - verified)

    fast = dict(gather_timeout_s=0.8, backoff_s=0.005)
    strict = open_session(
        resilience=ResilienceConfig(max_attempts=1, **fast),
        integrity=IntegrityConfig(enabled=False),
    )
    patient = open_session(
        resilience=ResilienceConfig(max_attempts=3, **fast),
        integrity=IntegrityConfig(),
    )
    with shard_config(fan_out=2, min_rows=1):
        for round_index in range(2):
            ladder, verified = degraded_statement(strict, round_index)
            assert ladder.startswith("shard-parallel -> serial")
            assert verified == 0
            ladder, verified = degraded_statement(patient, round_index)
            assert ladder.startswith("shard-parallel -> retry x2 -> serial")
            assert verified > 0
        assert "retry" not in strict.explain(grouped_query())
        assert "retry x2" in patient.explain(grouped_query())
        # Nothing stays installed between statements, or after close().
        assert current().resilience.max_attempts == ResilienceConfig().max_attempts
        strict.close()
        patient.close()

        default = open_session()
        ladder, verified = degraded_statement(default, 0)
        assert ladder.startswith("shard-parallel -> retry x1 -> serial")
        assert verified > 0
        default.close()


def test_interleaved_sessions_count_their_own_events():
    """A session's counters move for its own statements — nobody else's.

    ``a`` and ``b`` interleave over one worker pool: b's retries, worker
    replacements and checksum verifications leave all nine of a's engine
    counters (and the process-default context's) where they were; a's
    expired deadline is a's timeout only and is disarmed before b's next
    statement; and the segment a's ``close()`` has to reclaim is a's.
    """
    from multiprocessing import shared_memory

    from repro.api import connect

    def open_session():
        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("metrics", make_rows(600))
        return session

    def engine_counts(session):
        stats = session.stats()
        return tuple(getattr(stats, name) for name in (
            "shard_retries", "shard_worker_replacements", "shard_degradations",
            "shard_segments_reclaimed", "shard_teardown_errors",
            "integrity_units_verified", "integrity_corruption_detected",
            "integrity_units_quarantined", "integrity_units_repaired",
        ))

    a, b = open_session(), open_session()
    default_before = copy(current().counters)
    with shard_config(**FAST):
        a.execute(grouped_query())
        a_before = engine_counts(a)
        with inject(FaultPlan(crash_at="shard.worker.kill")):
            b.execute(grouped_query())
        b.verify_integrity()
        assert engine_counts(a) == a_before
        b_stats = b.stats()
        assert b_stats.shard_retries == 1
        assert b_stats.shard_worker_replacements == 1
        assert b_stats.integrity_units_verified > a.stats().integrity_units_verified

        with pytest.raises(QueryTimeoutError):
            a.execute(grouped_query(), timeout=0.0)
        assert current().deadline is None
        assert b.execute(grouped_query()).shard_stats  # no deadline leaked into b
        with pytest.raises(QueryTimeoutError):
            a.sql("EXPLAIN ANALYZE SELECT count(*) FROM metrics", timeout=0.0)
        assert (a.stats().query_timeouts, b.stats().query_timeouts) == (2, 0)

    stray = shared_memory.SharedMemory(create=True, size=8)
    shard_module._SEGMENT_LEDGER[stray.name] = 0  # published, never unlinked
    a.close()
    stray.close()
    assert a.stats().shard_segments_reclaimed == 1
    b.close()
    assert b.stats().shard_segments_reclaimed == 0
    # Sessions did all of it: the process-default counters never moved.
    assert current().counters == default_before


def test_interleaved_sessions_reinstall_only_their_own_context():
    """Each session re-enters the context it installed — never the other's.

    ``a`` and ``b`` alternate statement by statement; ``solo`` runs ``a``'s
    statements alone.  Every statement of one session sees one context
    object, the two sessions' objects differ, and ``a`` ends with exactly
    ``solo``'s counters (a fault in ``b`` and ``b``'s scrub move only ``b``'s).
    """
    from repro.api import connect

    def open_session():
        session = connect()
        session.create_table(SCHEMA, Store.COLUMN)
        session.load_rows("metrics", make_rows(600))
        return session

    def contexts(session):
        seen = []
        session.add_plan_listener(lambda query, plan, result: seen.append(current()))
        return seen

    a, b, solo = open_session(), open_session(), open_session()
    seen_a, seen_b = contexts(a), contexts(b)
    default_before = copy(current().counters)
    with shard_config(**FAST):
        for step in range(3):
            a.execute(grouped_query())
            a.execute(filtered_select())
            solo.execute(grouped_query())
            solo.execute(filtered_select())
            if step == 1:
                with inject(FaultPlan(crash_at="shard.worker.kill")):
                    b.execute(grouped_query())
                b.verify_integrity()
            else:
                b.execute(grouped_query())
    assert all(context is seen_a[0] for context in seen_a)
    assert all(context is seen_b[0] for context in seen_b)
    assert seen_a[0] is not seen_b[0]
    assert seen_a[0].counters is not seen_b[0].counters
    assert b.stats().shard_retries == 1 and b.stats().shard_worker_replacements == 1
    assert (a.stats().shard_retries, a.stats().shard_worker_replacements) == (0, 0)
    engine_fields = ("shard_retries", "shard_worker_replacements",
                     "shard_degradations", "integrity_units_verified",
                     "integrity_corruption_detected", "integrity_units_quarantined")
    assert [getattr(a.stats(), name) for name in engine_fields] == [
        getattr(solo.stats(), name) for name in engine_fields
    ]
    for session in (a, b, solo):
        session.close()
    assert current().counters == default_before


# -- deadlines and cancellation --------------------------------------------------------


def _session_with_data(num_rows=NUM_ROWS):
    from repro.api import connect

    session = connect()
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("metrics", make_rows(num_rows))
    return session


def test_timeout_cancels_wedged_shard_query():
    """A wedged worker is abandoned within ~2x the deadline; nothing billed."""
    session = _session_with_data()
    query = grouped_query()
    with shard_config(min_rows=1, gather_timeout_s=30.0):
        session.execute(query)  # warm plan + pool outside the deadline
        executed_before = session.stats().queries_executed
        started = time.monotonic()
        with inject(FaultPlan(crash_at="shard.worker.hang", every_hit=True)):
            with pytest.raises(QueryTimeoutError) as excinfo:
                session.execute(query, timeout=0.5)
        elapsed = time.monotonic() - started
    assert elapsed < 1.0  # within ~2x the 0.5s deadline
    assert excinfo.value.timeout_s == 0.5
    stats = session.stats()
    assert stats.query_timeouts == 1
    # Nothing billed, nothing recorded: the cancelled execution never
    # produced a QueryResult.
    assert stats.queries_executed == executed_before
    assert stats.shard_worker_replacements >= 1
    # The pool is healthy: the same query (no fault) shards bit-identically.
    with shard_execution_disabled():
        reference = session.execute(query)
    with shard_config(min_rows=1):
        healthy = session.execute(query)
    assert_same_rows(healthy.rows, reference.rows)
    assert healthy.cost.components == reference.cost.components
    assert healthy.shard_stats
    session.close()


def test_zero_timeout_cancels_serial_queries_too():
    session = _session_with_data(200)
    session.execute(grouped_query())  # plan once
    with pytest.raises(QueryTimeoutError):
        session.execute(grouped_query(), timeout=0.0)
    assert session.stats().query_timeouts == 1
    session.close()


def test_explain_analyze_obeys_the_deadline():
    """``EXPLAIN ANALYZE`` executes, so *timeout* must reach that execution."""
    session = _session_with_data(200)
    statement = "SELECT count(*) FROM metrics"
    assert session.sql("EXPLAIN ANALYZE " + statement, timeout=5.0).rows
    executed = session.stats().queries_executed
    with pytest.raises(QueryTimeoutError):
        session.sql("EXPLAIN ANALYZE " + statement, timeout=0.0)
    with pytest.raises(QueryTimeoutError):
        session.explain(statement, analyze=True, timeout=0.0)
    stats = session.stats()
    assert stats.query_timeouts == 2
    assert stats.queries_executed == executed  # nothing recorded
    # Plain EXPLAIN executes nothing, so there is nothing to cancel.
    assert session.sql("EXPLAIN " + statement, timeout=0.0).rows
    session.close()


def test_prepared_statement_timeout_passthrough():
    session = _session_with_data(200)
    prepared = session.prepare("SELECT count(*) FROM metrics")
    assert prepared.execute().rows
    with pytest.raises(QueryTimeoutError):
        prepared.execute(timeout=0.0)
    session.close()


# -- matview refresh atomicity ---------------------------------------------------------


def _stale_view_session():
    session = _session_with_data(600)
    session.create_view("metrics_by_bucket", grouped_query())
    # New rows leave the view stale; the next serve must refresh first.
    session.execute(insert("metrics", make_rows(200, offset=NUM_ROWS)))
    return session


@pytest.mark.parametrize("crash_at", MATVIEW_CRASH_POINTS)
def test_matview_refresh_crash_never_installs_partial_state(crash_at):
    session = _stale_view_session()
    query = grouped_query()
    with inject(FaultPlan(crash_at=crash_at)):
        with pytest.raises(CrashError):
            session.execute(query)
    # The interrupted refresh installed nothing: the next serve (which
    # refreshes again) matches the base-table reference bit-for-bit.
    with matview_disabled():
        reference = session.execute(query)
    served = session.execute(query)
    assert_same_rows(served.rows, reference.rows)
    assert served.view_hits
    session.close()


def test_matview_refresh_deadline_cancellation():
    session = _stale_view_session()
    query = grouped_query()
    with pytest.raises(QueryTimeoutError):
        session.execute(query, timeout=0.0)
    # The cancelled refresh installed nothing; the view still serves fresh.
    with matview_disabled():
        reference = session.execute(query)
    served = session.execute(query)
    assert_same_rows(served.rows, reference.rows)
    session.close()


def test_matview_workload_reaches_every_declared_crash_point():
    session = _stale_view_session()
    plan = FaultPlan(crash_at=None)  # record hits, never fire
    with inject(plan):
        session.execute(grouped_query())
    assert set(MATVIEW_CRASH_POINTS) <= set(plan.hits)
    session.close()


# -- EXPLAIN surface and registration --------------------------------------------------


def test_explain_analyze_renders_ladder_and_degradation():
    session = _session_with_data(800)
    with shard_config(**FAST):
        healthy = session.explain(grouped_query(), analyze=True)
        assert "ladder: shard-parallel -> retry x1 -> serial -> error" in healthy
        assert "degraded:" not in healthy
        with inject(FaultPlan(crash_at="shard.result.poison", every_hit=True)):
            degraded = session.explain(grouped_query(), analyze=True)
    assert "degraded:" in degraded
    assert "shard-parallel -> retry x1 -> serial" in degraded
    assert "shard execution (scanned/matched):" not in degraded
    session.close()


def test_session_stats_report_resilience_deltas():
    session = _session_with_data()
    with shard_config(**FAST):
        with inject(FaultPlan(crash_at="shard.worker.kill", every_hit=True)):
            session.execute(grouped_query())
    stats = session.stats()
    assert stats.shard_retries >= 1
    assert stats.shard_worker_replacements >= 1
    assert stats.shard_degradations == 1
    # A later session starts its deltas from zero.
    from repro.api import connect

    fresh = connect()
    assert fresh.stats().shard_degradations == 0
    fresh.close()
    session.close()


def test_declared_fault_registrations_are_pinned():
    """New crash points / process faults must land with their coverage."""
    assert len(CRASH_POINTS) == 13
    assert len(MATVIEW_CRASH_POINTS) == 2
    assert len(PROCESS_FAULTS) == 5
    everything = CRASH_POINTS + MATVIEW_CRASH_POINTS + PROCESS_FAULTS
    assert len(set(everything)) == len(everything)
    assert all(point.startswith("matview.") for point in MATVIEW_CRASH_POINTS)
    assert all(fault.startswith("shard.") for fault in PROCESS_FAULTS)
