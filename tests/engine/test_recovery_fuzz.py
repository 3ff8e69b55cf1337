"""Crash-point recovery differential: kill the engine everywhere, recover, compare.

The durability subsystem declares every instruction boundary a crash could
separate from its neighbours as a named fault point
(:data:`repro.testing.faults.CRASH_POINTS` — WAL append/flush windows, the
three delta-merge phases, the three checkpoint phases).  This suite runs a
fixed workload — DDL, bulk load, threshold-crossing inserts (so merges fire
mid-statement), an update, a *failing* duplicate-primary-key batch (which
changes nothing and is not logged), a checkpoint, and more DML — and for
**every** crash point:

1. arms a :class:`FaultPlan` that raises :class:`CrashError` at that point
   (standing in for the process dying there),
2. recovers the database from the WAL left on disk,
3. rebuilds a *reference* database by applying the committed prefix — the
   first ``report.last_lsn`` loggable statements — to a fresh engine with no
   WAL at all, and
4. asserts the recovered database matches the reference on every probe
   query: identical rows *and* bit-identical simulated-cost components
   (physical state differences would show up as charge differences).

A torn-write variant crashes mid-``write(2)`` so only a prefix of the flush
buffer reaches the file, and a coverage test asserts the workload actually
reaches every declared crash point — a point the workload cannot reach is a
crash window the suite silently stopped testing.

Runs in tier-1; the ``faultinject`` marker lets CI invoke it standalone
(``pytest -m faultinject``).
"""

import pytest

from repro.engine.column_store import ColumnStoreTable
from repro.engine.database import HybridDatabase
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.engine.wal import WriteAheadLog, recover
from repro.errors import ExecutionError
from repro.query.builder import aggregate, delete, insert, select, update
from repro.query.predicates import ge, lt
from repro.testing.faults import CRASH_POINTS, CrashError, FaultPlan, inject

pytestmark = pytest.mark.faultinject

SCHEMA = TableSchema(
    "facts",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("category", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE, nullable=True),
    ),
)

#: Small enough that the insert batches below trigger mid-statement merges.
MERGE_THRESHOLD = 6


@pytest.fixture(autouse=True)
def small_merge_threshold(monkeypatch):
    """Every column table of this module merges at MERGE_THRESHOLD buffered rows."""
    monkeypatch.setattr(ColumnStoreTable, "merge_threshold", MERGE_THRESHOLD)

CATEGORIES = ("alpha", "beta", "gamma")


def _rows(start, count):
    return [
        {
            "id": i,
            "category": CATEGORIES[i % len(CATEGORIES)],
            "amount": None if i % 5 == 4 else round(i * 1.25, 2),
        }
        for i in range(start, start + count)
    ]


#: Duplicate PK mid-batch (id 3 is taken): no row of it lands.
FAILING_INSERT = insert("facts", [*_rows(17, 1), *_rows(3, 1), *_rows(18, 1)])


def _failing_insert(database):
    try:
        database.execute(FAILING_INSERT)
    except ExecutionError:
        pass  # the original run survives the statement and keeps going


#: The workload: ``(loggable, apply)`` steps.  Every loggable step appends
#: exactly one WAL record, so after a crash ``report.last_lsn`` equals the
#: number of leading loggable steps that became durable.  A failing
#: statement changes nothing and appends no record, like a checkpoint.
STEPS = (
    (True, lambda db: db.create_table(SCHEMA, Store.COLUMN)),
    (True, lambda db: db.load_rows("facts", _rows(0, 8))),
    (True, lambda db: db.execute(insert("facts", _rows(8, 4)))),
    # Crosses MERGE_THRESHOLD: the delta merge (and its crash points) fires
    # inside this statement, after the rows are already in the delta.
    (True, lambda db: db.execute(insert("facts", _rows(12, 5)))),
    (True, lambda db: db.execute(update("facts", {"category": "hot"}, ge("id", 14)))),
    (False, _failing_insert),
    (False, lambda db: db.checkpoint()),
    (True, lambda db: db.execute(insert("facts", _rows(20, 3)))),
    (True, lambda db: db.execute(delete("facts", lt("id", 2)))),
    # A second threshold-crossing insert: merge crash points are reachable
    # after the checkpoint too.
    (True, lambda db: db.execute(insert("facts", _rows(30, 7)))),
)

PROBES = (
    select("facts").build(),
    select("facts").where(ge("id", 10)).columns("id", "category").build(),
    aggregate("facts").count().sum("amount").group_by("category").build(),
)


def run_with_crash(path, crash_at, at_hit=1, torn_bytes=None):
    """Run the workload against a WAL at *path*, crashing per the plan.

    Returns ``(crashed, plan)``; the in-memory database is discarded, as a
    real crash would discard it.
    """
    database = HybridDatabase()
    database.attach_wal(WriteAheadLog(path, sync_mode="commit"))
    plan = FaultPlan(crash_at=crash_at, at_hit=at_hit, torn_bytes=torn_bytes)
    crashed = False
    with inject(plan):
        try:
            for _loggable, apply_step in STEPS:
                apply_step(database)
        except CrashError:
            crashed = True
    if not crashed:
        database.wal.close()
    return crashed, plan


def reference_database(num_durable):
    """The committed prefix, applied to a fresh engine without any WAL."""
    database = HybridDatabase()
    applied = 0
    for loggable, apply_step in STEPS:
        if not loggable:
            continue  # checkpoints and failing statements change no state
        if applied == num_durable:
            break
        apply_step(database)
        applied += 1
    assert applied == num_durable, "workload has fewer steps than the log"
    return database


def assert_recovered_equals_reference(context, recovered, reference):
    assert recovered.table_names() == reference.table_names(), context
    if not reference.table_names():
        return
    for probe in PROBES:
        got = recovered.execute(probe)
        want = reference.execute(probe)
        assert got.rows == want.rows, f"{context} probe={probe!r}"
        assert got.cost.components == want.cost.components, (
            f"{context} probe={probe!r}: recovered physical state diverges "
            "from the committed prefix (charge mismatch)"
        )


@pytest.mark.parametrize("at_hit", (1, 3))
@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_crash_at_every_point_recovers_the_committed_prefix(
    tmp_path, crash_at, at_hit
):
    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(path, crash_at, at_hit=at_hit)
    if at_hit == 1:
        assert crashed, f"workload never reached crash point {crash_at!r}"
    result = recover(path)
    reference = reference_database(result.report.last_lsn)
    assert_recovered_equals_reference(
        f"crash_at={crash_at!r} at_hit={at_hit}", result.database, reference
    )


def test_torn_flush_loses_only_the_statement_in_flight(tmp_path):
    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(
        path, "wal.flush.after_write", at_hit=4, torn_bytes=5
    )
    assert crashed
    result = recover(path)
    assert result.report.torn_tail_offset is not None
    assert result.report.torn_tail_bytes == 5
    assert result.report.last_lsn == 3  # the fourth record was torn
    reference = reference_database(3)
    assert_recovered_equals_reference("torn flush", result.database, reference)


def test_duplicate_pk_batch_is_not_logged(tmp_path):
    """The failing statement changes nothing, so the log never holds it."""
    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(path, crash_at=None)
    assert not crashed
    assert recover(path).report.replay_errors == []  # snapshot path
    bare = str(tmp_path / "bare.wal")
    crashed, _plan = run_with_crash_without_checkpoint(bare)
    assert not crashed
    replayed = recover(bare)
    assert replayed.report.replay_errors == []
    assert replayed.report.last_lsn == sum(loggable for loggable, _ in STEPS)
    ids = {row["id"] for row in replayed.database.execute(PROBES[0]).rows}
    assert not {17, 18} & ids  # no row of the failed batch committed
    assert_recovered_equals_reference(
        "full replay", replayed.database, reference_database(replayed.report.last_lsn)
    )


def test_an_old_logs_failed_statement_replays_to_no_effect(tmp_path):
    """A log written while failed statements were still logged.

    Such a log may hold the failing batch as a DML record.  Replay re-runs
    it, it raises before it changes anything, and the error is reported —
    where the batch's prefix once committed (id 17), nothing does now.
    """
    path = str(tmp_path / "old.wal")
    database = HybridDatabase()
    database.attach_wal(WriteAheadLog(path, sync_mode="commit"))
    for _loggable, apply_step in STEPS[:5]:
        apply_step(database)
    database.wal.log_dml(FAILING_INSERT)
    database.wal.close()
    replayed = recover(path)
    assert [lsn for lsn, _ in replayed.report.replay_errors] == [6]
    assert "duplicate primary key 3 " in replayed.report.replay_errors[0][1]
    ids = {row["id"] for row in replayed.database.execute(PROBES[0]).rows}
    assert not {17, 18} & ids
    assert_recovered_equals_reference(
        "old log", replayed.database, reference_database(5)
    )


def run_with_crash_without_checkpoint(path):
    database = HybridDatabase()
    database.attach_wal(WriteAheadLog(path, sync_mode="commit"))
    plan = FaultPlan(crash_at=None)
    crashed = False
    with inject(plan):
        try:
            for loggable, apply_step in STEPS:
                if not loggable:
                    continue
                apply_step(database)
        except CrashError:
            crashed = True
    if not crashed:
        database.wal.close()
    return crashed, plan


def test_checkpoint_replace_window_drops_stale_records(tmp_path):
    """Crash between the snapshot rename and ``truncate(0)``.

    The log still holds every pre-checkpoint record next to a snapshot that
    already contains their effects; recovery must restore the snapshot and
    provably drop all of them via the LSN filter instead of replaying any.
    """
    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(path, "checkpoint.after_replace")
    assert crashed
    result = recover(path)
    assert result.report.snapshot_restored
    assert result.report.snapshot_lsn == 5
    # All five pre-checkpoint records are still on disk and all are stale.
    assert result.report.records_stale == 5
    assert result.report.records_applied == 0
    assert result.report.last_lsn == 5
    reference = reference_database(5)
    assert_recovered_equals_reference(
        "checkpoint.after_replace", result.database, reference
    )


def test_checkpoint_truncate_window_recovers_snapshot_alone(tmp_path):
    """Crash between ``truncate(0)`` and the magic landing on disk.

    The log file is empty — not even the magic made it — which historically
    made ``_scan_log`` raise "bad magic".  Recovery must treat it as an
    all-torn tail, restore the snapshot, and re-opening the log must
    reinitialize the header so appends keep working.
    """
    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(path, "checkpoint.after_truncate")
    assert crashed
    result = recover(path)
    assert result.report.snapshot_restored
    assert result.report.snapshot_lsn == 5
    assert result.report.records_applied == 0
    assert result.report.records_stale == 0
    assert result.report.torn_tail_offset == 0
    reference = reference_database(5)
    assert_recovered_equals_reference(
        "checkpoint.after_truncate", result.database, reference
    )
    # Appends resume cleanly behind a rewritten magic.
    database = result.database
    database.attach_wal(WriteAheadLog(path, sync_mode="commit"))
    database.execute(insert("facts", _rows(50, 2)))
    database.wal.close()
    replayed = recover(path)
    assert replayed.report.records_applied == 1
    assert replayed.report.clean
    ids = {row["id"] for row in replayed.database.execute(PROBES[0]).rows}
    assert {50, 51} <= ids


def test_torn_magic_after_checkpoint_recovers_and_reopens(tmp_path):
    """A torn write of the magic itself (file holds a strict prefix of it)."""
    from repro.testing.faults import truncate_file

    path = str(tmp_path / "db.wal")
    crashed, _plan = run_with_crash(path, crash_at=None)
    assert not crashed
    truncate_file(path, 3)  # mid-magic: b"RPW"
    result = recover(path)
    assert result.report.snapshot_restored
    assert result.report.torn_tail_offset == 0
    assert result.report.torn_tail_bytes == 3
    # The three post-checkpoint records are gone with the torn reset; the
    # recovered state is exactly the snapshot.
    reference = reference_database(5)
    assert_recovered_equals_reference("torn magic", result.database, reference)
    log = WriteAheadLog(path, sync_mode="commit")
    log.append("dml", insert("facts", _rows(60, 1)))
    log.close()
    assert recover(path).report.clean


def test_workload_reaches_every_declared_crash_point(tmp_path):
    """Coverage guard: a point the workload misses is silently untested."""
    path = str(tmp_path / "db.wal")
    crashed, plan = run_with_crash(path, crash_at=None)
    assert not crashed
    missing = set(CRASH_POINTS) - set(plan.hits)
    assert not missing, f"workload never reaches: {sorted(missing)}"
