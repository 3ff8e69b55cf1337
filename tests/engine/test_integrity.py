"""End-to-end data integrity: the corruption-fault matrix.

The contracts pinned here:

* **Snapshot corruption** — a bit flip in any region of a framed checkpoint
  snapshot (magic, length/crc header, pickled payload) and a truncated
  snapshot are all detected by recovery: ``RecoveryReport.snapshot_corrupt``
  is set, ``clean`` folds it in, the snapshot is **never** restored from,
  and — when the log was not yet truncated (the ``checkpoint.after_replace``
  crash window) — full-log replay reconstructs every committed row.  The
  read path raises the typed :class:`SnapshotCorruptError`, never a raw
  pickle/struct error.
* **In-memory corruption** — a bit flipped in a live code array (without an
  epoch bump, the signature of silent corruption) is detected by the next
  verified read or by ``Session.verify_integrity()``, quarantined with a
  :class:`DataCorruptionError` naming the exact table/partition/column, and
  never un-quarantined by disabling verification.
* **Repair** — with WAL durability on, ``Session.repair()`` rebuilds the
  quarantined units from the log (snapshot + replay) and restores rows
  *and* :class:`CostBreakdown` charges bit-identical to the uncorrupted
  reference.  Without a WAL, repair refuses with a typed error.
* **Shared-memory corruption** — a bit flipped in a published shard segment
  is caught by the worker-side checksum before execution and absorbed by
  the resilience ladder: a one-shot flip heals on retry (still sharded), a
  persistent flip degrades to serial — both bit-identical to the serial
  reference, with zero stray charges.  (The full one-shot/persistent matrix
  also runs for ``shard.shm.bit_flip`` via the parametrized resilience
  suite.)
* **Telemetry** — verification shows up in ``EXPLAIN ANALYZE`` and
  ``SessionStats`` but charges zero simulated cost.
"""

import pickle
import zlib
from copy import copy

import numpy as np
import pytest

from repro.api import connect
from repro.api.session import recover
from repro.config import IntegrityConfig
from repro.engine.compression import ColumnDictionary
from repro.engine.integrity import (
    codes_checksum,
    integrity_disabled,
    unit_checksum,
)
from repro.engine.context import current
from repro.engine.database import HybridDatabase
from repro.engine.partitioning import (
    HorizontalPartitionSpec,
    TablePartitioning,
    VerticalPartitionSpec,
)
from repro.engine.schema import Column, TableSchema
from repro.engine.shard import (
    audit_shared_segments,
    shard_config,
    shard_execution_disabled,
    shutdown_worker_pool,
)
from repro.engine.types import DataType, Store
from repro.engine.wal import _read_snapshot
from repro.errors import DataCorruptionError, SnapshotCorruptError, WalError
from repro.query.builder import aggregate, select
from repro.query.predicates import ge
from repro.testing.faults import (
    SNAPSHOT_REGIONS,
    CrashError,
    FaultPlan,
    flip_code_bit,
    flip_snapshot_bit,
    inject,
    truncate_file,
)

pytestmark = pytest.mark.integrity

SCHEMA = TableSchema(
    "ledger",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("account", DataType.VARCHAR),
        Column("amount", DataType.INTEGER),
    ),
)

NUM_ROWS = 300


def make_rows(num_rows, offset=0):
    return [
        {"id": offset + i, "account": f"a{i % 9}", "amount": (i * 7) % 101}
        for i in range(num_rows)
    ]


def open_session(tmp_path=None, **kwargs):
    session = connect(
        wal_path=str(tmp_path / "ledger.wal") if tmp_path is not None else None,
        **kwargs,
    )
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("ledger", make_rows(NUM_ROWS))
    return session


# -- checksum primitives ---------------------------------------------------------------


def test_codes_checksum_is_content_addressed():
    codes = np.arange(64, dtype=np.int64)
    reference = codes_checksum(codes)
    assert codes_checksum(codes.copy()) == reference
    flipped = codes.copy()
    flipped[13] ^= 1
    assert codes_checksum(flipped) != reference
    # Layout-independent: a non-contiguous view with equal contents agrees.
    strided = np.arange(128, dtype=np.int64)[::2] * 2
    assert codes_checksum(strided) == codes_checksum(
        np.ascontiguousarray(strided)
    )


@pytest.mark.parametrize("codes", [
    np.arange(1_000, dtype=np.int64),                       # contiguous int64
    np.arange(2_000, dtype=np.int64)[::2],                  # non-contiguous view
    np.arange(1_000, dtype=np.int64)[250:750],              # a shard's row range
    (np.arange(1_000) % 120).astype(np.int8),               # narrower dtypes
    (np.arange(1_000) * 37).astype(np.int32),
    np.empty(0, dtype=np.int64),
], ids=["int64", "strided", "slice", "int8", "int32", "empty"])
def test_zero_copy_checksums_keep_their_values(codes):
    """Reading the buffer in place must not move a single recorded crc.

    The reference is the definition the checksums had while they went
    through a ``tobytes()`` copy: crc32 of the contents as contiguous int64,
    continued over the pickled dictionary values for the unit checksum.
    """
    copied = zlib.crc32(
        np.ascontiguousarray(codes, dtype=np.int64).tobytes()
    ) & 0xFFFFFFFF
    assert codes_checksum(codes) == copied
    dictionary = ColumnDictionary(DataType.VARCHAR)
    dictionary.bulk_build(["x", None, "a", "m"])
    payload = pickle.dumps(
        tuple(dictionary.values), protocol=pickle.HIGHEST_PROTOCOL
    )
    assert unit_checksum(codes, dictionary) == \
        zlib.crc32(payload, copied) & 0xFFFFFFFF


# -- snapshot corruption ---------------------------------------------------------------


def build_wal_with_snapshot(tmp_path, truncate_log=False):
    """A WAL whose checkpoint snapshot exists; the log optionally survives.

    ``truncate_log=False`` models the ``checkpoint.after_replace`` crash
    window: the snapshot was atomically installed but the log was not yet
    truncated, so recovery can fall back to full-log replay if the snapshot
    turns out corrupt.
    """
    session = open_session(tmp_path)
    if truncate_log:
        session.checkpoint()
    else:
        try:
            with inject(FaultPlan(crash_at="checkpoint.after_replace")):
                session.checkpoint()
        except CrashError:
            pass
    session.close()
    path = str(tmp_path / "ledger.wal")
    return path, path + ".snapshot"


@pytest.mark.parametrize("region", SNAPSHOT_REGIONS)
def test_corrupt_snapshot_detected_and_full_log_replayed(tmp_path, region):
    path, snapshot = build_wal_with_snapshot(tmp_path)
    flip_snapshot_bit(snapshot, region)
    session, report = recover(path)
    assert report.snapshot_corrupt
    assert not report.snapshot_restored
    assert not report.clean
    result = session.sql("SELECT count(id) FROM ledger")
    assert result.rows == [{"count_id": NUM_ROWS}]
    session.close()


@pytest.mark.parametrize("region", SNAPSHOT_REGIONS)
def test_snapshot_read_raises_typed_error(tmp_path, region):
    """The read path surfaces corruption as SnapshotCorruptError, never a
    raw pickle/struct error swallowed (or crashing) somewhere else."""
    path, snapshot = build_wal_with_snapshot(tmp_path)
    flip_snapshot_bit(snapshot, region)
    with pytest.raises(SnapshotCorruptError):
        _read_snapshot(path)


def test_truncated_snapshot_detected(tmp_path):
    path, snapshot = build_wal_with_snapshot(tmp_path)
    truncate_file(snapshot, 4)
    with pytest.raises(SnapshotCorruptError):
        _read_snapshot(path)
    session, report = recover(path)
    assert report.snapshot_corrupt
    result = session.sql("SELECT count(id) FROM ledger")
    assert result.rows == [{"count_id": NUM_ROWS}]
    session.close()


def test_healthy_snapshot_still_restores(tmp_path):
    path, _snapshot = build_wal_with_snapshot(tmp_path, truncate_log=True)
    session, report = recover(path)
    assert report.snapshot_restored
    assert not report.snapshot_corrupt
    assert report.clean
    result = session.sql("SELECT count(id) FROM ledger")
    assert result.rows == [{"count_id": NUM_ROWS}]
    session.close()


def test_reopen_for_append_survives_corrupt_snapshot(tmp_path):
    """Re-opening the log (not recovery) must not crash on a bad snapshot."""
    path, snapshot = build_wal_with_snapshot(tmp_path)
    flip_snapshot_bit(snapshot, "payload")
    session, report = recover(path)  # recover() re-opens the WAL for append
    assert report.snapshot_corrupt
    session.sql("INSERT INTO ledger (id, account, amount) VALUES (9999, 'z', 1)")
    session.close()
    session2, report2 = recover(path)
    assert session2.sql("SELECT count(id) FROM ledger").rows == [
        {"count_id": NUM_ROWS + 1}
    ]
    session2.close()


# -- in-memory corruption --------------------------------------------------------------


def test_flip_detected_on_read_and_quarantined():
    session = open_session()
    # Record baselines point-in-time (the scrub), then corrupt.
    assert session.verify_integrity().clean
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "amount", index=17, bit=3)
    with pytest.raises(DataCorruptionError) as excinfo:
        session.sql("SELECT sum(amount) FROM ledger")
    assert excinfo.value.table == "ledger"
    assert excinfo.value.column == "amount"
    assert "checksum mismatch" in str(excinfo.value)
    # Quarantine is sticky: every later access raises too.
    with pytest.raises(DataCorruptionError):
        session.sql("SELECT * FROM ledger WHERE amount >= 0")
    stats = session.stats()
    assert stats.integrity_corruption_detected == 1
    assert stats.integrity_units_quarantined == 1
    session.close()


def test_scrub_detects_reports_and_rereports():
    session = open_session()
    first = session.verify_integrity()
    assert first.clean
    assert first.baselines_recorded == len(SCHEMA.column_names)
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "account", index=5)
    report = session.verify_integrity()
    assert [unit.column for unit in report.corrupt] == ["account"]
    unit = report.corrupt[0]
    assert unit.table == "ledger" and unit.partition is None
    assert "checksum mismatch" in unit.reason
    # A second scrub re-reports the quarantined unit without double counting.
    counters = copy(current().counters)
    again = session.verify_integrity()
    assert [unit.column for unit in again.corrupt] == ["account"]
    assert current().counters.units_quarantined == counters.units_quarantined
    session.close()


def test_quarantine_survives_integrity_disabled():
    session = open_session()
    session.verify_integrity()
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "amount")
    assert not session.verify_integrity().clean
    with integrity_disabled():
        # Verification is off, but quarantined data must never serve.
        with pytest.raises(DataCorruptionError):
            session.sql("SELECT sum(amount) FROM ledger")
        report = session.verify_integrity()
        assert not report.clean
        assert report.units_verified == 0  # nothing verified, only reported
    session.close()


def test_legitimate_mutation_is_not_corruption():
    session = open_session()
    session.verify_integrity()
    # A real mutation bumps the zone epoch; the next scrub re-baselines
    # instead of crying corruption.
    session.sql("INSERT INTO ledger (id, account, amount) VALUES (9000, 'q', 5)")
    session.merge_deltas("ledger")
    session.sql("UPDATE ledger SET amount = 0 WHERE id = 3")
    assert session.verify_integrity().clean
    assert session.sql("SELECT count(id) FROM ledger").rows == [
        {"count_id": NUM_ROWS + 1}
    ]
    session.close()


def test_scan_verification_can_be_configured_off():
    session = open_session(
        integrity=IntegrityConfig(verify_on_scan=False)
    )
    session.verify_integrity()
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "amount")
    # Scans no longer verify (no detection on read)...
    session.sql("SELECT sum(amount) FROM ledger")
    # ...but the explicit scrub still catches the flip.
    assert not session.verify_integrity().clean
    session.close()


# -- partitioned tables ----------------------------------------------------------------


def test_corruption_error_names_horizontal_partition():
    session = open_session()
    session.apply_partitioning(
        "ledger",
        TablePartitioning(
            horizontal=HorizontalPartitionSpec(predicate=ge("id", NUM_ROWS - 50)),
        ),
    )
    table = session.database.table_object("ledger")
    session.verify_integrity()
    flip_code_bit(table.main_parts[0].backend, "amount")
    report = session.verify_integrity()
    assert [(unit.partition, unit.column) for unit in report.corrupt] == [
        ("main", "amount")
    ]
    with pytest.raises(DataCorruptionError) as excinfo:
        session.sql("SELECT sum(amount) FROM ledger")
    assert excinfo.value.partition == "main"
    assert "partition 'main'" in str(excinfo.value)
    session.close()


def test_corruption_error_names_vertical_partition():
    session = open_session()
    session.apply_partitioning(
        "ledger",
        TablePartitioning(
            vertical=VerticalPartitionSpec(
                row_store_columns=("account",),
                column_store_columns=("amount",),
            ),
        ),
    )
    table = session.database.table_object("ledger")
    session.verify_integrity()
    flip_code_bit(table._vertical_col_part.backend, "amount")
    report = session.verify_integrity()
    assert [(unit.partition, unit.column) for unit in report.corrupt] == [
        ("main.column", "amount")
    ]
    session.close()


# -- repair ----------------------------------------------------------------------------


def test_repair_restores_rows_and_charges_bit_identical(tmp_path):
    reference_session = open_session()
    query = "SELECT sum(amount) FROM ledger WHERE id >= 100"
    reference = reference_session.sql(query)
    reference_session.close()

    session = open_session(tmp_path)
    session.verify_integrity()
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "amount", index=123)
    with pytest.raises(DataCorruptionError):
        session.sql(query)
    repaired = session.repair()
    assert repaired == 1
    assert session.verify_integrity().clean
    healed = session.sql(query)
    assert healed.rows == reference.rows
    assert healed.cost.components == reference.cost.components
    assert session.stats().integrity_units_repaired == 1
    session.close()


def test_repair_covers_checkpoint_plus_tail(tmp_path):
    """Repair recovers through the snapshot + replay path, not the log alone."""
    session = open_session(tmp_path)
    session.checkpoint()  # log truncated; snapshot is the only base copy
    session.sql("INSERT INTO ledger (id, account, amount) VALUES (9001, 'x', 8)")
    expected = session.sql("SELECT count(id), sum(amount) FROM ledger").rows
    session.verify_integrity()
    backend = session.database.table_object("ledger").backend
    flip_code_bit(backend, "id", index=42)
    assert not session.verify_integrity().clean
    assert session.repair() == 1
    assert session.sql("SELECT count(id), sum(amount) FROM ledger").rows == expected
    session.close()


def test_repair_without_wal_refuses():
    session = open_session()
    session.verify_integrity()
    flip_code_bit(session.database.table_object("ledger").backend, "amount")
    session.verify_integrity()
    with pytest.raises(WalError):
        session.repair()
    session.close()


def test_repair_with_nothing_quarantined_is_a_noop(tmp_path):
    session = open_session(tmp_path)
    assert session.repair() == 0
    session.close()


# -- shared-memory corruption (shard workers) ------------------------------------------

SHARD_FAST = dict(fan_out=4, min_rows=1, gather_timeout_s=0.8, backoff_s=0.005)


@pytest.fixture
def _pool_cleanup():
    yield
    shutdown_worker_pool()
    audit_shared_segments()


def build_shard_database():
    database = HybridDatabase()
    database.create_table(SCHEMA, store=Store.COLUMN)
    database.load_rows("ledger", make_rows(2_000))
    return database


def test_shm_flip_caught_by_checksum_and_healed_by_retry(_pool_cleanup):
    database = build_shard_database()
    query = (
        aggregate("ledger").sum("amount").count()
        .group_by("account").where(ge("amount", 10)).build()
    )
    with shard_execution_disabled():
        reference = database.execute(query)
    counters = copy(current().counters)
    with shard_config(**SHARD_FAST):
        with inject(FaultPlan(crash_at="shard.shm.bit_flip")):
            result = database.execute(query)
    assert sorted(map(repr, result.rows)) == sorted(map(repr, reference.rows))
    assert result.cost.components == reference.cost.components
    assert result.shard_stats["ledger"][0] == 4  # healed, still sharded
    assert not result.degradations
    assert current().counters.shard_retries == counters.shard_retries + 1


def test_persistent_shm_flip_degrades_via_checksum_mismatch(_pool_cleanup):
    database = build_shard_database()
    query = select("ledger").columns("id", "account").where(ge("amount", 50)).build()
    with shard_execution_disabled():
        reference = database.execute(query)
    with shard_config(**SHARD_FAST):
        with inject(FaultPlan(crash_at="shard.shm.bit_flip", every_hit=True)):
            result = database.execute(query)
    assert sorted(map(repr, result.rows)) == sorted(map(repr, reference.rows))
    # Zero stray charges: the failed sharded attempts bill nothing.
    assert result.cost.components == reference.cost.components
    ladder = result.degradations["ledger"]
    assert ladder.startswith("shard-parallel -> retry x1 -> serial")
    assert "checksum mismatch" in ladder


#: 2 000 rows at fan-out 4: shard *k* owns rows ``[500k, 500k + 500)`` and
#: therefore segment bytes ``[4000k, 4000k + 4000)``.
SHARD_ROWS = 500


def _flip_in_shard(database, flip_byte, every_hit):
    query = (
        aggregate("ledger").sum("amount").count()
        .group_by("account").where(ge("amount", 10)).build()
    )
    with shard_execution_disabled():
        reference = database.execute(query)
    counters = copy(current().counters)
    with shard_config(**SHARD_FAST):
        plan = FaultPlan(crash_at="shard.shm.bit_flip", flip_byte=flip_byte,
                         every_hit=every_hit)
        with inject(plan):
            result = database.execute(query)
    # Whatever the ladder did, rows and charges match the serial reference.
    assert sorted(map(repr, result.rows)) == sorted(map(repr, reference.rows))
    assert result.cost.components == reference.cost.components
    assert current().counters.shard_retries == counters.shard_retries + 1
    return result


@pytest.mark.parametrize("shard", range(4))
def test_flip_in_any_shard_is_caught_by_that_shard(shard, _pool_cleanup):
    """Slice-level verification covers every shard's range, not just byte 0.

    A one-shot flip heals by republish + retry (still sharded); a
    persistent one degrades to serial, and the error names exactly the row
    range of the shard that holds the damaged byte — the other three tasks
    verified their own ranges clean.
    """
    database = build_shard_database()
    flip_byte = 8 * SHARD_ROWS * shard + 8 * 123 + 5  # mid-shard, mid-code
    healed = _flip_in_shard(database, flip_byte, every_hit=False)
    assert healed.shard_stats["ledger"][0] == 4 and not healed.degradations

    degraded = _flip_in_shard(database, flip_byte, every_hit=True)
    assert not degraded.shard_stats
    ladder = degraded.degradations["ledger"]
    assert ladder.startswith("shard-parallel -> retry x1 -> serial")
    assert "checksum mismatch" in ladder
    assert f"rows [{SHARD_ROWS * shard}, {SHARD_ROWS * (shard + 1)})" in ladder


@pytest.mark.parametrize("flip_byte, owner", [
    (8 * SHARD_ROWS - 1, "rows [0, 500)"),     # last byte of shard 0
    (8 * SHARD_ROWS, "rows [500, 1000)"),      # first byte of shard 1
])
def test_flip_on_a_shard_boundary_belongs_to_exactly_one_shard(
        flip_byte, owner, _pool_cleanup):
    degraded = _flip_in_shard(build_shard_database(), flip_byte, every_hit=True)
    assert owner in degraded.degradations["ledger"]


# -- telemetry -------------------------------------------------------------------------


def test_explain_analyze_reports_integrity_lines():
    session = open_session()
    text = session.explain(
        "SELECT sum(amount) FROM ledger WHERE amount >= 10", analyze=True
    )
    assert "integrity:" in text
    assert "units_verified" in text
    # Once verified at this epoch, the next run owes nothing — the block
    # disappears instead of printing zeros.
    again = session.explain(
        "SELECT sum(amount) FROM ledger WHERE amount >= 10", analyze=True
    )
    assert "integrity:" not in again
    session.close()


def test_verification_charges_zero_cost():
    """Integrity on/off never moves a query's CostBreakdown (fuzzer contract)."""
    with integrity_disabled():
        reference_session = open_session()
        reference = reference_session.sql("SELECT sum(amount) FROM ledger")
        reference_session.close()
    session = open_session()
    result = session.sql("SELECT sum(amount) FROM ledger")
    assert result.integrity  # it really did verify...
    assert result.cost.components == reference.cost.components  # ...for free
    session.close()


def test_session_stats_report_verification_deltas():
    session = open_session()
    before = session.stats().integrity_units_verified
    session.sql("SELECT sum(amount) FROM ledger")
    assert session.stats().integrity_units_verified > before
    session.close()
