"""Write-ahead log format, sync modes, damage tolerance and replay.

The WAL is a logical redo log: statements, not pages.  These tests pin

* the on-disk format (magic, length-prefixed CRC records) and its failure
  modes — torn tails (truncation mid-record) stop replay and are trimmed on
  re-open; checksum-corrupt records are *skipped* and the records behind
  them still replay;
* the three sync modes' durability windows (``commit`` per statement,
  ``batch`` per N records, ``off`` until an explicit flush);
* replay idempotency: :func:`repro.engine.wal.recover` is read-only, so
  recovering the same file twice yields identical databases *and* identical
  :class:`RecoveryReport`s — on clean, torn-at-a-boundary and torn
  mid-record logs alike;
* checkpointing: the snapshot + LSN filter make records before the
  checkpoint stale, and re-opening a log resumes its LSN sequence — from
  the snapshot's frame header, or from inside an ``RPSNAP1`` payload;
* the streaming reader: each kind of damage yields the same report fields
  and the same resume boundary, and recovery holds one record at a time,
  so its allocation peak stays near that of the load it replays.

The crash-window differential (killing the engine at every declared fault
point) lives in ``test_recovery_fuzz.py``.
"""

import os
import pickle
import struct
import tracemalloc
import zlib

import pytest

from repro.engine.database import HybridDatabase
from repro.engine.schema import Column, TableSchema
from repro.engine.types import DataType, Store
from repro.engine.wal import MAGIC, WriteAheadLog, recover
from repro.errors import SchemaError, WalError
from repro.query.builder import delete, insert, select, update
from repro.query.predicates import eq, ge
from repro.testing.faults import flip_bit, flip_snapshot_bit, truncate_file

SCHEMA = TableSchema(
    "t",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("v", DataType.VARCHAR, nullable=True),
    ),
)


DOUBLES = TableSchema(
    "d",
    (Column("id", DataType.INTEGER, primary_key=True), Column("x", DataType.DOUBLE)),
)


def make_db(path, sync_mode="commit", batch_size=32):
    database = HybridDatabase()
    database.attach_wal(WriteAheadLog(path, sync_mode=sync_mode, batch_size=batch_size))
    return database


def run_workload(database):
    """Five loggable statements: create, load, two inserts, one update."""
    database.create_table(SCHEMA, Store.COLUMN)
    database.load_rows("t", [{"id": 0, "v": "zero"}, {"id": 1, "v": "one"}])
    database.execute(insert("t", [{"id": 2, "v": "two"}]))
    database.execute(insert("t", [{"id": 3, "v": None}]))
    database.execute(update("t", {"v": "ONE"}, eq("id", 1)))


EXPECTED_ROWS = [
    {"id": 0, "v": "zero"},
    {"id": 1, "v": "ONE"},
    {"id": 2, "v": "two"},
    {"id": 3, "v": None},
]


def rows_of(database):
    return database.execute(select("t").build()).rows


def record_spans(path):
    """``(offset, payload_length)`` of every record, parsed independently."""
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.startswith(MAGIC)
    spans = []
    offset = len(MAGIC)
    while offset + 8 <= len(data):
        length, _crc = struct.unpack_from("<II", data, offset)
        spans.append((offset, length))
        offset += 8 + length
    return spans


class TestFormat:
    def test_magic_and_full_roundtrip(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.wal.close()
        with open(path, "rb") as handle:
            assert handle.read(len(MAGIC)) == MAGIC
        result = recover(path)
        assert rows_of(result.database) == EXPECTED_ROWS
        assert result.report.records_applied == 5
        assert result.report.last_lsn == 5
        assert result.report.clean

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "junk.wal")
        with open(path, "wb") as handle:
            handle.write(b"not a wal file at all")
        with pytest.raises(WalError):
            recover(path)

    def test_bad_sync_mode_and_batch_size(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path / "a.wal"), sync_mode="always")
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path / "b.wal"), sync_mode="batch", batch_size=0)

    def test_load_into_a_closed_log_raises_before_loading(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        database.create_table(SCHEMA, Store.COLUMN)
        database.wal.close()
        with pytest.raises(WalError, match="closed"):
            database.load_rows("t", [{"id": 0, "v": "zero"}])
        assert database.table_object("t").num_rows == 0

    def test_a_logged_load_is_validated_on_replay(self, tmp_path):
        # A load record carries the loaded columns; replay applies the
        # load's own type rule to them before any store sees them.
        path = str(tmp_path / "db.wal")
        wal = WriteAheadLog(path)
        wal.log_create_table(DOUBLES, Store.ROW)
        wal.log_load_columns("d", {"id": [0, 1], "x": [1, 2.5]}, 2)
        wal.close()
        database = recover(path).database
        values = database.table_object("d").column_values("x")
        assert values == [1.0, 2.5] and type(values[0]) is float
        for columns in ({"id": [2], "x": [None]}, {"id": [2]}, {"id": [2, 3], "x": [1.0]}):
            wal = WriteAheadLog(path)
            wal.log_load_columns("d", columns, 1)
            wal.close()
            with pytest.raises(SchemaError):
                recover(path)
            truncate_file(path, record_spans(path)[-1][0])

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "c.wal"))
        wal.close()
        wal.close()  # idempotent
        assert wal.closed
        with pytest.raises(WalError):
            wal.append("dml", None)


class TestSyncModes:
    def test_commit_mode_is_durable_per_statement(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path, sync_mode="commit")
        database.create_table(SCHEMA, Store.COLUMN)
        database.execute(insert("t", [{"id": 0, "v": "x"}]))
        # No flush/close: every record must already be on disk.
        result = recover(path)
        assert rows_of(result.database) == [{"id": 0, "v": "x"}]

    def test_off_mode_buffers_until_flush(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path, sync_mode="off")
        database.create_table(SCHEMA, Store.COLUMN)
        database.execute(insert("t", [{"id": 0, "v": "x"}]))
        lost = recover(path)
        assert lost.database.table_names() == []  # nothing reached the file
        database.wal.flush()
        kept = recover(path)
        assert rows_of(kept.database) == [{"id": 0, "v": "x"}]

    def test_batch_mode_flushes_every_n_records(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path, sync_mode="batch", batch_size=3)
        database.create_table(SCHEMA, Store.COLUMN)  # record 1
        database.execute(insert("t", [{"id": 0, "v": "x"}]))  # record 2
        assert recover(path).report.records_applied == 0  # batch not full
        database.execute(insert("t", [{"id": 1, "v": "y"}]))  # record 3: flush
        assert recover(path).report.records_applied == 3
        database.execute(insert("t", [{"id": 2, "v": "z"}]))  # record 4 buffers
        assert recover(path).report.records_applied == 3


class TestDamage:
    def _closed_log(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.wal.close()
        return path

    def test_mid_record_truncation_is_a_torn_tail(self, tmp_path):
        path = self._closed_log(tmp_path)
        size = os.path.getsize(path)
        truncate_file(path, size - 3)
        result = recover(path)
        assert result.report.torn_tail_offset == record_spans(path)[-1][0]
        assert result.report.torn_tail_bytes > 0
        assert result.report.records_applied == 4  # last statement lost
        assert not result.report.clean
        # The update (record 5) was torn: row 1 keeps its loaded value.
        expected = [dict(row) for row in EXPECTED_ROWS]
        expected[1]["v"] = "one"
        assert rows_of(result.database) == expected

    def test_boundary_truncation_is_clean(self, tmp_path):
        path = self._closed_log(tmp_path)
        last_offset, _ = record_spans(path)[-1]
        truncate_file(path, last_offset)
        result = recover(path)
        assert result.report.clean
        assert result.report.torn_tail_bytes == 0
        assert result.report.records_applied == 4

    def test_reopen_truncates_the_torn_tail(self, tmp_path):
        path = self._closed_log(tmp_path)
        size = os.path.getsize(path)
        truncate_file(path, size - 3)
        boundary = record_spans(path)[-1][0]
        WriteAheadLog(path).close()  # re-open trims, close flushes nothing
        assert os.path.getsize(path) == boundary
        assert recover(path).report.clean

    def test_corrupt_record_is_skipped_but_suffix_replays(self, tmp_path):
        path = self._closed_log(tmp_path)
        spans = record_spans(path)
        # Flip a payload bit of record 4 (the id=3 insert); the header and
        # the records behind it stay parseable.
        offset, _length = spans[3]
        flip_bit(path, offset + 8 + 2)
        result = recover(path)
        assert result.report.corrupt_offsets == (offset,)
        assert result.report.records_applied == 4
        assert not result.report.clean
        expected = [row for row in EXPECTED_ROWS if row["id"] != 3]
        assert rows_of(result.database) == expected

    def test_resume_after_damage_keeps_appending(self, tmp_path):
        path = self._closed_log(tmp_path)
        truncate_file(path, os.path.getsize(path) - 3)
        result = recover(path)
        assert result.report.last_lsn == 4
        database = result.database
        # Re-open for appending: trims the tail, resumes LSN 4 -> 5.
        database.attach_wal(WriteAheadLog(path))
        database.execute(insert("t", [{"id": 9, "v": "late"}]))
        # The new statement must replay on top of the trimmed prefix.
        replayed = recover(path)
        assert replayed.report.last_lsn == 5
        assert {row["id"] for row in rows_of(replayed.database)} == {0, 1, 2, 3, 9}


class TestReplayIdempotency:
    """recover() never writes: same file in, same database + report out."""

    @pytest.mark.parametrize("damage", ["clean", "boundary", "mid_record", "corrupt"])
    def test_recover_twice_is_identical(self, tmp_path, damage):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.wal.close()
        if damage == "boundary":
            truncate_file(path, record_spans(path)[-1][0])
        elif damage == "mid_record":
            truncate_file(path, os.path.getsize(path) - 3)
        elif damage == "corrupt":
            offset, _ = record_spans(path)[2]
            flip_bit(path, offset + 8 + 1)
        first = recover(path)
        second = recover(path)
        assert first.report == second.report
        assert rows_of(first.database) == rows_of(second.database)
        # Physical state must match too: the same probe charges bit-identical
        # simulated costs against both recovered databases.
        probe = select("t").where(ge("id", 1)).build()
        assert (
            first.database.execute(probe).cost.components
            == second.database.execute(probe).cost.components
        )


class TestCheckpoint:
    def test_checkpoint_resets_log_and_recovery_restores_snapshot(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        snapshot_lsn = database.checkpoint()
        assert snapshot_lsn == 5
        assert record_spans(path) == []  # log reset to just the magic
        database.execute(delete("t", ge("id", 3)))
        result = recover(path)
        assert result.report.snapshot_restored
        assert result.report.snapshot_lsn == 5
        assert result.report.records_applied == 1
        assert result.report.records_stale == 0
        assert rows_of(result.database) == [row for row in EXPECTED_ROWS if row["id"] < 3]

    def test_stale_records_are_skipped_by_lsn(self, tmp_path):
        # Simulate the crash window where the snapshot was renamed but the
        # log was not yet truncated: recovery must not replay records whose
        # LSN the snapshot already covers.
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        with open(path, "rb") as handle:
            log_with_all_records = handle.read()
        database.checkpoint()
        with open(path, "wb") as handle:
            handle.write(log_with_all_records)  # undo the truncate only
        result = recover(path)
        assert result.report.snapshot_restored
        assert result.report.records_stale == 5
        assert result.report.records_applied == 0
        assert rows_of(result.database) == EXPECTED_ROWS

    def test_reopen_resumes_lsn_after_checkpoint(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.checkpoint()
        database.wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 5  # from the snapshot side-car
        reopened.close()

    def test_reopen_reads_the_snapshot_lsn_from_its_header(self, tmp_path):
        # A completed checkpoint leaves an empty log: the LSN comes from the
        # side-car's checksummed header, even with its payload damaged.
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.checkpoint()
        database.wal.close()
        flip_snapshot_bit(path + ".snapshot", "payload")
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 5
        reopened.close()
        flip_snapshot_bit(path + ".snapshot", "header")
        reopened = WriteAheadLog(path)  # a bad header never blocks a re-open
        assert reopened.last_lsn == 0
        reopened.close()

    def test_a_version_1_snapshot_still_restores_and_resumes(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.checkpoint()
        database.execute(delete("t", ge("id", 3)))
        database.wal.close()
        # The RPSNAP1 frame: [u32 length][u32 crc], then pickle((lsn, state)).
        payload = pickle.dumps((5, recover(path).database.snapshot_state()))
        with open(path + ".snapshot", "wb") as handle:
            handle.write(b"RPSNAP1\n")
            handle.write(struct.pack("<II", len(payload), zlib.crc32(payload)))
            handle.write(payload)
        result = recover(path)
        assert result.report.snapshot_restored
        assert result.report.snapshot_lsn == 5
        assert result.report.records_applied == 1
        assert rows_of(result.database) == [row for row in EXPECTED_ROWS if row["id"] < 3]
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == 6
        reopened.close()


def _damage_corrupt_middle(path, spans):
    flip_bit(path, spans[2][0] + 8 + 1)
    return {"corrupt_offsets": (spans[2][0],), "torn_tail_offset": None,
            "torn_tail_bytes": 0, "records_applied": 4, "records_stale": 0,
            "last_lsn": 5}, os.path.getsize(path)


def _damage_torn_header(path, spans):
    truncate_file(path, spans[-1][0] + 5)
    return {"corrupt_offsets": (), "torn_tail_offset": spans[-1][0],
            "torn_tail_bytes": 5, "records_applied": 4, "records_stale": 0,
            "last_lsn": 4}, spans[-1][0]


def _damage_torn_payload(path, spans):
    truncate_file(path, spans[-1][0] + 8 + 2)
    return {"corrupt_offsets": (), "torn_tail_offset": spans[-1][0],
            "torn_tail_bytes": 10, "records_applied": 4, "records_stale": 0,
            "last_lsn": 4}, spans[-1][0]


def _damage_prefix_of_magic(path, spans):
    with open(path, "wb") as handle:
        handle.write(MAGIC[:3])
    return {"corrupt_offsets": (), "torn_tail_offset": 0,
            "torn_tail_bytes": 3, "records_applied": 0, "records_stale": 0,
            "last_lsn": 0}, len(MAGIC)


def _damage_stale_and_corrupt(path, spans):
    # The snapshot covers every record (a crash before the checkpoint's
    # truncate), and one of the stale records is corrupt besides.
    with open(path, "rb") as handle:
        log = handle.read()
    database = recover(path).database
    database.attach_wal(WriteAheadLog(path))
    database.checkpoint()
    database.wal.close()
    with open(path, "wb") as handle:
        handle.write(log)
    flip_bit(path, spans[1][0] + 8 + 1)
    return {"corrupt_offsets": (spans[1][0],), "torn_tail_offset": None,
            "torn_tail_bytes": 0, "records_applied": 0, "records_stale": 4,
            "last_lsn": 5}, os.path.getsize(path)


DAMAGE = {
    "corrupt_middle": _damage_corrupt_middle,
    "torn_header": _damage_torn_header,
    "torn_payload": _damage_torn_payload,
    "prefix_of_magic": _damage_prefix_of_magic,
    "stale_and_corrupt": _damage_stale_and_corrupt,
}


class TestStreamingReader:
    """What the reader reports for each kind of damage, and where a re-open cuts."""

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_report_and_resume_boundary(self, tmp_path, damage):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.wal.close()
        expected, resume_end = DAMAGE[damage](path, record_spans(path))
        report = recover(path).report
        assert {name: getattr(report, name) for name in expected} == expected
        reopened = WriteAheadLog(path)
        assert reopened.last_lsn == expected["last_lsn"]
        reopened.close()
        assert os.path.getsize(path) == resume_end
        again = recover(path).report  # the re-open cut any torn tail away
        assert again.torn_tail_offset is None
        assert again.records_applied == expected["records_applied"]

    def test_bad_magic_neither_recovers_nor_reopens(self, tmp_path):
        path = str(tmp_path / "db.wal")
        database = make_db(path)
        run_workload(database)
        database.wal.close()
        flip_bit(path, 0)
        size = os.path.getsize(path)
        with pytest.raises(WalError, match="bad magic"):
            recover(path)
        with pytest.raises(WalError, match="bad magic"):
            WriteAheadLog(path)
        assert os.path.getsize(path) == size


MEMORY_SCHEMA = TableSchema(
    "m",
    (
        Column("id", DataType.INTEGER, primary_key=True),
        Column("name", DataType.VARCHAR),
        Column("amount", DataType.DOUBLE),
        Column("day", DataType.INTEGER),
        Column("note", DataType.VARCHAR, nullable=True),
    ),
)
MEMORY_ROWS = 40_000

#: Recovering a load may allocate at most this multiple of the load's own
#: allocation peak.  Recovery must build the values themselves as well
#: (the load's caller already held them): 26.3 MB against the load's
#: 18.5 MB, 1.42x, on CPython 3.11.  Holding every record as row dicts for
#: the whole replay took it to 33.6 MB, 1.79x.
RECOVERY_PEAK_FACTOR = 1.6


def _memory_rows():
    return [
        {"id": i, "name": "customer-%d" % (i % 977), "amount": i * 0.25,
         "day": i % 365, "note": None if i % 7 == 0 else "n%d" % (i % 50)}
        for i in range(MEMORY_ROWS)
    ]


def _peak(function, *args):
    tracemalloc.start()
    try:
        result = function(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestRecoveryMemory:
    def test_recovery_peak_stays_near_the_load_peak(self, tmp_path):
        """One 40 k-row load and 300 DML records, replayed into the row store."""
        path = str(tmp_path / "m.wal")
        database = make_db(path, sync_mode="off")
        database.create_table(MEMORY_SCHEMA, Store.ROW)
        database.load_rows("m", _memory_rows())
        for i in range(300):
            if i % 2:
                database.execute(insert("m", [{"id": MEMORY_ROWS + i, "name": "x",
                                               "amount": 1.0, "day": 1}]))
            else:
                database.execute(update("m", {"amount": 2.0}, eq("id", i)))
        database.wal.close()
        del database

        fresh = HybridDatabase()
        fresh.create_table(MEMORY_SCHEMA, Store.ROW)
        load_peak, _ = _peak(fresh.load_rows, "m", _memory_rows())
        del fresh
        recover_peak, result = _peak(recover, path)
        assert result.report.records_applied == 302
        assert result.database.table_object("m").num_rows == MEMORY_ROWS + 150
        assert recover_peak <= RECOVERY_PEAK_FACTOR * load_peak, (
            f"recovery peaked at {recover_peak / 1e6:.1f} MB, "
            f"{recover_peak / load_peak:.2f}x the load's {load_peak / 1e6:.1f} MB"
        )
