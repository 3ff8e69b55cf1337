"""Write-ahead log and crash recovery for :class:`HybridDatabase`.

The WAL is a *logical* redo log: every record describes one committed
statement (a DDL operation, a bulk load, or a DML query's bound AST) rather
than physical page images.  Replaying the records through a fresh database —
the same code paths that executed them the first time — rebuilds a
bit-identical engine state, including the dictionary entry order, zone maps
and the simulated-cost statistics, because the engine is deterministic.

On-disk format::

    RPWAL1\\n                                 magic (7 bytes)
    [u32 length][u32 crc32][payload] ...     records, little-endian header

where ``payload`` is ``pickle((lsn, record_type, data))``.  The CRC covers
the payload only; the length prefix lets recovery skip a checksum-corrupt
record and keep replaying the records behind it.  A record whose header or
payload extends past the end of the file is a *torn tail* (the process died
mid-flush): recovery stops there and reports the number of bytes ignored,
and re-opening the log for appending truncates the tail away.

The log is read one record at a time (:class:`_LogReader`): recovery reads,
checks, unpickles and applies a record, then drops it before reading the
next, and re-opening a log keeps only its last LSN and valid end.  A bulk
load is logged as the columns it loaded, so replaying one holds that load's
column lists once, and no row objects at all.

Sync modes (how much of the log survives a crash):

``"commit"``
    Every appended record is flushed and ``fsync``-ed before the append
    returns — a crash loses at most the statement in flight.
``"batch"``
    Records buffer in memory and flush every ``batch_size`` appends — a
    crash loses at most one batch.
``"off"``
    Records buffer until an explicit :meth:`WriteAheadLog.flush`,
    :meth:`WriteAheadLog.checkpoint` or :meth:`WriteAheadLog.close` — fast,
    but a crash loses everything since the last flush.

A :meth:`WriteAheadLog.checkpoint` pickles the database state into a
side-car snapshot file (written to a temp file and atomically renamed) and
resets the log; recovery restores the snapshot first and replays only the
records with an LSN greater than the snapshot's, which makes recovery
idempotent across every crash window of the checkpoint itself.  The
snapshot's LSN sits in its checksummed frame header::

    RPSNAP2\n                                          magic (8 bytes)
    [u64 lsn][u64 length][u32 crc32(payload)][u32 crc32(the 20 bytes before)]
    [payload]                                          pickle(state)

so re-opening a log learns it without reading the payload.  An ``RPSNAP1``
file (``[u32 length][u32 crc32]`` then ``pickle((lsn, state))``) still reads.

Every step a crash could separate from its neighbours calls
:func:`repro.testing.faults.fault_point`; the recovery differential fuzzer
(``tests/engine/test_recovery_fuzz.py``) crashes at each of them and asserts
the recovered database equals a committed-prefix reference.
"""

from __future__ import annotations

import io
import os
import pickle
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Mapping, Optional, Tuple

from repro.config import DeviceModelConfig
from repro.engine.database import HybridDatabase
from repro.engine.partitioning import TablePartitioning
from repro.engine.schema import TableSchema
from repro.engine.types import Store
from repro.errors import SnapshotCorruptError, WalError
from repro.query.ast import Query
from repro.testing import faults

MAGIC = b"RPWAL1\n"

#: Checkpoint snapshot side-car files carry their own magic + crc frame
#: (``SNAPSHOT_MAGIC`` + ``_SNAPSHOT_FIELDS`` + ``_CRC`` + pickle payload), so
#: a flipped bit or a truncation is a typed :class:`SnapshotCorruptError`,
#: never undefined pickle behaviour.  The version digit is part of the magic,
#: like the log's; ``_SNAPSHOT_MAGIC_V1`` files (no LSN in the header) still
#: read.
SNAPSHOT_MAGIC = b"RPSNAP2\n"
_SNAPSHOT_MAGIC_V1 = b"RPSNAP1\n"

#: ``[u32 payload length][u32 crc32(payload)]`` little-endian record header
#: (also the frame header of an ``RPSNAP1`` snapshot).
_HEADER = struct.Struct("<II")

#: ``[u64 snapshot lsn][u64 payload length][u32 crc32(payload)]``, followed
#: by ``_CRC`` over these 20 bytes: a snapshot's frame header.
_SNAPSHOT_FIELDS = struct.Struct("<QQI")
_CRC = struct.Struct("<I")
SNAPSHOT_HEADER_SIZE = _SNAPSHOT_FIELDS.size + _CRC.size

SYNC_MODES = ("off", "commit", "batch")

# Record types.  The payload data per type:
CREATE_TABLE = "create_table"  # (TableSchema, Store)
DROP_TABLE = "drop_table"  # table name
MOVE_TABLE = "move_table"  # (name, Store)
APPLY_PARTITIONING = "apply_partitioning"  # (name, TablePartitioning)
REMOVE_PARTITIONING = "remove_partitioning"  # (name, Store)
# (name, {column: validated values}, num_rows); older logs: (name, row dicts)
LOAD_ROWS = "load_rows"
DML = "dml"  # bound Query AST (INSERT / UPDATE / DELETE)


def _fsync(handle: io.BufferedWriter) -> None:
    handle.flush()
    os.fsync(handle.fileno())


class _LogReader:
    """One pass over a log file, one framed record at a time.

    Iterating yields ``(lsn, record_type, data)`` for every record whose
    crc matches, in file order; only the record being read is held.  The
    damage bookkeeping is complete once the iteration ends.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: File offsets of records whose CRC did not match (skipped).
        self.corrupt_offsets: List[int] = []
        #: Offset where a torn tail begins, or ``None`` if the file ends
        #: cleanly.
        self.torn_tail_offset: Optional[int] = None
        #: Total file size in bytes.
        self.file_bytes = 0
        #: Highest LSN read (0 for a log without records).
        self.max_lsn = 0

    @property
    def valid_end(self) -> int:
        """End of the parseable region (start of the torn tail, if any)."""
        if self.torn_tail_offset is not None:
            return self.torn_tail_offset
        return self.file_bytes

    @property
    def torn_tail_bytes(self) -> int:
        return self.file_bytes - self.valid_end

    def __iter__(self) -> Iterator[Tuple[int, str, Any]]:
        with open(self.path, "rb") as handle:
            end = self.file_bytes = os.fstat(handle.fileno()).st_size
            head = handle.read(len(MAGIC))
            if head != MAGIC:
                if MAGIC.startswith(head):
                    # Torn checkpoint reset: the crash hit between
                    # ``truncate(0)`` and the magic landing on disk, so the
                    # file is empty (or a strict prefix of the magic).
                    # Everything up to the snapshot already lives in the
                    # side-car; the whole file is a torn tail, no records.
                    self.torn_tail_offset = 0
                    return
                raise WalError(f"{self.path!r} is not a WAL file (bad magic)")
            offset = len(MAGIC)
            while offset < end:
                if offset + _HEADER.size > end:
                    self.torn_tail_offset = offset  # incomplete header
                    return
                length, crc = _HEADER.unpack(handle.read(_HEADER.size))
                body_end = offset + _HEADER.size + length
                if body_end > end:
                    self.torn_tail_offset = offset  # incomplete payload
                    return
                payload = handle.read(length)
                if zlib.crc32(payload) != crc:
                    self.corrupt_offsets.append(offset)
                else:
                    record = pickle.loads(payload)
                    del payload  # the record alone is held while it applies
                    self.max_lsn = max(self.max_lsn, record[0])
                    yield record
                    del record  # nor while the next one is read
                offset = body_end


class WriteAheadLog:
    """Length-prefixed, CRC-checksummed redo log with buffered appends.

    Opening a path that already holds a log resumes it: the tail is scanned,
    any torn suffix is truncated away, and new appends continue after the
    highest LSN on file (or after the side-car snapshot's LSN, whichever is
    larger).
    """

    def __init__(
        self,
        path: str,
        sync_mode: str = "commit",
        batch_size: int = 32,
    ) -> None:
        if sync_mode not in SYNC_MODES:
            raise WalError(
                f"unknown sync mode {sync_mode!r}; expected one of {SYNC_MODES}"
            )
        if batch_size < 1:
            raise WalError("batch_size must be >= 1")
        self.path = path
        self.snapshot_path = path + ".snapshot"
        self.sync_mode = sync_mode
        self.batch_size = batch_size
        self._buffer = bytearray()
        self._buffered_records = 0
        self._closed = False
        self._lsn = 0

        if os.path.exists(path) and os.path.getsize(path) > 0:
            scan = _LogReader(path)
            deque(scan, maxlen=0)  # read to the end, keeping no record
            self._lsn = scan.max_lsn
            if scan.valid_end < len(MAGIC):
                # Torn checkpoint reset left the file without a complete
                # magic; rewrite it from scratch so appends land behind a
                # valid header again.
                self._handle = open(path, "wb")
                self._handle.write(MAGIC)
                _fsync(self._handle)
            else:
                self._handle = open(path, "r+b")
                if scan.torn_tail_bytes:
                    # A previous process died mid-flush; cut the torn tail
                    # so the next record starts at a clean boundary.
                    self._handle.truncate(scan.valid_end)
                    _fsync(self._handle)
                self._handle.seek(scan.valid_end)
        else:
            self._handle = open(path, "wb")
            self._handle.write(MAGIC)
            _fsync(self._handle)
        if os.path.exists(self.snapshot_path):
            try:
                snapshot_lsn = _snapshot_lsn(self.snapshot_path)
            except SnapshotCorruptError:
                # A corrupt side-car must not block re-opening the log: LSNs
                # resume from the log's own maximum, and recovery reports the
                # damage (``RecoveryReport.snapshot_corrupt``) when asked.
                pass
            else:
                self._lsn = max(self._lsn, snapshot_lsn)

    # -- appending ---------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._lsn

    def append(self, record_type: str, data: Any) -> int:
        """Append one record, honouring the sync mode; returns its LSN."""
        if self._closed:
            raise WalError("write-ahead log is closed")
        faults.fault_point("wal.append.before")
        self._lsn += 1
        payload = pickle.dumps(
            (self._lsn, record_type, data), protocol=pickle.HIGHEST_PROTOCOL
        )
        self._buffer += _HEADER.pack(len(payload), zlib.crc32(payload))
        self._buffer += payload
        self._buffered_records += 1
        faults.fault_point("wal.append.buffered")
        if self.sync_mode == "commit" or (
            self.sync_mode == "batch" and self._buffered_records >= self.batch_size
        ):
            self.flush()
        return self._lsn

    def flush(self) -> None:
        """Write and ``fsync`` every buffered record."""
        if not self._buffer:
            return
        faults.fault_point("wal.flush.before_write")
        data = faults.filter_write("wal.flush.after_write", bytes(self._buffer))
        self._handle.write(data)
        self._handle.flush()
        faults.fault_point("wal.flush.after_write")
        os.fsync(self._handle.fileno())
        faults.fault_point("wal.flush.after_fsync")
        self._buffer.clear()
        self._buffered_records = 0

    def close(self) -> None:
        """Flush pending records and close the file.  Idempotent."""
        if self._closed:
            return
        self.flush()
        self._handle.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    # -- typed logging helpers (one per loggable engine operation) -----------------

    def log_create_table(self, schema: TableSchema, store: Store) -> int:
        return self.append(CREATE_TABLE, (schema, store))

    def log_drop_table(self, name: str) -> int:
        return self.append(DROP_TABLE, name)

    def log_move_table(self, name: str, store: Store) -> int:
        return self.append(MOVE_TABLE, (name, store))

    def log_apply_partitioning(
        self, name: str, partitioning: TablePartitioning
    ) -> int:
        return self.append(APPLY_PARTITIONING, (name, partitioning))

    def log_load_columns(
        self, name: str, columns: Mapping[str, list], num_rows: int
    ) -> int:
        return self.append(LOAD_ROWS, (name, columns, num_rows))

    def log_dml(self, query: Query) -> int:
        return self.append(DML, query)

    # -- checkpointing ---------------------------------------------------------------

    def checkpoint(self, database: HybridDatabase) -> int:
        """Snapshot *database* and reset the log; returns the snapshot LSN.

        The snapshot is written to a temp file and atomically renamed over
        the side-car path, so every crash window leaves a recoverable pair:
        before the rename recovery replays the full log; after the rename
        the snapshot's LSN makes any not-yet-truncated records stale, and
        recovery skips them.
        """
        if self._closed:
            raise WalError("write-ahead log is closed")
        faults.fault_point("checkpoint.before_snapshot")
        self.flush()
        snapshot_lsn = self._lsn
        payload = pickle.dumps(
            database.snapshot_state(), protocol=pickle.HIGHEST_PROTOCOL
        )
        fields = _SNAPSHOT_FIELDS.pack(
            snapshot_lsn, len(payload), zlib.crc32(payload)
        )
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(SNAPSHOT_MAGIC)
            handle.write(fields)
            handle.write(_CRC.pack(zlib.crc32(fields)))
            handle.write(payload)
            _fsync(handle)
        faults.fault_point("checkpoint.after_snapshot")
        os.replace(tmp_path, self.snapshot_path)
        faults.fault_point("checkpoint.after_replace")
        # Reset the log: everything up to snapshot_lsn now lives in the
        # snapshot.  A crash before the truncate leaves stale records behind,
        # which recovery's LSN filter skips; a crash between the truncate and
        # the magic landing leaves a file _LogReader treats as an all-torn
        # tail (zero records), so recovery restores the snapshot alone.
        self._handle.seek(0)
        self._handle.truncate(0)
        faults.fault_point("checkpoint.after_truncate")
        self._handle.write(MAGIC)
        _fsync(self._handle)
        faults.fault_point("checkpoint.after_reset")
        return snapshot_lsn


# -- recovery --------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What recovery found and did — equality-comparable for idempotency tests."""

    #: Records replayed into the recovered database.
    records_applied: int = 0
    #: Records skipped because their LSN predates the restored snapshot.
    records_stale: int = 0
    #: File offsets of checksum-corrupt records that were skipped.
    corrupt_offsets: Tuple[int, ...] = ()
    #: Offset of the torn tail (``None`` when the log ends at a boundary).
    torn_tail_offset: Optional[int] = None
    #: Bytes of torn tail ignored by replay.
    torn_tail_bytes: int = 0
    #: Whether a checkpoint snapshot was restored before replay.
    snapshot_restored: bool = False
    #: Whether a snapshot file existed but failed its frame validation (bad
    #: magic, truncation, crc mismatch).  Restore is skipped and the whole
    #: log is replayed — ``snapshot_lsn`` stays 0, so the LSN filter marks
    #: nothing stale; full-log replay recovers the committed state whenever
    #: the log still covers the prefix (e.g. a crash before the checkpoint's
    #: truncate).
    snapshot_corrupt: bool = False
    #: LSN recorded in the restored snapshot (0 without a snapshot).
    snapshot_lsn: int = 0
    #: Highest LSN replayed (or the snapshot LSN if nothing was replayed).
    last_lsn: int = 0
    #: Statements that raised during replay, as ``(lsn, error message)``.
    #: Only a log written before failed statements stopped being logged
    #: holds one: a statement that raises changes nothing, so it is no
    #: longer logged, and such an old record now replays to no effect
    #: (where it once re-committed a partial prefix).
    replay_errors: List[Tuple[int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when neither the log nor the snapshot carried any damage."""
        return (
            self.torn_tail_offset is None
            and not self.corrupt_offsets
            and not self.snapshot_corrupt
        )


@dataclass(frozen=True)
class RecoveryResult:
    database: HybridDatabase
    report: RecoveryReport


def _snapshot_frame(handle: io.BufferedReader, path: str) -> Tuple[Optional[int], int]:
    """Read and check a snapshot's magic and frame header: ``(lsn, crc)``.

    ``lsn`` is ``None`` for an ``RPSNAP1`` file, whose LSN is inside its
    payload; ``crc`` is the payload's.  A wrong or truncated magic or
    header, a header crc mismatch, or a file whose size is not the header's
    payload length past it raises :class:`SnapshotCorruptError`.
    """
    magic = handle.read(len(SNAPSHOT_MAGIC))
    if magic == SNAPSHOT_MAGIC:
        header = handle.read(SNAPSHOT_HEADER_SIZE)
        if len(header) < SNAPSHOT_HEADER_SIZE:
            raise SnapshotCorruptError(f"{path!r}: truncated snapshot header")
        fields = header[:_SNAPSHOT_FIELDS.size]
        (header_crc,) = _CRC.unpack_from(header, _SNAPSHOT_FIELDS.size)
        if zlib.crc32(fields) != header_crc:
            raise SnapshotCorruptError(f"{path!r}: snapshot header checksum mismatch")
        lsn, length, crc = _SNAPSHOT_FIELDS.unpack(fields)
    elif magic == _SNAPSHOT_MAGIC_V1:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise SnapshotCorruptError(f"{path!r}: truncated snapshot header")
        lsn = None
        length, crc = _HEADER.unpack(header)
    else:
        raise SnapshotCorruptError(
            f"{path!r} is not a checkpoint snapshot (bad magic)"
        )
    found = os.fstat(handle.fileno()).st_size - handle.tell()
    if found != length:
        raise SnapshotCorruptError(
            f"{path!r}: truncated snapshot payload "
            f"(expected {length} bytes, found {found})"
        )
    return lsn, crc


def _snapshot_lsn(path: str) -> int:
    """The LSN a snapshot covers, from its frame header alone.

    The header carries its own crc, so the LSN is trustworthy even when the
    payload behind it is damaged (which only restoring it checks).  An
    ``RPSNAP1`` snapshot is read whole.
    """
    with open(path, "rb") as handle:
        lsn = _snapshot_frame(handle, path)[0]
    return _read_snapshot(path)[0] if lsn is None else lsn


def _read_snapshot(path: str) -> Tuple[int, Any]:
    """Read and validate a framed checkpoint snapshot: ``(lsn, state)``.

    Every defect — wrong or truncated magic, truncated header or payload,
    crc mismatch, or a payload pickle that fails to load despite a matching
    crc — raises the typed :class:`SnapshotCorruptError`.  Nothing here is
    swallowed into torn-tail handling: a snapshot is atomically renamed
    into place, so *any* damage is corruption, not a torn write.
    """
    with open(path, "rb") as handle:
        lsn, crc = _snapshot_frame(handle, path)
        payload = handle.read()
    if zlib.crc32(payload) != crc:
        raise SnapshotCorruptError(f"{path!r}: snapshot checksum mismatch")
    try:
        state = pickle.loads(payload)
        if lsn is None:
            lsn, state = state
    except Exception as error:
        raise SnapshotCorruptError(
            f"{path!r}: snapshot payload does not unpickle ({error!r})"
        ) from error
    return lsn, state


def recover(
    path: str, device_config: Optional[DeviceModelConfig] = None
) -> RecoveryResult:
    """Rebuild a :class:`HybridDatabase` from the log (and snapshot) at *path*.

    Purely read-only: the log file is not modified, so recovering the same
    path twice yields identical databases and identical reports.  (Re-opening
    the path with :class:`WriteAheadLog` afterwards truncates any torn tail
    before appending resumes.)
    """
    report = RecoveryReport()
    database = HybridDatabase(device_config)

    snapshot_path = path + ".snapshot"
    if os.path.exists(snapshot_path):
        try:
            snapshot_lsn, state = _read_snapshot(snapshot_path)
        except SnapshotCorruptError:
            # Fall back to full-log replay: with snapshot_lsn at 0 the LSN
            # filter below marks nothing stale, so every surviving record
            # replays.  That recovers the committed state whenever the log
            # still covers the snapshot's prefix (e.g. the crash windows
            # before the checkpoint truncate); the report flags the damage
            # either way.
            report.snapshot_corrupt = True
        else:
            database.restore_state(state)
            report.snapshot_restored = True
            report.snapshot_lsn = snapshot_lsn
            report.last_lsn = snapshot_lsn

    if os.path.exists(path):
        scan = _LogReader(path)
        for lsn, kind, data in scan:
            if lsn <= report.snapshot_lsn:
                report.records_stale += 1
            else:
                _apply_record(database, lsn, kind, data, report)
                report.records_applied += 1
                report.last_lsn = lsn
            del data  # one record at a time: drop it before reading the next
        report.corrupt_offsets = tuple(scan.corrupt_offsets)
        report.torn_tail_offset = scan.torn_tail_offset
        report.torn_tail_bytes = scan.torn_tail_bytes
    return RecoveryResult(database=database, report=report)


def _apply_record(
    database: HybridDatabase, lsn: int, kind: str, data: Any,
    report: RecoveryReport,
) -> None:
    if kind == CREATE_TABLE:
        schema, store = data
        database.create_table(schema, store)
    elif kind == DROP_TABLE:
        database.drop_table(data)
    elif kind == MOVE_TABLE:
        name, store = data
        database.move_table(name, store)
    elif kind == APPLY_PARTITIONING:
        name, partitioning = data
        database.apply_partitioning(name, partitioning)
    elif kind == REMOVE_PARTITIONING:
        name, store = data
        database.remove_partitioning(name, store)
    elif kind == LOAD_ROWS:
        if len(data) == 2:  # logged as row dicts, before loads were columns
            database.load_rows(*data)
        else:
            database.load_columns(*data)
    elif kind == DML:
        try:
            database.execute(data)
        except Exception as error:  # a failed statement an old log kept
            report.replay_errors.append((lsn, str(error)))
    else:
        raise WalError(f"unknown WAL record type {kind!r}")
