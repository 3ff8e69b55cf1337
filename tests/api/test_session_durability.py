"""Session surface of the durability subsystem, and close/failure hygiene.

* ``connect(wal_path=...)`` attaches a WAL so every statement is durable;
  ``repro.api.recover(path)`` rebuilds the database and re-opens the log.
* :meth:`Session.close` is idempotent and exception-safe: double close is a
  no-op, ``with`` closes on exceptions, listeners are dropped, and the WAL
  is flushed and closed (so ``off``-mode buffers become durable at close).
* A statement that fails mid-execution leaves no stale session state: no
  listener fires for it, the plan cache is not poisoned, and the session
  keeps executing — the regression net for the failing-UPDATE-mid-``sql()``
  class of bugs.
"""

import pytest

from repro.api import connect, recover
from repro.config import DurabilityConfig
from repro.engine import DataType, Store, TableSchema
from repro.errors import ExecutionError, WalError

SCHEMA = TableSchema.build(
    "t",
    [("id", DataType.INTEGER), ("v", DataType.VARCHAR)],
    primary_key=["id"],
)


def populated_session(wal_path=None, durability=None):
    session = connect(wal_path=wal_path, durability=durability)
    session.create_table(SCHEMA, Store.COLUMN)
    session.load_rows("t", [{"id": i, "v": f"v{i}"} for i in range(6)])
    return session


class TestClose:
    def test_close_is_idempotent(self):
        session = populated_session()
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # second close: no-op, no error
        assert session.closed

    def test_close_drops_listeners(self):
        session = populated_session()
        session.add_plan_listener(lambda *args: None)
        session.close()
        assert session._plan_listeners == []

    def test_context_manager_closes_on_exception(self, tmp_path):
        path = str(tmp_path / "db.wal")
        with pytest.raises(RuntimeError, match="boom"):
            with populated_session(wal_path=path) as session:
                raise RuntimeError("boom")
        assert session.closed
        assert session.database.wal.closed

    def test_close_flushes_an_off_mode_wal(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(
            wal_path=path, durability=DurabilityConfig(wal_sync_mode="off")
        )
        session.sql("INSERT INTO t (id, v) VALUES (100, 'late')")
        lost, _ = recover(str(tmp_path / "probe.wal"))  # unrelated fresh log
        lost.close()
        session.close()  # flush happens here
        recovered, report = recover(path)
        assert report.records_applied == 3
        ids = {row["id"] for row in recovered.sql("SELECT id FROM t").rows}
        assert 100 in ids
        recovered.close()

    def test_database_stays_usable_after_close(self):
        session = populated_session()
        session.close()
        assert session.database.table_names() == ["t"]

    def test_dml_after_close_is_refused_before_it_mutates(self, tmp_path):
        """Memory never runs ahead of a closed log; reads keep working."""
        session = populated_session(wal_path=str(tmp_path / "db.wal"))
        session.close()
        for statement in ("INSERT INTO t (id, v) VALUES (100, 'late')",
                          "UPDATE t SET v = 'x' WHERE id = 1",
                          "DELETE FROM t WHERE id = 2"):
            with pytest.raises(WalError, match="write-ahead log is closed"):
                session.sql(statement)
        rows = session.sql("SELECT id, v FROM t").rows
        assert sorted(row["id"] for row in rows) == list(range(6))
        assert {row["v"] for row in rows} == {f"v{i}" for i in range(6)}


class TestFailedStatementHygiene:
    def test_failing_update_leaves_no_stale_state(self):
        session = populated_session()
        notified = []
        session.add_plan_listener(lambda query, plan, result: notified.append(query))

        failing = "UPDATE t SET id = 1 WHERE id = 5"
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            session.sql(failing)
        # No listener fired for the failed statement, none was leaked.
        assert notified == []
        assert len(session._plan_listeners) == 1

        # The session keeps working, and the cached plan for the failing
        # statement re-executes (and re-fails) rather than serving junk.
        assert session.sql("SELECT v FROM t WHERE id = 5").rows == [{"v": "v5"}]
        with pytest.raises(ExecutionError, match="duplicate primary key"):
            session.sql(failing)
        session.sql("UPDATE t SET id = 50 WHERE id = 5")
        assert session.sql("SELECT v FROM t WHERE id = 50").rows == [{"v": "v5"}]
        # Exactly the successful statements notified the listener.
        assert len(notified) == 3

    def test_failing_dml_is_not_logged(self, tmp_path):
        # A statement that raises has changed nothing, so the log does not
        # hold it and recovery replays the statements that succeeded.
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        lsn = session.database.wal.last_lsn
        with pytest.raises(ExecutionError, match="duplicate primary key 1 "):
            session.sql("UPDATE t SET id = 1 WHERE id = 5")
        assert session.database.wal.last_lsn == lsn
        session.sql("UPDATE t SET v = 'five' WHERE id = 5")
        session.close()
        recovered, report = recover(path)
        assert report.replay_errors == []
        assert report.last_lsn == lsn + 1
        assert recovered.sql("SELECT v FROM t WHERE id = 5").rows == [{"v": "five"}]
        assert recovered.sql("SELECT v FROM t WHERE id = 1").rows == [{"v": "v1"}]
        recovered.close()


class TestDurabilitySurface:
    def test_connect_recover_roundtrip(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        session.close()
        recovered, report = recover(path)
        assert report.clean
        assert report.records_applied == 3
        rows = recovered.sql("SELECT * FROM t WHERE id = 10").rows
        assert rows == [{"id": 10, "v": "ten"}]
        # The recovered session is durable again: its statements land in
        # the same log and survive another recovery.
        recovered.sql("INSERT INTO t (id, v) VALUES (11, 'eleven')")
        recovered.close()
        again, _ = recover(path)
        assert again.sql("SELECT v FROM t WHERE id = 11").rows == [{"v": "eleven"}]
        again.close()

    def test_session_checkpoint(self, tmp_path):
        path = str(tmp_path / "db.wal")
        session = populated_session(wal_path=path)
        lsn = session.checkpoint()
        assert lsn == 2
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        session.close()
        recovered, report = recover(path)
        assert report.snapshot_restored
        assert report.snapshot_lsn == 2
        assert report.records_applied == 1
        assert len(recovered.sql("SELECT * FROM t").rows) == 7
        recovered.close()

    def test_session_snapshot_and_merge(self):
        session = populated_session()
        snapshot = session.snapshot("t")
        before = snapshot.rows()
        session.sql("INSERT INTO t (id, v) VALUES (10, 'ten')")
        assert session.merge_deltas("t") == 1
        session.sql("DELETE FROM t WHERE id >= 0")
        assert snapshot.rows() == before
        assert session.sql("SELECT * FROM t").rows == []
