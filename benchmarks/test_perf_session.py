"""Perf smoke for the session layer's one statement path.

Every ad-hoc statement runs as a prepared statement: its literals are lifted
before the grammar runs, the plan cache is keyed by statement *shape*, and
the values are bound per execution.  Two gates hold that in place — a
wall-clock one (ad-hoc text with a distinct literal per call stays within
:data:`ADHOC_BAR` of ``PreparedStatement.execute`` on the same lookup) and a
deterministic one (Python calls per recurring statement, so a re-derived
decision or a per-statement rebind cannot creep back unseen under wall-clock
noise).  Run with ``pytest -m perf benchmarks/test_perf_session.py``.
"""

from __future__ import annotations

import cProfile
import pstats
import random
import time

import pytest

from repro.api import connect
from repro.engine.schema import TableSchema
from repro.engine.types import DataType, Store

#: Ad-hoc text may cost at most this much of the prepared execution: what it
#: adds is one pass of the literal splitter and two dictionary lookups.
ADHOC_BAR = 1.5

#: Python calls (``cProfile`` ``total_calls``) one execution of a recurring
#: literal-bearing text may make after warm-up.  131 when recorded (184 at the
#: parent of the one-path change); re-deriving one decision costs ~40 more, so
#: does re-binding the statement.
RECURRING_CALLS_PIN = 140

NUM_ROWS = 5_000
REPEATS = 500
ROUNDS = 5

#: The canonical OLTP point lookup.  Execution is an index probe (~25 us), so
#: whatever the statement path adds around it is clearly visible.
SQL = "SELECT id, revenue, region FROM sales WHERE id = ?"
ADHOC_SQL = "SELECT id, revenue, region FROM sales WHERE id = {key}"


def build_session():
    schema = TableSchema.build(
        "sales",
        [
            ("id", DataType.INTEGER),
            ("region", DataType.VARCHAR),
            ("revenue", DataType.DOUBLE),
            ("quantity", DataType.INTEGER),
        ],
        primary_key=["id"],
    )
    rng = random.Random(11)
    session = connect()
    session.create_table(schema, Store.ROW)
    session.load_rows(
        "sales",
        [
            {
                "id": i,
                "region": f"region_{rng.randrange(16)}",
                "revenue": round(rng.uniform(0, 100), 2),
                "quantity": rng.randrange(1, 9),
            }
            for i in range(NUM_ROWS)
        ],
    )
    return session


def measure_adhoc_s(session, offset: int) -> float:
    """Ad-hoc text, a literal per call that no earlier call of the run used."""
    texts = [ADHOC_SQL.format(key=offset + i) for i in range(REPEATS)]
    start = time.perf_counter()
    for text in texts:
        session.sql(text)
    return time.perf_counter() - start


def measure_prepared_s(statement, offset: int) -> float:
    start = time.perf_counter()
    for i in range(REPEATS):
        statement.execute([offset + i])
    return time.perf_counter() - start


def measure(session):
    """Best-of-:data:`ROUNDS` seconds of both paths, rounds interleaved."""
    statement = session.prepare(SQL)
    statement.execute([0])  # warm the plan cache
    session.sql(ADHOC_SQL.format(key=0))
    adhoc_s = prepared_s = float("inf")
    for round_index in range(ROUNDS):
        offset = round_index * REPEATS
        prepared_s = min(prepared_s, measure_prepared_s(statement, offset))
        adhoc_s = min(adhoc_s, measure_adhoc_s(session, offset))
    return adhoc_s, prepared_s


@pytest.mark.perf
def test_adhoc_text_runs_as_a_prepared_statement():
    session = build_session()
    adhoc_s, prepared_s = measure(session)
    stats = session.stats()
    # One shape each: two grammar runs, two plans, however many literals.
    assert stats.statements_parsed == 2
    assert stats.plan_cache_misses == 2
    ratio = adhoc_s / prepared_s
    assert ratio <= ADHOC_BAR, (
        f"ad-hoc text with a distinct literal per call costs {ratio:.2f}x "
        f"the prepared execution ({adhoc_s * 1e6 / REPEATS:.1f} us vs "
        f"{prepared_s * 1e6 / REPEATS:.1f} us per statement); bar is "
        f"{ADHOC_BAR}x"
    )


@pytest.mark.perf
def test_recurring_text_python_calls_stay_pinned():
    """Deterministic: a recurring literal-bearing text re-derives nothing."""
    session = build_session()
    text = ADHOC_SQL.format(key=42)
    for _ in range(5):
        session.sql(text)
    repeats = 100
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(repeats):
        session.sql(text)
    profile.disable()
    calls = pstats.Stats(profile).total_calls / repeats
    assert calls <= RECURRING_CALLS_PIN, (
        f"a recurring text now takes {calls:.0f} Python calls per execution "
        f"(pinned at {RECURRING_CALLS_PIN}): something is re-bound, "
        f"re-planned or re-derived per statement again"
    )


@pytest.mark.perf
def test_plan_cache_results_stay_correct():
    """The speedup must not come from skipping work: results identical."""
    session = build_session()
    cold = session.sql(SQL, [42])
    statement = session.prepare(SQL)
    for _ in range(3):
        assert statement.execute([42]).rows == cold.rows
    assert session.sql(ADHOC_SQL.format(key=42)).rows == cold.rows


if __name__ == "__main__":
    adhoc_s, prepared_s = measure(build_session())
    print(f"ad-hoc text, distinct literals : {adhoc_s * 1e6 / REPEATS:.1f} us/statement")
    print(f"prepared statement             : {prepared_s * 1e6 / REPEATS:.1f} us/statement")
    print(f"ratio                          : {adhoc_s / prepared_s:.2f}x")
