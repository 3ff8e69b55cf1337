"""Perf smoke for the session layer's one statement path.

Every ad-hoc statement runs as a prepared statement: its literals are lifted
before the grammar runs, the plan cache is keyed by statement *shape*, and
the values are bound per execution.  Two gates hold that in place — a
wall-clock one (ad-hoc text with a distinct literal per call stays within
:data:`ADHOC_BAR` of ``PreparedStatement.execute`` on the same lookup) and a
deterministic one (Python calls per recurring statement, so a re-derived
decision or a per-statement rebind cannot creep back unseen under wall-clock
noise).  A third gate pins the Python calls of statements with a fresh
literal each, per statement type, and a fourth those of a bulk load: none
may grow with the number of rows loaded.  Run with
``pytest -m perf benchmarks/test_perf_session.py``.
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
#: literal-bearing text may make after warm-up.  76 when recorded (125 before
#: the session kept its installed context and the row-store path its
#: structural shard verdict; 184 before the one-path change); re-deriving one
#: decision costs ~25 more, re-binding the statement ~10.
RECURRING_CALLS_PIN = 85

#: Python calls one execution of a statement with a literal no earlier call
#: used may make after warm-up, per statement type.  Recorded: 125 / 144 /
#: 130; 243 / 222 / 224 before the statement path split by what decides each
#: answer (context per session, resolution per template and layout,
#: structural decisions per access path, only the values per execution).
DISTINCT_CALLS_PINS = {"select": 180, "update": 175, "insert": 175}

#: One statement of each type, a fresh literal per call (``key`` is unused
#: by every earlier call; ``new`` is a primary key the table does not hold).
DISTINCT_SQL = {
    "select": "SELECT id, revenue, region FROM sales WHERE id = {key}",
    "update": "UPDATE sales SET revenue = {key}.5 WHERE id = {key}",
    "insert": ("INSERT INTO sales (id, region, revenue, quantity) "
               "VALUES ({new}, 'region_{region}', {key}.25, 3)"),
}

#: Python calls a column-store ``load_rows`` of 2N rows may make beyond the
#: load of N rows: validation, each dictionary build and the statistics run
#: as C-level passes, so the two counts differ by at most this constant.
#: The per-row loader made 6 calls per row per load (one ``<genexpr>``
#: frame and five ``dict.get``).
LOAD_CALLS_SLACK = 16
LOAD_ROWS_N = 20_000

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


def distinct_texts(kind: str, keys: range):
    return [
        DISTINCT_SQL[kind].format(key=key, new=NUM_ROWS + key, region=key % 16)
        for key in keys
    ]


@pytest.mark.perf
def test_distinct_literal_python_calls_stay_pinned():
    """Deterministic: a statement with literals no earlier call used pays
    for its values — not for re-entering the session's context, re-resolving
    its template or re-deciding what its access path already decided."""
    session = build_session()
    for kind in DISTINCT_SQL:  # warm-up: plans, resolutions, zones
        for text in distinct_texts(kind, range(20)):
            session.sql(text)
    repeats = 100
    calls = {}
    for kind in DISTINCT_SQL:
        texts = distinct_texts(kind, range(100, 100 + repeats))
        profile = cProfile.Profile()
        profile.enable()
        for text in texts:
            session.sql(text)
        profile.disable()
        calls[kind] = pstats.Stats(profile).total_calls / repeats
    assert session.stats().plan_cache_misses == len(DISTINCT_SQL)
    over = {kind: round(calls[kind]) for kind in calls
            if calls[kind] > DISTINCT_CALLS_PINS[kind]}
    assert not over, (
        f"distinct-literal statements take {over} Python calls per execution "
        f"(pinned at {DISTINCT_CALLS_PINS}): something that the session, the "
        f"template or the access path had decided is decided per statement again"
    )


def load_calls(num_rows: int) -> int:
    """Python calls of one column-store ``load_rows`` of native-typed rows."""
    schema = TableSchema.build(
        "facts",
        [("id", DataType.INTEGER), ("region", DataType.VARCHAR),
         ("day", DataType.INTEGER), ("revenue", DataType.DOUBLE),
         ("qty", DataType.INTEGER)],
        primary_key=["id"],
    )
    rng = random.Random(5)
    rows = [
        {"id": i, "region": f"region_{rng.randrange(16):02d}",
         "day": rng.randrange(3_650), "revenue": rng.randrange(64, 100_000) / 64,
         "qty": rng.randrange(1, 100)}
        for i in range(num_rows)
    ]
    session = connect()
    session.create_table(schema, Store.COLUMN)
    profile = cProfile.Profile()
    profile.enable()
    session.load_rows("facts", rows)
    profile.disable()
    return pstats.Stats(profile).total_calls


@pytest.mark.perf
def test_load_rows_python_calls_do_not_grow_with_the_rows():
    """Deterministic: no Python frame runs per loaded row."""
    small, large = load_calls(LOAD_ROWS_N), load_calls(2 * LOAD_ROWS_N)
    assert large - small <= LOAD_CALLS_SLACK, (
        f"loading {2 * LOAD_ROWS_N} rows takes {large} Python calls, "
        f"{large - small} more than loading {LOAD_ROWS_N} ({small}): some "
        f"step of the load runs per row again"
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
