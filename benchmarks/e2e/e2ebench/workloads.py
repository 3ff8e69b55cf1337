"""The four workloads: their data, their statement streams, their oracles.

Everything here is the *generator's* side of the benchmark.  The program
under test only ever receives the generated rows and statements; the expected
results come from the generator's own model of the data (plain Python for
the point workload, numpy for the reports) so a wrong answer is caught
without asking the program what the right one is.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import time
from typing import Any, Callable, Dict, List, NamedTuple, Sequence

import numpy as np

from repro.api import recover
from repro.engine.schema import TableSchema
from repro.engine.types import DataType, Store
from repro.engine.wal import WriteAheadLog
from repro.query.ast import AggregationQuery, SelectQuery
from repro.workloads.tpch import TpchGenerator, build_tpch_workload
from repro.workloads.tpch.queries import (
    TpchOlapQueryGenerator,
    TpchOltpQueryGenerator,
)
from repro.workloads.tpch.schema import TPCH_TABLE_ORDER, tpch_schemas

from .spec import FULL, HTAP_TPCH, OLAP_SERIAL, OLAP_SHARD, OLTP_POINT, SMOKE
from .trace import (
    APPLY,
    CALIBRATE,
    CHECKPOINT,
    CREATE_VIEWS,
    MERGE_DELTAS,
    RECOMMEND_PARTITIONED,
    RECOMMEND_TABLE,
    RECOMMEND_VIEWS,
    RECOVER,
    RECOVER_AFTER_CHECKPOINT,
    median,
)

#: Statement classes (the ``client.<class>`` and ``engine.executor.<class>``
#: metric families).
POINT, WRITE, SCAN, SYNOPSIS = "point", "write", "scan", "synopsis"
CLASSES = (POINT, WRITE, SCAN, SYNOPSIS)

#: Every timed phase has at least this many statements at full scale, so the
#: 99th percentile has ten samples beyond it.
MIN_TIMED = 1_000
SMOKE_DIVISOR = 50
MIN_TIMED_SMOKE = 64


class Statement(NamedTuple):
    kind: str
    #: SQL text (issued through ``session.sql``) or a query AST object
    #: (issued through ``session.execute``).
    payload: Any
    #: Canonical result the oracle predicts, or ``None`` when the statement
    #: is checked structurally only (see ``Workload.check``).
    expected: Any = None


# -- canonical results -------------------------------------------------------------


def _canonical_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        return float(f"{value:.9g}")
    return value


def canonical(rows: Sequence[Dict[str, Any]], affected_rows: int) -> list:
    """Order-free, JSON-stable form of a result: floats to 9 significant digits."""
    canon = [
        [[name, _canonical_value(row[name])] for name in sorted(row)]
        for row in rows
    ]
    canon.sort(key=repr)
    return [canon, affected_rows]


def same_result(left: Any, right: Any) -> bool:
    """Canonical results equal, floats compared to a relative 2e-8.

    The tolerance only matters where two *layouts* sum the same column in a
    different order (``htap_tpch`` against its row-store reference, the live
    session against the recovered one); the sales data is built so its sums
    are exact in any order.  It is two steps of the 9-digit rounding
    ``canonical`` applies (one step is up to 1e-8 of the value): two sums an
    ulp apart can fall on either side of a rounding boundary.
    """
    if isinstance(left, float) or isinstance(right, float):
        return (
            isinstance(left, (int, float)) and isinstance(right, (int, float))
            and math.isclose(left, right, rel_tol=2e-8, abs_tol=1e-12)
        )
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            same_result(a, b) for a, b in zip(left, right)
        )
    return left == right


# -- the shared synthetic table ------------------------------------------------------

REGIONS = tuple(f"region_{index:02d}" for index in range(16))
DAYS = 3_650
SALES_SCHEMA = TableSchema.build(
    "sales",
    [
        ("id", DataType.INTEGER),
        ("region", DataType.VARCHAR),
        ("day", DataType.INTEGER),
        ("revenue", DataType.DOUBLE),
        ("qty", DataType.INTEGER),
    ],
    primary_key=["id"],
)


def _revenue(rng: np.random.Generator, count: int) -> np.ndarray:
    # Multiples of 1/64 up to ~1562: about 100k distinct values, and every
    # SUM over them is exact in binary floating point whatever the order of
    # addition, so the sharded path, the serial path and the numpy oracle
    # agree to the last bit.
    return rng.integers(64, 100_000, count) / 64.0


def sales_columns(num_rows: int, rng: np.random.Generator) -> Dict[str, np.ndarray]:
    return {
        "region": rng.integers(0, len(REGIONS), num_rows),
        "day": rng.integers(0, DAYS, num_rows),
        "revenue": _revenue(rng, num_rows),
        "qty": rng.integers(1, 100, num_rows),
    }


def sales_rows(columns: Dict[str, np.ndarray]) -> List[Dict[str, Any]]:
    regions = [REGIONS[index] for index in columns["region"].tolist()]
    return [
        {"id": key, "region": region, "day": day, "revenue": revenue, "qty": qty}
        for key, (region, day, revenue, qty) in enumerate(zip(
            regions, columns["day"].tolist(), columns["revenue"].tolist(),
            columns["qty"].tolist(),
        ))
    ]


class Workload:
    """One workload: data, warm-up and timed streams, and how to check them.

    ``load`` feeds the program through ``loader(table, schema, store, rows)``
    and must be called before ``build_stream`` (the streams depend on the
    generated data); ``prepare`` and ``finish`` are the lifecycle steps
    around the timed phase, empty except on ``htap_tpch``.
    """

    name: str
    #: Whether the traced pass replays the timed stream once more under the
    #: public ``shard_execution_disabled()`` as the serial reference.
    serial_reference = False
    #: Nominal statements per second on the 2-core reference box; with
    #: ``--seconds`` it fixes the (deterministic) length of the timed phase.
    rate: int
    #: Statements executed but not timed: caches fill, the worker pool
    #: starts, segments publish, views materialise.
    warmup_by_scale: Dict[str, int]

    def __init__(self, seed: int, scale: str, seconds: float) -> None:
        self.seed = seed
        self.scale = scale
        if scale == FULL:
            self.timed_count = max(MIN_TIMED, round(self.rate * seconds))
        else:
            self.timed_count = max(
                MIN_TIMED_SMOKE, round(self.rate * seconds / SMOKE_DIVISOR)
            )
        self.warmup_count = self.warmup_by_scale[scale]
        self.warmup: List[Statement] = []
        self.timed: List[Statement] = []

    def connect_kwargs(self, work_dir: str) -> Dict[str, Any]:
        return {}

    def generate(self) -> None:
        raise NotImplementedError

    def load(self, loader: Callable[[str, TableSchema, Store, list], None]) -> None:
        raise NotImplementedError

    def build_stream(self) -> None:
        raise NotImplementedError

    def drop_data(self) -> None:
        """Release the generated rows once the program has them."""

    def prepare(self, session, spans) -> None:
        """Lifecycle steps between load and warm-up, one span each."""

    def finish(self, session, spans, recorder, work_dir: str,
               traced: bool) -> Dict[str, Any]:
        """Lifecycle steps after the timed phase; returns extra per-layer metrics."""
        return {}

    def check(self, statement: Statement, result, canon: list) -> bool:
        return same_result(canon, statement.expected)


class SalesWorkload(Workload):
    """A workload over the one ``sales`` table, in ``store``."""

    store: Store
    rows_by_scale: Dict[str, int]

    def generate(self) -> None:
        self.num_rows = self.rows_by_scale[self.scale]
        self._columns = sales_columns(
            self.num_rows, np.random.default_rng([self.seed, 0])
        )
        self._rows = sales_rows(self._columns)

    def load(self, loader) -> None:
        loader("sales", SALES_SCHEMA, self.store, self._rows)

    def drop_data(self) -> None:
        self._rows = None


# -- oltp_point ------------------------------------------------------------------------


class OltpPoint(SalesWorkload):
    """Row store, ad-hoc SQL text, every statement with its own literals.

    Why: the statement set is far larger than the 1 024-entry parse cache and
    the 512-entry plan cache (the plan fingerprint includes literals), so
    ``query.parser``, ``api.binder`` and ``api.plan`` do most of the work and
    ``engine.executor`` only probes the primary-key index.  It is the paper's
    "row store handles transactional point queries, inserts and updates"
    side, and the place a parse/bind/plan or per-statement-overhead change
    must show.
    """

    name = OLTP_POINT
    rate = 4_500
    warmup_by_scale = {FULL: 2_000, SMOKE: 200}
    store = Store.ROW
    rows_by_scale = {FULL: 200_000, SMOKE: 4_000}

    def build_stream(self) -> None:
        """70 % pk SELECT, 20 % single-row UPDATE, 10 % single-row INSERT.

        The expected result of every statement comes from a plain-list model
        of the table that the generator updates as it emits writes.
        """
        rng = random.Random(self.seed * 7919 + 1)
        columns = self._columns
        region = [REGIONS[index] for index in columns["region"].tolist()]
        day = columns["day"].tolist()
        revenue = columns["revenue"].tolist()
        qty = columns["qty"].tolist()
        written = [[], 1]
        statements: List[Statement] = []
        for _ in range(self.warmup_count + self.timed_count):
            dice = rng.random()
            if dice < 0.70:
                key = rng.randrange(len(day))
                row = {"id": key, "region": region[key], "day": day[key],
                       "revenue": revenue[key], "qty": qty[key]}
                statements.append(Statement(
                    POINT, f"SELECT * FROM sales WHERE id = {key}",
                    canonical([row], 0),
                ))
            elif dice < 0.90:
                key = rng.randrange(len(day))
                value = rng.randrange(64, 100_000) / 64.0
                revenue[key] = value
                statements.append(Statement(
                    WRITE,
                    f"UPDATE sales SET revenue = {value!r} WHERE id = {key}",
                    written,
                ))
            else:
                key = len(day)
                region.append(rng.choice(REGIONS))
                day.append(rng.randrange(DAYS))
                revenue.append(rng.randrange(64, 100_000) / 64.0)
                qty.append(rng.randrange(1, 100))
                statements.append(Statement(
                    WRITE,
                    "INSERT INTO sales (id, region, day, revenue, qty) VALUES "
                    f"({key}, '{region[key]}', {day[key]}, {revenue[key]!r}, "
                    f"{qty[key]})",
                    written,
                ))
        self.warmup = statements[: self.warmup_count]
        self.timed = statements[self.warmup_count:]
        self._columns = None


# -- olap_serial_100k / olap_shard_1m -----------------------------------------------------

_GROUPED_AGGREGATES = (
    ("SUM(revenue)",), ("AVG(revenue)",), ("SUM(qty)",), ("AVG(qty)",),
    ("COUNT(*)",), ("SUM(revenue)", "COUNT(*)"), ("AVG(qty)", "COUNT(*)"),
    ("SUM(qty)", "SUM(revenue)"),
)
_SYNOPSIS_AGGREGATES = (
    ("COUNT(*)",),
    ("MIN(id)",), ("MAX(id)",), ("MIN(day)",), ("MAX(day)",),
    ("MIN(revenue)",), ("MAX(revenue)",), ("MIN(qty)",), ("MAX(qty)",),
    ("MIN(day)", "MAX(day)"), ("MIN(revenue)", "MAX(revenue)"),
    ("MIN(qty)", "MAX(qty)"),
)
_NUMPY_AGGREGATE = {"SUM": np.sum, "MIN": np.min, "MAX": np.max}


def _aggregate_row(aggregates: Sequence[str], columns: Dict[str, np.ndarray],
                   picked: np.ndarray) -> Dict[str, Any]:
    """One aggregate output row over the rows at index array *picked*, by numpy."""
    row: Dict[str, Any] = {}
    for aggregate in aggregates:
        function, column = aggregate[:-1].split("(")
        if column == "*":
            row["count_star"] = len(picked)
            continue
        values = columns[column][picked]
        if function == "AVG":
            value = values.sum().item() / len(values)
        else:
            value = _NUMPY_AGGREGATE[function](values).item()
        row[f"{function.lower()}_{column}"] = value
    return row


def _by_region(columns: Dict[str, np.ndarray], picked: np.ndarray):
    """``(region name, index array)`` for every region present among *picked*."""
    codes = columns["region"][picked]
    order = np.argsort(codes, kind="stable")
    edges = np.searchsorted(codes[order], np.arange(len(REGIONS) + 1))
    return [(REGIONS[code], picked[order[low:high]])
            for code, (low, high) in enumerate(zip(edges[:-1], edges[1:]))
            if high > low]


class OlapReports(SalesWorkload):
    """64 recurring report texts over the column store.

    The mix per cycle of 64: 36 grouped aggregates (8 over the whole table,
    28 over a 31-day window), 16 selective ``SELECT id, revenue ... WHERE
    day = d`` and 12 ungrouped ``COUNT``/``MIN``/``MAX`` answered from the
    partition synopsis.  56/25/19 rather than an even 50/30/20 so that the
    median statement falls inside the windowed-aggregate cluster: at exactly
    50 % grouped, ``p50_us`` sat on the gap between two classes and jumped
    between them from run to run.
    """

    store = Store.COLUMN
    num_texts = 64

    def build_stream(self) -> None:
        rng = random.Random(self.seed * 7919 + 2)
        columns = dict(self._columns)
        everything = columns["id"] = np.arange(self.num_rows)
        whole_table = _by_region(columns, everything)
        reports: List[Statement] = []
        for index in range(36):
            aggregates = _GROUPED_AGGREGATES[index % len(_GROUPED_AGGREGATES)]
            groups, where = whole_table, ""
            if index >= len(_GROUPED_AGGREGATES):
                low = rng.randrange(DAYS - 30)
                groups = _by_region(columns, np.flatnonzero(
                    (columns["day"] >= low) & (columns["day"] <= low + 30)
                ))
                where = f" WHERE day BETWEEN {low} AND {low + 30}"
            rows = [{"region": region,
                     **_aggregate_row(aggregates, columns, picked)}
                    for region, picked in groups]
            reports.append(Statement(
                SCAN,
                f"SELECT {', '.join(aggregates)} FROM sales{where} GROUP BY region",
                canonical(rows, 0),
            ))
        for day in rng.sample(range(DAYS), 16):
            hits = np.flatnonzero(columns["day"] == day)
            rows = [{"id": key, "revenue": revenue} for key, revenue in
                    zip(hits.tolist(), columns["revenue"][hits].tolist())]
            reports.append(Statement(
                SCAN, f"SELECT id, revenue FROM sales WHERE day = {day}",
                canonical(rows, 0),
            ))
        for aggregates in _SYNOPSIS_AGGREGATES:
            reports.append(Statement(
                SYNOPSIS, f"SELECT {', '.join(aggregates)} FROM sales",
                canonical([_aggregate_row(aggregates, columns, everything)], 0),
            ))
        assert len(reports) == self.num_texts
        # Interleave the classes the same way in every cycle.
        rng.shuffle(reports)
        total = self.warmup_count + self.timed_count
        statements = [reports[index % self.num_texts] for index in range(total)]
        self.warmup = statements[: self.warmup_count]
        self.timed = statements[self.warmup_count:]
        self._columns = None


class OlapSerial(OlapReports):
    """100 k rows: below the 200 k-row shard floor, so the serial operators run.

    Why: ``engine.executor`` / ``engine.column_store`` / ``agg_pushdown`` do
    almost all the work and the api layers almost none (64 texts fit both
    caches: hit share about 1) — the mirror image of ``oltp_point`` — and it
    is the paper's "columnar management for analysing large quantities of
    data" side.
    """

    name = OLAP_SERIAL
    rate = 2_600
    warmup_by_scale = {FULL: 128, SMOKE: 64}
    rows_by_scale = {FULL: 100_000, SMOKE: 5_000}


class OlapShard(OlapReports):
    """The same texts on 1 M delta-free rows: the default path is scatter/gather.

    Why: same layer (``engine.executor``), used differently
    (``engine.shard`` dispatch and gather at fan-out 4 instead of in-process
    kernels).  A change to the serial kernels shows on ``olap_serial_100k``
    and not here; a change to dispatch shows here and not there; whatever
    ROADMAP item 1 decides for the shard path moves ``ops_per_s`` on this
    workload and nothing on the other three.  The smoke scale keeps 200 k
    rows so the shard path still engages.
    """

    name = OLAP_SHARD
    rate = 60
    warmup_by_scale = {FULL: 32, SMOKE: 16}
    rows_by_scale = {FULL: 1_000_000, SMOKE: 200_000}
    serial_reference = True


# -- htap_tpch ----------------------------------------------------------------------------

OLAP_FRACTION = 0.03
PROBE_COUNT = 50


class HtapTpch(Workload):
    """The paper's fig10 scenario as a full lifecycle, writes beside reads.

    TPC-H loaded into the row store through ``connect(wal_path=...)`` with
    the default ``DurabilityConfig`` (sync mode ``commit``: flush + fsync per
    statement); calibrate, recommend, apply the partitioned layout and create
    the recommended views; then the mixed stream of
    ``build_tpch_workload(olap_fraction=0.03)`` as AST objects (3 % rather
    than fig10's 1 % so that ``p99_us`` sits inside the aggregate mode and
    not on the boundary between modes); then recover from a copy of the live
    log, checkpoint, and scrub.

    Why: the only workload where every layer is on the path at once —
    advisor, cost model, partitioned access paths, delta writes and merges,
    materialised-view refresh, WAL — so a read-path gain bought with
    write-path cost (or the reverse), a heavier checksum or a slower
    ``apply`` shows here even when the three isolating workloads look fine.
    """

    name = HTAP_TPCH
    rate = 1_150
    warmup_by_scale = {FULL: 300, SMOKE: 60}
    scale_factor_by_scale = {FULL: 0.01, SMOKE: 0.002}

    def connect_kwargs(self, work_dir: str) -> Dict[str, Any]:
        return {"wal_path": f"{work_dir}/htap.wal"}

    def generate(self) -> None:
        self.scale_factor = self.scale_factor_by_scale[self.scale]
        self._data = TpchGenerator(
            scale_factor=self.scale_factor, seed=self.seed
        ).generate_all()

    def load(self, loader) -> None:
        schemas = tpch_schemas()
        for table in TPCH_TABLE_ORDER:
            loader(table, schemas[table], Store.ROW, self._data.tables[table])

    def drop_data(self) -> None:
        self._data = None

    def build_stream(self) -> None:
        data = self._data
        self.workload = build_tpch_workload(
            data, num_queries=self.warmup_count + self.timed_count,
            olap_fraction=OLAP_FRACTION, seed=self.seed,
        )
        statements = [Statement(_tpch_kind(query), query)
                      for query in self.workload]
        self.warmup = statements[: self.warmup_count]
        self.timed = statements[self.warmup_count:]
        # The durability probe set: point reads and aggregates the live and
        # the recovered session must answer alike.
        points = TpchOltpQueryGenerator(data, seed=self.seed + 11)
        reports = TpchOlapQueryGenerator(data, seed=self.seed + 12)
        self.probes = [points.point_select() for _ in range(PROBE_COUNT - 15)]
        self.probes += reports.generate(15)

    def attach_expected(self, expected: Dict[str, list]) -> None:
        """Expected results from the row-store reference pass, by stream index."""
        statements = self.warmup + self.timed
        for index, canon in expected.items():
            position = int(index)
            statements[position] = statements[position]._replace(expected=canon)
        self.warmup = statements[: self.warmup_count]
        self.timed = statements[self.warmup_count:]

    def prepare(self, session, spans) -> None:
        """Time to recommendation (``advise_s``), then ``apply_s``."""
        with spans.lifecycle(CALIBRATE):
            session.advisor().initialize_cost_model()
        with spans.lifecycle(RECOMMEND_TABLE):
            session.recommend(self.workload, include_partitioning=False)
        with spans.lifecycle(RECOMMEND_PARTITIONED):
            recommendation = session.recommend(
                self.workload, include_partitioning=True
            )
        with spans.lifecycle(APPLY):
            session.apply(recommendation)
        with spans.lifecycle(RECOMMEND_VIEWS):
            views = session.recommend_views(self.workload)
        with spans.lifecycle(CREATE_VIEWS, views=len(views)):
            for view in views:
                session.create_view(view.view, view.query)
        self._log_bytes_prepared = os.path.getsize(session.database.wal.path)

    def finish(self, session, spans, recorder, work_dir: str,
               traced: bool) -> Dict[str, Any]:
        """Recover from a copy of the live log, checkpoint; extras when traced.

        The log is copied while the session is still open, so the copy holds
        exactly the bytes the ``commit`` policy already flushed: the
        process-kill model.
        """
        wal = session.database.wal
        log_bytes = os.path.getsize(wal.path)
        copy = os.path.join(work_dir, "killed.wal")
        shutil.copyfile(wal.path, copy)
        with spans.lifecycle(RECOVER):
            recovered, report = recover(copy)
        try:
            recorder.check(report.clean, f"recovery not clean: {report}")
            live = [session.execute(query) for query in self.probes]
            again = [recovered.execute(query) for query in self.probes]
            mismatches = sum(
                not same_result(canonical(a.rows, a.affected_rows),
                                canonical(b.rows, b.affected_rows))
                for a, b in zip(live, again)
            )
            recorder.check(mismatches == 0,
                           f"{mismatches} of {len(self.probes)} probes differ "
                           "between the live and the recovered session")
        finally:
            recovered.close()
        with spans.lifecycle(CHECKPOINT):
            session.checkpoint()
        if not traced:
            return {}

        writes = [statement.payload for statement in self.warmup + self.timed
                  if statement.kind == WRITE]
        layers = {
            "engine.wal.bytes_per_stmt":
                (log_bytes - self._log_bytes_prepared) / len(writes),
            "engine.wal.checkpoint_mb_per_s":
                os.path.getsize(wal.snapshot_path) / 1e6
                / spans.seconds(CHECKPOINT),
            "engine.wal.recover_records_per_s":
                report.records_applied / spans.seconds(RECOVER),
        }
        for suffix in ("", ".snapshot"):
            shutil.copyfile(wal.path + suffix,
                            os.path.join(work_dir, "checkpointed.wal" + suffix))
        with spans.lifecycle(RECOVER_AFTER_CHECKPOINT):
            recovered, report = recover(os.path.join(work_dir, "checkpointed.wal"))
        recovered.close()
        recorder.check(report.clean and report.snapshot_restored,
                       f"recovery after checkpoint: {report}")
        layers["engine.wal.recover_after_checkpoint_s"] = \
            spans.seconds(RECOVER_AFTER_CHECKPOINT)

        # The stream's DML into a scratch log, same (default) sync mode.
        scratch = WriteAheadLog(os.path.join(work_dir, "scratch.wal"))
        appends = []
        try:
            for query in writes:
                start = time.perf_counter()
                scratch.log_dml(query)
                appends.append(time.perf_counter() - start)
        finally:
            scratch.close()
        layers["engine.wal.append_us_p50"] = median(appends) * 1e6

        with spans.lifecycle(MERGE_DELTAS):
            session.merge_deltas()
        layers["engine.column_store.merge_ms"] = spans.seconds(MERGE_DELTAS) * 1e3
        for metric, span in (
            ("core.cost_model.calibrate_s", CALIBRATE),
            ("core.advisor.recommend_table_s", RECOMMEND_TABLE),
            ("core.advisor.recommend_partitioned_s", RECOMMEND_PARTITIONED),
            ("core.advisor.recommend_views_s", RECOMMEND_VIEWS),
            ("core.advisor.apply_s", APPLY),
        ):
            layers[metric] = spans.seconds(span)
        return layers

    def check(self, statement: Statement, result, canon: list) -> bool:
        query = statement.payload
        if statement.kind == WRITE and result.affected_rows != 1:
            return False
        if statement.kind == POINT:
            predicate = query.predicate
            if len(result.rows) != 1 or \
                    result.rows[0][predicate.column] != predicate.value:
                return False
        if statement.expected is None:
            return True
        return same_result(canon, statement.expected)


def _tpch_kind(query) -> str:
    if isinstance(query, SelectQuery):
        return POINT
    if isinstance(query, AggregationQuery):
        return SCAN
    return WRITE


#: The reference pass checks every non-aggregate statement and every
#: ``REFERENCE_AGGREGATE_STRIDE``-th aggregate (row-store aggregates cost
#: milliseconds; the stride keeps the reference pass to a few seconds).
REFERENCE_AGGREGATE_STRIDE = 4

WORKLOAD_CLASSES = {
    cls.name: cls for cls in (OltpPoint, OlapSerial, OlapShard, HtapTpch)
}


def build(name: str, seed: int, scale: str, seconds: float) -> Workload:
    return WORKLOAD_CLASSES[name](seed, scale, seconds)
