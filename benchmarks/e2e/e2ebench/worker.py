"""One pass over one workload, in this process.

``run.py`` starts a fresh interpreter per pass so that RSS, the shard worker
pool and the program's process-wide counters of one pass cannot leak into
the next.  Four passes exist:

``setup``      generate, load, (advise/apply on ``htap_tpch``,) warm up; an
               extra sample for ``setup_s``.
``reference``  ``htap_tpch`` only: replay the stream on a plain row-store
               session without WAL, advisor or views and write what every
               statement must return.
``untraced``   the end-to-end pass: ``session.sql`` / ``session.execute``
               in the default configuration, wall clock around the call.
``traced``     the same stream stage by stage through the layers' public
               functions, one span per call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import tempfile
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional

from repro.api import bind, connect
from repro.engine.shard import audit_shared_segments, shard_execution_disabled
from repro.query.ast import AggregationQuery

from . import trace
from .spec import REFERENCE, SETUP, TRACED
from .trace import Spans, median, percentile, share
from .workloads import (
    CLASSES,
    REFERENCE_AGGREGATE_STRIDE,
    Statement,
    Workload,
    build,
    canonical,
)


LOAD_ROWS = "engine.load_rows"
DATAGEN = "workloads.datagen"
WARMUP = "client.warmup"
SCRUB = "engine.integrity.scrub"

_MAX_REPORTED_ERRORS = 5
_KIND_ATTRS = {kind: {"kind": kind} for kind in CLASSES}
_PLAN_ATTRS = {True: {"plan_cache": "hit"}, False: {"plan_cache": "miss"}}


class Recorder:
    """Per-statement bookkeeping, done outside the timed window."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.digest = hashlib.blake2b(digest_size=16)
        self.latencies: List[float] = []
        self.by_class: Dict[str, List[float]] = {kind: [] for kind in CLASSES}
        self.sim_ms = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: Canonical results by stream index, kept only by the reference pass.
        self.keep: Optional[Dict[int, list]] = None
        # Counts read from public result fields.
        self.sharded_ops: List[int] = []
        self.first_sharded_s: Optional[float] = None
        self.degraded = 0
        self.aggregates = 0
        self.tiers: Counter = Counter()
        self.partitions = [0, 0]  # scanned, skipped
        self.scanned_rows = [0, 0]  # main, delta
        self.view_serves: Counter = Counter()
        #: Statements answered from a view that needed no refresh first.
        self.fresh_view_ops: set = set()
        self.estimate_error = 0.0
        self.estimated = 0

    def ok(self, index: int, statement: Statement, result, elapsed: float,
           plan=None) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        self.by_class[statement.kind].append(elapsed)
        self.sim_ms += result.runtime_ms
        canon = canonical(result.rows, result.affected_rows)
        self.digest.update(repr((index, canon)).encode())
        if self.keep is not None:
            self.keep[index] = canon
        if not self.workload.check(statement, result, canon):
            self._fail(f"statement {index} ({statement.kind}): wrong result "
                       f"for {statement.payload!r}")
        if result.shard_stats:
            self.sharded_ops.append(index)
            if self.first_sharded_s is None:
                self.first_sharded_s = elapsed
        if result.degradations:
            self.degraded += 1
        if result.agg_strategies or result.view_hits:
            self.aggregates += 1
        for description in result.agg_strategies.values():
            self.tiers[description.split(" (")[0]] += 1
        for scanned, skipped in result.scan_stats.values():
            self.partitions[0] += scanned
            self.partitions[1] += skipped
        for main_rows, delta_rows in result.delta_scans.values():
            self.scanned_rows[0] += main_rows
            self.scanned_rows[1] += delta_rows
        for served in result.view_hits.values():
            self.view_serves[served] += 1
            if served == "served":
                self.fresh_view_ops.add(index)
        if plan is not None and result.runtime_ms > 0:
            self.estimate_error += (
                abs(plan.estimated_ms - result.runtime_ms) / result.runtime_ms
            )
            self.estimated += 1

    def error(self, index: int, statement: Statement, error: Exception,
              elapsed: float) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        self.by_class[statement.kind].append(elapsed)
        self._fail(f"statement {index} ({statement.kind}) raised "
                   f"{type(error).__name__}: {error}")

    def check(self, passed: bool, what: str) -> None:
        """A whole-run check (durability, integrity, reference digest)."""
        if not passed:
            self._fail(what)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_REPORTED_ERRORS:
            self.errors.append(message)


def run_untraced(session, statements: List[Statement], recorder: Recorder,
                 skip=None) -> None:
    """The end-to-end path: wall clock around the public call, nothing else."""
    clock = time.perf_counter
    for index, statement in enumerate(statements):
        if skip is not None and skip(index, statement):
            continue
        payload = statement.payload
        call = session.sql if type(payload) is str else session.execute
        start = clock()
        try:
            result = call(payload)
        except Exception as error:  # boundary: a failed statement is a count
            recorder.error(index, statement, error, clock() - start)
            continue
        recorder.ok(index, statement, result, clock() - start)


def run_traced(session, statements: List[Statement], recorder: Recorder,
               spans: Spans) -> None:
    """The calls ``Session.execute`` makes, one span each.

    ``session.parse`` -> ``repro.api.bind`` -> ``session.plan_for`` ->
    ``database.execute_with_paths``; a statement whose plan carries a view
    rewrite is served whole through ``session.execute`` instead.
    """
    clock = time.perf_counter
    catalog = session.database.catalog
    execute_with_paths = session.database.execute_with_paths
    rows = spans.rows
    misses = session.stats().plan_cache_misses
    for index, statement in enumerate(statements):
        payload = statement.payload
        start = clock()
        try:
            if type(payload) is str:
                template = session.parse(payload)
                parsed = clock()
            else:
                template = payload
                parsed = start
            bound = bind(template, catalog, None)
            bound_at = clock()
            plan = session.plan_for(template)
            planned = clock()
            if plan.view_rewrite is not None:
                stage = trace.VIEW_SERVE
                result = session.execute(template)
            else:
                stage = trace.EXECUTE
                result = execute_with_paths(bound, plan.paths)
        except Exception as error:  # boundary: a failed statement is a count
            recorder.error(index, statement, error, clock() - start)
            continue
        end = clock()
        now_misses = session.stats().plan_cache_misses
        rows.append((index, trace.CLIENT_OP, None, start, end,
                     _KIND_ATTRS[statement.kind]))
        if parsed is not start:
            rows.append((index, trace.PARSE, trace.CLIENT_OP, start, parsed, None))
        rows.append((index, trace.BIND, trace.CLIENT_OP, parsed, bound_at, None))
        rows.append((index, trace.PLAN, trace.CLIENT_OP, bound_at, planned,
                     _PLAN_ATTRS[now_misses == misses]))
        rows.append((index, stage, trace.CLIENT_OP, planned, end, None))
        misses = now_misses
        recorder.ok(index, statement, result, end - start, plan=plan)


# -- one pass --------------------------------------------------------------------------


def run_pass(name: str, which: str, seed: int, scale: str, seconds: float,
             work_root: str, expected_path: Optional[str] = None,
             trace_out: Optional[str] = None) -> Dict[str, Any]:
    os.makedirs(work_root, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-{which}-",
                                     dir=work_root) as work_dir:
        return _run_pass(name, which, seed, scale, seconds, work_dir,
                         expected_path, trace_out)


def _run_pass(name, which, seed, scale, seconds, work_dir, expected_path,
              trace_out) -> Dict[str, Any]:
    workload = build(name, seed, scale, seconds)
    spans = Spans()
    traced = which == TRACED
    reference = which == REFERENCE

    with spans.lifecycle(DATAGEN):
        workload.generate()
    workload.build_stream()
    if expected_path is not None and not reference:
        with open(expected_path) as handle:
            workload.attach_expected(json.load(handle))

    session = connect(**({} if reference else workload.connect_kwargs(work_dir)))
    try:
        user_bytes = 0

        def loader(table, schema, store, rows) -> None:
            nonlocal user_bytes
            with spans.lifecycle(LOAD_ROWS, table=table, store=store.value,
                                 rows=len(rows)):
                session.create_table(schema, store)
                session.load_rows(table, rows)
            user_bytes += len(rows) * schema.row_width_bytes

        workload.load(loader)
        workload.drop_data()
        if not reference:
            workload.prepare(session, spans)

        warm = Recorder(workload)
        timed = Recorder(workload)
        if reference:
            return _reference_pass(session, workload, warm, timed, expected_path)

        with spans.lifecycle(WARMUP):
            run_untraced(session, workload.warmup, warm)
        setup = {
            "datagen_s": spans.seconds(DATAGEN),
            "load_s": spans.seconds(LOAD_ROWS),
            "warmup_s": spans.seconds(WARMUP),
        }
        setup["setup_s"] = sum(setup.values())
        result: Dict[str, Any] = {
            "pass": which, "workload": name, "seed": seed, "scale": scale,
            "seconds": seconds, "setup": setup,
        }
        if which == SETUP:
            return result

        memory_per_user_byte = share(session.database.memory_bytes, user_bytes)
        gc.collect()
        gc.freeze()

        wall_start, cpu_start = time.perf_counter(), time.process_time()
        if traced:
            run_traced(session, workload.timed, timed, spans)
        else:
            run_untraced(session, workload.timed, timed)
        loop_wall = time.perf_counter() - wall_start
        loop_cpu = time.process_time() - cpu_start

        serial = None
        if traced and workload.serial_reference:
            serial = Recorder(workload)
            with shard_execution_disabled():
                run_untraced(session, workload.timed, serial)
            timed.check(serial.digest.digest() == timed.digest.digest()
                        and serial.sim_ms == timed.sim_ms,
                        "sharded pass and shard_execution_disabled() "
                        "reference disagree")

        extras = workload.finish(session, spans, timed, work_dir, traced)
        with spans.lifecycle(SCRUB):
            report = session.verify_integrity()
        timed.check(report.clean, f"verify_integrity(): {report.corrupt}")
        stats = session.stats()
        # close() shuts the worker pool down and audits its segment ledger.
        session.close()
        reclaimed = session.stats().shard_segments_reclaimed
        leaked, doubled = audit_shared_segments()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        own = resource.getrusage(resource.RUSAGE_SELF)

        digest = hashlib.blake2b(digest_size=16)
        digest.update(warm.digest.digest() + timed.digest.digest())
        digest.update(repr(timed.sim_ms).encode())
        result.update({
            "statements": {
                "warmup": len(workload.warmup), "timed": len(workload.timed),
                "by_class": {kind: len(values)
                             for kind, values in timed.by_class.items() if values},
            },
            "digest": digest.hexdigest(),
            "sim_runtime_s": timed.sim_ms / 1e3,
            "attempted": warm.attempted + timed.attempted,
            "failed": warm.failed + timed.failed,
            "errors": warm.errors + timed.errors,
            "latency": _latency_summary(timed.latencies),
            "by_class": {kind: _latency_summary(values)
                         for kind, values in timed.by_class.items() if values},
            "loop_wall_s": loop_wall,
            "cpu_util": share(loop_cpu, loop_wall),
            "lifecycle": spans.lifecycle_seconds,
            "peak_rss_mb": own.ru_maxrss / 1024.0,
        })
        if traced:
            result["layers"] = _layer_metrics(
                workload, spans, warm, timed, serial, stats, extras,
                memory_per_user_byte,
                worker_cpu_s=children.ru_utime + children.ru_stime,
                leaked_segments=len(leaked) + len(doubled) + reclaimed,
            )
            result["stage_seconds"] = sum(
                row[4] - row[3] for row in spans.rows if row[1] in trace.STAGES
            )
            if trace_out is not None:
                spans.write(trace_out)
        return result
    finally:
        session.close()


def _latency_summary(latencies: List[float]) -> Dict[str, float]:
    return {
        "wall_s": sum(latencies),
        "p50_us": median(latencies) * 1e6,
        "p99_us": percentile(latencies, 0.99) * 1e6,
        "samples": len(latencies),
    }


def _reference_pass(session, workload, warm, timed, expected_path) -> Dict[str, Any]:
    """Row store, no WAL, no advisor, no views: what each statement returns."""
    seen = [0]

    def skip(index: int, statement: Statement) -> bool:
        if not isinstance(statement.payload, AggregationQuery):
            return False
        seen[0] += 1
        return seen[0] % REFERENCE_AGGREGATE_STRIDE != 0

    warm.keep, timed.keep = {}, {}
    run_untraced(session, workload.warmup, warm, skip)
    run_untraced(session, workload.timed, timed, skip)
    offset = len(workload.warmup)
    kept = dict(warm.keep)
    kept.update({offset + index: canon for index, canon in timed.keep.items()})
    with open(expected_path, "w") as handle:
        json.dump(kept, handle)
    return {"pass": REFERENCE, "checked": len(kept),
            "failed": warm.failed + timed.failed,
            "errors": warm.errors + timed.errors}


# -- per-layer metrics from the traced pass -----------------------------------------------


def _layer_metrics(workload, spans: Spans, warm: Recorder, timed: Recorder,
                   serial: Optional[Recorder], stats, extras: Dict[str, Any],
                   memory_per_user_byte: float, worker_cpu_s: float,
                   leaked_segments: int) -> Dict[str, float]:
    """Every per-layer metric this pass can measure; absent means not on the path."""
    by_name: Dict[str, list] = {}
    for row in spans.rows:
        by_name.setdefault(row[1], []).append(row)
    op_seconds = sum(trace.durations(by_name.get(trace.CLIENT_OP, ())))
    layers: Dict[str, float] = {}

    def p50_us(name: str, rows) -> None:
        values = trace.durations(rows)
        if values:
            layers[name] = median(values) * 1e6

    def time_share(name: str, span_name: str) -> None:
        layers[name] = share(
            sum(trace.durations(by_name.get(span_name, ()))), op_seconds
        )

    parses = by_name.get(trace.PARSE, [])
    if parses:
        p50_us("query.parser.parse_us_p50", parses)
        time_share("query.parser.time_share", trace.PARSE)
        layers["query.parser.cache_hit_share"] = share(
            stats.parse_cache_hits,
            stats.parse_cache_hits + stats.statements_parsed,
        )
    p50_us("api.binder.bind_us_p50", by_name.get(trace.BIND, ()))
    time_share("api.binder.time_share", trace.BIND)
    plans = by_name.get(trace.PLAN, [])
    p50_us("api.plan.plan_us_p50",
           [row for row in plans if row[5] is _PLAN_ATTRS[False]])
    p50_us("api.plan.lookup_us_p50",
           [row for row in plans if row[5] is _PLAN_ATTRS[True]])
    time_share("api.plan.time_share", trace.PLAN)
    layers["api.plan.cache_hit_share"] = stats.plan_cache_hit_rate
    layers["api.plan.cache_evictions"] = stats.plan_cache_evictions

    serves = by_name.get(trace.VIEW_SERVE, [])
    p50_us("api.session.view_serve_us_p50", serves)
    executes = by_name.get(trace.EXECUTE, [])
    kinds = [statement.kind for statement in workload.timed]
    for kind in CLASSES:
        p50_us(f"engine.executor.{kind}_us_p50",
               [row for row in executes if kinds[row[0]] == kind])
    time_share("engine.executor.time_share", trace.EXECUTE)

    if timed.aggregates:
        for metric, tier in (("zero_scan", "zero-scan"),
                             ("code_domain", "code-domain"),
                             ("partition_partial", "partition-partial")):
            layers[f"engine.agg_pushdown.{metric}_share"] = share(
                timed.tiers[tier], timed.aggregates
            )
    layers["engine.zonemap.partitions_skipped_share"] = share(
        timed.partitions[1], sum(timed.partitions)
    )
    # Of the rows read by scans that touched a delta at all; 0 when none did.
    layers["engine.column_store.delta_rows_scanned_share"] = share(
        timed.scanned_rows[1], sum(timed.scanned_rows)
    )
    for store in ("row", "column"):
        loads = [row for row in by_name.get(LOAD_ROWS, ())
                 if row[5]["store"] == store]
        if loads:
            layers[f"engine.{store}_store.load_rows_per_s"] = share(
                sum(row[5]["rows"] for row in loads),
                sum(trace.durations(loads)),
            )
    layers["engine.database.memory_bytes_per_user_byte"] = memory_per_user_byte

    layers["engine.shard.sharded_share"] = share(
        len(timed.sharded_ops), timed.attempted
    )
    if warm.first_sharded_s is not None:
        layers["engine.shard.cold_first_query_ms"] = warm.first_sharded_s * 1e3
    if serial is not None and timed.sharded_ops:
        default = [timed.latencies[index] for index in timed.sharded_ops]
        reference = [serial.latencies[index] for index in timed.sharded_ops]
        layers["engine.shard.speedup_vs_serial"] = share(
            median(reference), median(default)
        )
        layers["engine.shard.worker_cpu_s"] = worker_cpu_s
    layers["engine.shard.retries"] = stats.shard_retries
    layers["engine.shard.degradations"] = warm.degraded + timed.degraded
    layers["engine.shard.worker_replacements"] = stats.shard_worker_replacements
    layers["engine.shard.leaked_segments"] = leaked_segments

    if serves:
        layers["engine.matview.served_share"] = share(
            sum(timed.view_serves.values()), timed.aggregates
        )
        refreshes = stats.view_incremental_refreshes + stats.view_full_refreshes
        layers["engine.matview.incremental_refresh_share"] = share(
            stats.view_incremental_refreshes, refreshes
        )
        p50_us("engine.matview.serve_us_p50",
               [row for row in serves if row[0] in timed.fresh_view_ops])

    layers["engine.integrity.scrub_ms"] = spans.seconds(SCRUB) * 1e3
    layers["engine.integrity.units_verified"] = stats.integrity_units_verified
    memo = stats.estimate_memo_hits + stats.estimate_memo_misses
    layers["core.cost_model.memo_hit_share"] = share(stats.estimate_memo_hits, memo)
    if timed.estimated:
        layers["core.cost_model.estimate_error_mean"] = (
            timed.estimate_error / timed.estimated
        )
    layers["workloads.datagen_s"] = spans.seconds(DATAGEN)
    layers.update(extras)
    return layers


def main(args) -> int:
    """Run one pass and print its result as one JSON line on stdout."""
    try:
        result = run_pass(args.workload, args.run_pass, args.seed, args.scale,
                          args.seconds, args.work_dir, args.expected,
                          args.trace_out)
    except Exception:  # boundary: the parent reports the pass as failed
        traceback.print_exc()
        return 1
    sys.stdout.write(json.dumps(result) + "\n")
    return 0
