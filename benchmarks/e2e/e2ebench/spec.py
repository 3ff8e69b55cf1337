"""What the benchmark measures: workloads, end-to-end metrics, per-layer metrics.

This is the one table the rest of the directory reads.  ``BENCHMARK.json``
at the repository root is the contract-shaped projection of it (the metrics
every workload reports, with the bounds later PRs are held to);
``test_e2e_bench.py`` pins that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

OLTP_POINT = "oltp_point"
OLAP_SERIAL = "olap_serial_100k"
OLAP_SHARD = "olap_shard_1m"
HTAP_TPCH = "htap_tpch"

#: Workload name -> why it exists (one sentence each; the long form lives
#: next to the code that builds the workload, in ``workloads.py``).
WORKLOADS: Dict[str, str] = {
    OLTP_POINT: (
        "row store, ad-hoc SQL text with distinct literals: overflows the parse "
        "and plan caches, so parser/binder/planner dominate and the executor "
        "only probes an index"
    ),
    OLAP_SERIAL: (
        "100k-row column store below the shard floor, 64 recurring report "
        "texts: caches always hit, the serial executor kernels do all the work"
    ),
    OLAP_SHARD: (
        "same statement texts on 1M rows: the default configuration takes the "
        "scatter/gather path, so dispatch and gather are measured, not kernels"
    ),
    HTAP_TPCH: (
        "fig10 lifecycle with a WAL: load, advise, apply, mixed reads and "
        "writes, recover, checkpoint; every layer is on the path at once"
    ),
}

ALL = tuple(WORKLOADS)

#: ``--scale``: ``smoke`` is about 1/50 of the statements on small tables.
FULL, SMOKE = "full", "smoke"
#: The passes of one run, each in a fresh interpreter (see ``worker.py``).
SETUP, REFERENCE, UNTRACED, TRACED = "setup", "reference", "untraced", "traced"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may get worse;
    #: ``None`` for per-layer metrics, which are diagnostics and carry none.
    bound: Optional[float]
    #: Workloads that report the metric; a pair not listed does not exist.
    workloads: Tuple[str, ...]
    #: End-to-end: what it is.  Per-layer: which end-to-end metric it should
    #: move, and where.
    note: str


def _e2e(name, unit, better, bound, note, workloads=ALL):
    return Metric(name, unit, better, bound, tuple(workloads), note)


#: The eleven end-to-end metrics.  The wall-clock bounds are what the A/A
#: runs on the 2-core reference VM support (README, "Measured"): its noise
#: floor moves medians by 10-20 % between half-hours, so nothing tighter than
#: the contract's 25 % ceiling would hold.  ``sim_runtime_s`` carries the
#: bound the driver can apply across *seeds*; between runs of one seed it
#: must repeat exactly, which ``compare.py`` checks together with the digest.
END_TO_END: Tuple[Metric, ...] = (
    _e2e("setup_s", "s", "lower", 0.25,
         "data generation + create_table + load_rows + warm-up (median of "
         "three set-ups, each in its own process)"),
    _e2e("ops_per_s", "statements/s", "higher", 0.25,
         "timed statements / summed statement wall time"),
    _e2e("p50_us", "us", "lower", 0.25,
         "median statement latency over the timed phase"),
    _e2e("p99_us", "us", "lower", 0.25,
         "99th percentile statement latency (sample count beside it)"),
    _e2e("sim_runtime_s", "sim_s", "lower", 0.15,
         "sum of result.runtime_ms over the timed phase: the simulated "
         "clock, exact for a given seed"),
    _e2e("peak_rss_mb", "MiB", "lower", 0.05,
         "ru_maxrss of the workload's untraced process"),
    _e2e("failed_share", "ratio", "lower", 0.0,
         "statements that raised, timed out or failed the correctness "
         "check / statements attempted"),
    _e2e("advise_s", "s", "lower", 0.25,
         "initialize_cost_model + recommend(table-level) + "
         "recommend(partitioned)", (HTAP_TPCH,)),
    _e2e("apply_s", "s", "lower", 0.25,
         "session.apply(recommendation) + recommend_views + creating the views",
         (HTAP_TPCH,)),
    _e2e("checkpoint_s", "s", "lower", 0.25,
         "session.checkpoint() after the timed phase", (HTAP_TPCH,)),
    _e2e("recover_s", "s", "lower", 0.25,
         "repro.api.recover() of the un-checkpointed log (full replay)",
         (HTAP_TPCH,)),
)

#: The end-to-end metrics every workload reports and that are never zero:
#: the ones ``BENCHMARK.json`` can carry under the driver's contract.
CONTRACT_END_TO_END = tuple(
    metric.name for metric in END_TO_END
    if metric.workloads == ALL and metric.name != "failed_share"
)

_TEXT = (OLTP_POINT, OLAP_SERIAL, OLAP_SHARD)
_OLAP = (OLAP_SERIAL, OLAP_SHARD)


def _layer(name, unit, better, workloads, note):
    return Metric(name, unit, better, None, tuple(workloads), note)


PER_LAYER: Tuple[Metric, ...] = (
    # -- query.parser -------------------------------------------------------
    _layer("query.parser.parse_us_p50", "us", "lower", _TEXT,
           "p50_us, ops_per_s on oltp_point"),
    _layer("query.parser.cache_hit_share", "ratio", "higher", _TEXT,
           "p50_us on oltp_point (about 1 on both olap_*)"),
    _layer("query.parser.time_share", "ratio", "lower", _TEXT,
           "p50_us, ops_per_s on oltp_point (about 0 on both olap_*)"),
    # -- api.binder ---------------------------------------------------------
    _layer("api.binder.bind_us_p50", "us", "lower", ALL,
           "p50_us, ops_per_s on oltp_point, htap_tpch"),
    _layer("api.binder.time_share", "ratio", "lower", ALL,
           "p50_us, ops_per_s on oltp_point, htap_tpch"),
    # -- api.plan -----------------------------------------------------------
    _layer("api.plan.plan_us_p50", "us", "lower", (OLTP_POINT, HTAP_TPCH),
           "p50_us on oltp_point, htap_tpch (plan-cache misses)"),
    _layer("api.plan.lookup_us_p50", "us", "lower", ALL,
           "p50_us on olap_serial_100k (plan-cache hits: predicts no change)"),
    _layer("api.plan.cache_hit_share", "ratio", "higher", ALL,
           "p50_us, ops_per_s on oltp_point, htap_tpch"),
    _layer("api.plan.cache_evictions", "count", "lower", ALL,
           "p50_us on oltp_point, htap_tpch"),
    _layer("api.plan.time_share", "ratio", "lower", ALL,
           "p50_us, ops_per_s on oltp_point, htap_tpch"),
    # -- api.session --------------------------------------------------------
    _layer("api.session.self_share", "ratio", "lower", ALL,
           "p50_us on oltp_point and the zero-scan class of olap_serial_100k"),
    _layer("api.session.view_serve_us_p50", "us", "lower", (HTAP_TPCH,),
           "p99_us on htap_tpch"),
    # -- engine.executor ----------------------------------------------------
    _layer("engine.executor.point_us_p50", "us", "lower",
           (OLTP_POINT, HTAP_TPCH), "p50_us on oltp_point, htap_tpch"),
    _layer("engine.executor.write_us_p50", "us", "lower",
           (OLTP_POINT, HTAP_TPCH), "p50_us on oltp_point, htap_tpch"),
    _layer("engine.executor.scan_us_p50", "us", "lower",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "ops_per_s, p50_us on olap_*; p99_us on htap_tpch"),
    _layer("engine.executor.synopsis_us_p50", "us", "lower", _OLAP,
           "p50_us of the zero-scan class on olap_*"),
    _layer("engine.executor.time_share", "ratio", "lower", ALL,
           "ops_per_s, p50_us on olap_serial_100k (share about 1)"),
    # -- engine.agg_pushdown ------------------------------------------------
    _layer("engine.agg_pushdown.zero_scan_share", "ratio", "higher",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "ops_per_s on olap_serial_100k, htap_tpch"),
    _layer("engine.agg_pushdown.code_domain_share", "ratio", "higher",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "ops_per_s on olap_serial_100k, htap_tpch"),
    _layer("engine.agg_pushdown.partition_partial_share", "ratio", "higher",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH), "ops_per_s on htap_tpch"),
    # -- engine.zonemap -----------------------------------------------------
    _layer("engine.zonemap.partitions_skipped_share", "ratio", "higher", ALL,
           "p99_us, sim_runtime_s on htap_tpch"),
    # -- engine.column_store / row_store / database --------------------------
    _layer("engine.column_store.delta_rows_scanned_share", "ratio", "lower",
           (HTAP_TPCH,), "p99_us on htap_tpch"),
    _layer("engine.column_store.merge_ms", "ms", "lower", (HTAP_TPCH,),
           "p99_us on htap_tpch (merge stalls)"),
    _layer("engine.column_store.load_rows_per_s", "rows/s", "higher", _OLAP,
           "setup_s on olap_*"),
    _layer("engine.row_store.load_rows_per_s", "rows/s", "higher",
           (OLTP_POINT, HTAP_TPCH), "setup_s on oltp_point, htap_tpch"),
    _layer("engine.database.memory_bytes_per_user_byte", "ratio", "lower",
           ALL, "peak_rss_mb everywhere"),
    # -- engine.shard -------------------------------------------------------
    _layer("engine.shard.sharded_share", "ratio", "higher", ALL,
           "ops_per_s, p50_us on olap_shard_1m; must be 0 elsewhere"),
    _layer("engine.shard.cold_first_query_ms", "ms", "lower", (OLAP_SHARD,),
           "setup_s on olap_shard_1m"),
    _layer("engine.shard.speedup_vs_serial", "ratio", "higher",
           (OLAP_SHARD,), "ops_per_s, p50_us on olap_shard_1m"),
    _layer("engine.shard.retries", "count", "lower", ALL,
           "p99_us on olap_shard_1m"),
    _layer("engine.shard.degradations", "count", "lower", ALL,
           "p99_us on olap_shard_1m"),
    _layer("engine.shard.worker_replacements", "count", "lower", ALL,
           "p99_us on olap_shard_1m"),
    _layer("engine.shard.worker_cpu_s", "s", "lower", (OLAP_SHARD,),
           "ops_per_s on olap_shard_1m (can rise while wall time falls)"),
    _layer("engine.shard.leaked_segments", "count", "lower", ALL,
           "none: must be 0 everywhere"),
    # -- engine.matview -----------------------------------------------------
    _layer("engine.matview.served_share", "ratio", "higher", (HTAP_TPCH,),
           "p99_us, sim_runtime_s on htap_tpch"),
    _layer("engine.matview.incremental_refresh_share", "ratio", "higher",
           (HTAP_TPCH,), "p99_us, sim_runtime_s on htap_tpch"),
    _layer("engine.matview.serve_us_p50", "us", "lower", (HTAP_TPCH,),
           "p99_us on htap_tpch"),
    # -- engine.wal ---------------------------------------------------------
    _layer("engine.wal.append_us_p50", "us", "lower", (HTAP_TPCH,),
           "p50_us (write class) on htap_tpch"),
    _layer("engine.wal.bytes_per_stmt", "bytes", "lower", (HTAP_TPCH,),
           "recover_s, checkpoint_s on htap_tpch"),
    _layer("engine.wal.checkpoint_mb_per_s", "MB/s", "higher", (HTAP_TPCH,),
           "checkpoint_s on htap_tpch"),
    _layer("engine.wal.recover_records_per_s", "records/s", "higher",
           (HTAP_TPCH,), "recover_s on htap_tpch"),
    _layer("engine.wal.recover_after_checkpoint_s", "s", "lower",
           (HTAP_TPCH,), "recover_s on htap_tpch"),
    # -- engine.integrity ---------------------------------------------------
    _layer("engine.integrity.scrub_ms", "ms", "lower",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "peak_rss_mb, p50_us (first-touch verification)"),
    _layer("engine.integrity.units_verified", "count", "lower", ALL,
           "p50_us (first-touch verification) on htap_tpch, olap_shard_1m"),
    # -- core.cost_model / core.advisor --------------------------------------
    _layer("core.cost_model.calibrate_s", "s", "lower", (HTAP_TPCH,),
           "advise_s on htap_tpch"),
    _layer("core.cost_model.memo_hit_share", "ratio", "higher", ALL,
           "advise_s on htap_tpch; p50_us on oltp_point (plan misses)"),
    _layer("core.cost_model.estimate_error_mean", "ratio", "lower", ALL,
           "sim_runtime_s on htap_tpch through recommendation quality"),
    _layer("core.advisor.recommend_table_s", "s", "lower", (HTAP_TPCH,),
           "advise_s on htap_tpch"),
    _layer("core.advisor.recommend_partitioned_s", "s", "lower",
           (HTAP_TPCH,), "advise_s on htap_tpch"),
    _layer("core.advisor.recommend_views_s", "s", "lower", (HTAP_TPCH,),
           "apply_s on htap_tpch"),
    _layer("core.advisor.apply_s", "s", "lower", (HTAP_TPCH,),
           "apply_s on htap_tpch"),
    # -- workloads ----------------------------------------------------------
    _layer("workloads.datagen_s", "s", "lower", ALL, "setup_s everywhere"),
    # -- client (the generator's own view, by statement class) ----------------
    _layer("client.point.p50_us", "us", "lower", (OLTP_POINT, HTAP_TPCH),
           "diagnostic: which class moved p50_us"),
    _layer("client.point.p99_us", "us", "lower", (OLTP_POINT, HTAP_TPCH),
           "diagnostic: which class moved p99_us"),
    _layer("client.write.p50_us", "us", "lower", (OLTP_POINT, HTAP_TPCH),
           "diagnostic: which class moved p50_us"),
    _layer("client.write.p99_us", "us", "lower", (OLTP_POINT, HTAP_TPCH),
           "diagnostic: which class moved p99_us"),
    _layer("client.scan.p50_us", "us", "lower",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "diagnostic: which class moved p50_us"),
    _layer("client.scan.p99_us", "us", "lower",
           (OLAP_SERIAL, OLAP_SHARD, HTAP_TPCH),
           "diagnostic: which class moved p99_us"),
    _layer("client.synopsis.p50_us", "us", "lower", _OLAP,
           "diagnostic: which class moved p50_us"),
    _layer("client.synopsis.p99_us", "us", "lower", _OLAP,
           "diagnostic: which class moved p99_us"),
    _layer("client.cpu_util", "ratio", "higher", ALL,
           "diagnostic: below 1 means the client waited (shard workers, fsync)"),
    _layer("client.trace_overhead_share", "ratio", "lower", ALL,
           "diagnostic: traced wall / untraced wall - 1"),
)

END_TO_END_BY_NAME = {metric.name: metric for metric in END_TO_END}
PER_LAYER_BY_NAME = {metric.name: metric for metric in PER_LAYER}
