"""Shard-parallel scatter/gather execution with a supervised worker pool.

Large column-store scans and aggregations are split into contiguous row-range
*shards* executed by a pool of worker processes.  The parent publishes each
column's flat ``int64`` code array once per zone epoch into a
:mod:`multiprocessing.shared_memory` segment; dictionaries ship to each worker
once per ``(column, epoch)`` and are cached worker-side, so steady-state
dispatch moves only the query and the shard bounds.  Workers filter their
range in the code domain (:func:`translate_code_predicate`, with the store's
decode-and-compare fallback) and either return global match positions
(selection) or mergeable partial aggregate states
(:func:`partition_partial_rows`); the parent gathers and merges with
:func:`merge_partition_partials` — the exact kernels the partitioned
aggregation tier already pins against the serial reference.

The pool is *supervised*: the gather loop polls worker liveness, a dead or
wedged worker is terminated and replaced individually (the rest of the crew
and their shipped dictionaries survive), every replacement is counted, and
every shared-memory segment the pool ever publishes is tracked in a ledger
audited — unlinked exactly once — at ``Session.close()``/``atexit``.  A
failed scatter/gather walks an explicit **degradation ladder**::

    shard-parallel -> retry (bounded exponential backoff + jitter) -> serial

recorded per query on the :class:`~repro.engine.timing.CostAccountant`
(rendered by ``EXPLAIN ANALYZE`` as a ``degraded:`` section) and counted in
``SessionStats``.  Query deadlines (:mod:`repro.engine.deadline`) cut through
every rung: the gather loop polls the deadline, abandons and repairs wedged
workers, and raises :class:`~repro.errors.QueryTimeoutError` with nothing
billed.

Cost discipline mirrors the rest of the engine: workers **never** touch a
:class:`~repro.engine.timing.CostAccountant`.  The parent dispatches, gathers
and merges first, charge-free; only when the sharded result is fully in hand
does it bill, through the serial readers' own charge functions fed the
gathered match counts and in the serial call order, so the
:class:`~repro.engine.timing.CostBreakdown` is bit-identical to
:func:`shard_execution_disabled` execution.  Any failure — a dead worker, a
pickling error, a gather timeout, an unorderable partial merge — abandons the
sharded attempt *before* any charge lands; after the retry budget the caller
falls through to the ordinary serial operator, which charges itself.

The planner records a :class:`ShardDecision` per physical plan; like
``ScanDecision`` and ``AggregateStrategy`` it is kept by the access path under
the one freshness rule (:mod:`repro.engine.executor.access`) and re-derived
after DML, a toggle flip or a ``shard_config`` change.
Whether an eligible query shards at all, and how wide, is a cost decision:
:mod:`repro.engine.shard_gate` predicts the wall time of both executors.
The process-fault matrix (:data:`repro.testing.faults.PROCESS_FAULTS`) is
injected at the exact parent-side points where each fault would bite; the
resilience suite (``pytest -m resilience``) pins that every fault still
yields bit-identical rows and charges and a self-healed pool.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import multiprocessing
import os
import pickle
import queue as queue_module
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import DEFAULT_SEED, ResilienceConfig
from repro.engine.batch import EncodedColumn, evaluate_predicate_mask
from repro.engine.column_store import ColumnStoreTable, translate_code_predicate
from repro.engine.context import current, scope
from repro.engine.deadline import deadline_check, deadline_remaining
from repro.engine.integrity import codes_checksum, integrity_enabled
from repro.engine.shard_gate import best_fan_out, usable_cores
from repro.engine.statistics import ColumnStatistics
from repro.engine.executor.agg_pushdown import TIER_ZERO_SCAN, aggregate_pushdown_enabled
from repro.engine.executor.aggregates import (
    merge_partition_partials,
    partition_partial_rows,
)
from repro.engine.timing import CostAccountant
from repro.engine.toggle import Toggle, bump_settings_epoch
from repro.query.ast import AggregationQuery, Query, SelectQuery
from repro.testing.faults import active_plan, process_fault

__all__ = [
    "ShardDecision",
    "ShardExecutionError",
    "audit_shared_segments",
    "derive_shard_decision",
    "gather_timeout_for",
    "get_worker_pool",
    "resilience_scope",
    "shard_bounds",
    "shard_config",
    "shard_execution_disabled",
    "shard_execution_enabled",
    "shard_fan_out",
    "shard_gate",
    "shutdown_worker_pool",
    "structural_ineligibility",
    "try_sharded_aggregation",
    "try_sharded_select",
]

_LOGGER = logging.getLogger("repro.engine.shard")


# -- toggle and configuration ----------------------------------------------------------

_SHARD = Toggle()

#: Planner default fan-out and pool size: one shard per usable core, so no
#: shard waits for a time slice (4 workers on 2 cores woke the last one 5-13
#: ms late); >= 2 so an explicit ``min_rows`` still scatters on one core.
_SHARD_FAN_OUT = max(2, min(usable_cores(), 8))

#: ``None``: :func:`shard_gate` decides per query on predicted wall time; an
#: integer shards every eligible query on a table of at least that many rows.
_SHARD_MIN_ROWS: Optional[int] = None

#: Upper bound on any single retry backoff sleep (seconds).
_RETRY_BACKOFF_CAP_S = 1.0

#: Gather poll interval: the granularity at which worker deaths, gather
#: timeouts and query deadlines are detected.
_POLL_INTERVAL_S = 0.05

#: Deterministic jitter source for retry backoff (reproducible runs).
_BACKOFF_RNG = random.Random(DEFAULT_SEED)


def shard_execution_enabled() -> bool:
    """Whether the sharded scatter/gather paths may run."""
    return _SHARD.enabled


def shard_execution_disabled():
    """Force serial execution — the charge-identity reference for sharding."""
    return _SHARD.disabled()


def shard_fan_out() -> int:
    return _SHARD_FAN_OUT


def gather_timeout_for(num_rows: int) -> float:
    """The gather timeout for a *num_rows*-row sharded execution.

    The configured base (``shard_config(gather_timeout_s=...)``) covers
    tables up to 1M rows; larger scatters get proportionally more headroom,
    so a loaded CI machine running the 1M-row benches cannot trip a
    hard-coded constant.
    """
    return current().resilience.gather_timeout_s * max(1.0, num_rows / 1_000_000.0)


@contextmanager
def shard_config(fan_out: Optional[int] = None, min_rows: Optional[int] = None,
                 max_attempts: Optional[int] = None,
                 gather_timeout_s: Optional[float] = None,
                 backoff_s: Optional[float] = None):
    """Temporarily override the shard executor's configuration.

    ``min_rows=n`` replaces the default wall-clock gate with "shard every
    eligible query on at least *n* rows" (tests use ``min_rows=1`` to shard
    small tables).  Entering and leaving the scope moves the settings epoch,
    so recorded :class:`ShardDecision` objects go stale exactly like under a
    toggle flip.
    ``max_attempts``/``gather_timeout_s``/``backoff_s`` override single
    fields of the current resilience policy — they change how a
    scatter/gather fails, never what it computes.
    """
    global _SHARD_FAN_OUT, _SHARD_MIN_ROWS
    previous = (_SHARD_FAN_OUT, _SHARD_MIN_ROWS)
    if fan_out is not None:
        _SHARD_FAN_OUT = fan_out
    if min_rows is not None:
        _SHARD_MIN_ROWS = min_rows
    knobs = {"max_attempts": max_attempts, "gather_timeout_s": gather_timeout_s,
             "backoff_s": backoff_s}
    policy = replace(
        current().resilience,
        **{name: value for name, value in knobs.items() if value is not None},
    )
    bump_settings_epoch()
    try:
        with scope(resilience=policy):
            yield
    finally:
        _SHARD_FAN_OUT, _SHARD_MIN_ROWS = previous
        bump_settings_epoch()


def resilience_scope(config: ResilienceConfig):
    """Run the ``with`` body under *config*'s resilience policy."""
    return scope(resilience=config)


class ShardExecutionError(RuntimeError):
    """A sharded attempt failed; the caller retries or falls back to serial.

    ``attempts`` records how many scatter/gather attempts were consumed when
    the error finally escaped the retry loop (1 = the first attempt failed
    and no retry budget remained).
    """

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts


# -- the planner-recorded decision -----------------------------------------------------


@dataclass(frozen=True)
class ShardDecision:
    """The planner's per-query sharding verdict, recorded on the access path.

    ``max_attempts`` snapshots the retry budget the decision was planned
    under; :meth:`ladder` renders the degradation ladder a sharded execution
    walks on failure.
    """

    table: str
    fan_out: int
    bounds: Tuple[Tuple[int, int], ...]
    sharded: bool
    reason: str
    query: Optional[Query] = None
    max_attempts: int = 1
    #: ``(serial, sharded)`` ms the wall-clock gate predicted, when it ruled.
    predicted_ms: Optional[Tuple[float, float]] = None

    def describe(self) -> str:
        if self.sharded:
            return f"fan-out {self.fan_out} ({self.reason})"
        return f"serial ({self.reason})"

    def ladder(self) -> Tuple[str, ...]:
        """The degradation ladder this execution walks on failure."""
        if not self.sharded:
            return ("serial",)
        rungs = ["shard-parallel"]
        if self.max_attempts > 1:
            rungs.append(f"retry x{self.max_attempts - 1}")
        rungs.append("serial")
        rungs.append("error")
        return tuple(rungs)

    def describe_ladder(self) -> str:
        return " -> ".join(self.ladder())


def shard_bounds(num_rows: int, fan_out: int) -> Tuple[Tuple[int, int], ...]:
    """Balanced contiguous ``[start, stop)`` row ranges covering the table."""
    base, extra = divmod(num_rows, fan_out)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(fan_out):
        size = base + (1 if index < extra else 0)
        bounds.append((start, start + size))
        start += size
    return tuple(bounds)


def shard_gate(query: Query, num_rows: int, statistics,
               ) -> Tuple[int, Optional[Tuple[float, float]]]:
    """``(fan_out, prediction)`` for an eligible *query*; fan-out 0 = stay serial.

    ``shard_config(min_rows=n)`` scatters every table of at least *n* rows at
    the configured fan-out, unpredicted; by default the wall-clock gate
    rules.  The planner and the advisor's what-if both ask here.
    """
    limit = min(_SHARD_FAN_OUT, num_rows)
    if limit < 2:
        return 0, None
    if _SHARD_MIN_ROWS is not None:
        return (limit if num_rows >= _SHARD_MIN_ROWS else 0), None
    return best_fan_out(query, num_rows, statistics, limit)


def structural_ineligibility(table, inner: bool = False) -> Optional[str]:
    """Why a path over *table* can never shard, whatever the statement.

    ``None`` when it may: an unpartitioned column-store table read by its
    own (not an inner partition) path.  This depends on the path alone, so
    the path decides it once, when it is built (``AccessPath.never_shards``)
    — paths are rebuilt per layout, and a store move builds new ones.
    """
    if inner:
        return "inner partition path"
    if not isinstance(getattr(table, "backend", None), ColumnStoreTable):
        return "not a plain column store"
    return None


def derive_shard_decision(path, query: Query) -> ShardDecision:
    """Derive the sharding verdict for *query* over *path*.

    Only single-table queries against a plain column store are
    eligible: the path's structural verdict (``path.never_shards``) first,
    then what moves per statement.  Aggregations must not already be
    answered zone-free; selections require a predicate (an unfiltered
    SELECT is pure materialisation, which stays serial).  Whether an
    eligible query then shards, and how wide, is :func:`shard_gate`'s call.
    """
    table = path.table

    def verdict(sharded: bool, reason: str, fan_out: int = 0,
                bounds: Tuple[Tuple[int, int], ...] = (),
                predicted_ms: Optional[Tuple[float, float]] = None) -> ShardDecision:
        return ShardDecision(
            table=table.name, fan_out=fan_out, bounds=bounds,
            sharded=sharded, reason=reason, query=query,
            max_attempts=current().resilience.max_attempts,
            predicted_ms=predicted_ms,
        )

    if not shard_execution_enabled():
        return verdict(False, "shard execution disabled")
    if path.never_shards is not None:
        return verdict(False, path.never_shards)
    backend = table.backend
    num_rows = table.num_rows
    predicate = query.predicate
    if isinstance(query, AggregationQuery):
        if query.joins:
            return verdict(False, "join query")
        strategy = path.aggregate_decision_for(query)
        if (aggregate_pushdown_enabled()
                and strategy.tier == TIER_ZERO_SCAN
                and strategy.answer is not None):
            return verdict(False, "zero-scan answer")
    elif isinstance(query, SelectQuery):
        if predicate is None:
            return verdict(False, "unfiltered select")
    else:
        return verdict(False, "unsupported query type")
    if predicate is not None:
        if any(not table.schema.has_column(name) for name in predicate.columns()):
            return verdict(False, "unresolvable predicate column")
        if not path.decision_for(predicate).partitions[0].scan:
            return verdict(False, "zone-pruned scan")
    # What the catalog would record for the predicate's columns right now,
    # from the exact O(1) synopses: dictionary cardinality and zone bounds.
    statistics = {}
    for name in (predicate.columns() if predicate is not None else ()):
        zone = backend.column_zone(name)
        statistics[name] = ColumnStatistics(
            name, table.schema.column(name).dtype,
            backend.column_distinct_count(name), zone.min_value, zone.max_value,
        )
    fan_out, predicted = shard_gate(query, num_rows, statistics)
    if predicted is not None:
        reason = (f"predicted {predicted[0]:.1f} ms serial "
                  f"{'>=' if fan_out else '<'} {predicted[1]:.1f} ms sharded")
    elif min(_SHARD_FAN_OUT, num_rows) < 2:
        reason = "fan-out below 2"
    else:
        reason = f"below {_SHARD_MIN_ROWS}-row floor"
    if not fan_out:
        return verdict(False, reason, predicted_ms=predicted)
    shape = f"{fan_out} x ~{num_rows // fan_out} rows"
    return verdict(
        True, f"{shape}, {reason}" if predicted else shape, fan_out=fan_out,
        bounds=shard_bounds(num_rows, fan_out), predicted_ms=predicted,
    )


# -- shared-memory segment ledger ------------------------------------------------------

#: Every segment name the pool ever created, mapped to how many times it was
#: successfully unlinked.  The close/atexit audit asserts "exactly once".
_SEGMENT_LEDGER: Dict[str, int] = {}


def _ledger_create(name: str) -> None:
    _SEGMENT_LEDGER[name] = 0


def _unlink_segment(shm) -> None:
    """Close and unlink *shm*, recording the unlink in the ledger.

    A segment already gone (``FileNotFoundError``) — e.g. an injected unlink
    race, or a prior reclaim — is not counted: the ledger counts *successful*
    unlinks, so the exactly-once audit still holds.
    """
    try:
        shm.close()
    except OSError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        return
    except OSError as error:
        current().counters.teardown_errors += 1
        _LOGGER.warning("unexpected error unlinking segment %s: %r",
                        shm.name, error)
        return
    if shm.name in _SEGMENT_LEDGER:
        _SEGMENT_LEDGER[shm.name] += 1


def audit_shared_segments(reclaim: bool = True) -> Tuple[List[str], List[str]]:
    """Audit the segment ledger: every published segment unlinked exactly once.

    Returns ``(leaked, double_unlinked)`` segment names.  Segments still
    owned by a live pool are not audited.  With *reclaim* (the default),
    leaked segments are force-unlinked — a worker death mid-publish must not
    leave ``/dev/shm`` litter behind — and counted in
    ``EngineCounters.segments_reclaimed`` of the current context.  Audited
    entries leave the ledger, so repeated audits (close + atexit) stay clean.
    """
    live = set()
    if _POOL is not None:
        live = {entry[1].name for entry in _POOL._segments.values()}
    leaked: List[str] = []
    doubled: List[str] = []
    for name in list(_SEGMENT_LEDGER):
        if name in live:
            continue
        count = _SEGMENT_LEDGER.pop(name)
        if count == 0:
            leaked.append(name)
            if reclaim:
                try:
                    stray = shared_memory.SharedMemory(name=name)
                except FileNotFoundError:
                    continue  # never landed on disk: created, then died early
                current().counters.segments_reclaimed += 1
                try:
                    stray.close()
                    stray.unlink()
                except OSError:
                    pass
        elif count > 1:
            doubled.append(name)
    if leaked or doubled:
        _LOGGER.warning("segment audit: leaked=%s double-unlinked=%s",
                        leaked, doubled)
    return leaked, doubled


# -- worker pool over shared-memory code arrays ----------------------------------------

_NAMESPACE_COUNTER = itertools.count(1)


def _backend_namespace(backend: ColumnStoreTable) -> int:
    """A process-unique id for *backend* — table names alone can collide."""
    namespace = getattr(backend, "_shard_namespace", None)
    if namespace is None:
        namespace = next(_NAMESPACE_COUNTER)
        backend._shard_namespace = namespace
    return namespace


@contextmanager
def _attach_untracked():
    """Attach shared segments without registering with the resource tracker.

    The parent is the segments' sole owner, but ``SharedMemory`` registers
    every attach (Python 3.11 has no ``track=`` parameter).  A worker that let
    that registration through would either erase the parent's claim from a
    shared tracker (fork) or stand up its own tracker that unlinks the
    parent's live segments when the worker exits (spawn) — so workers
    suppress registration for the duration of the attach.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        resource_tracker.register = original


class _ShardColumn:
    """Worker-side stand-in for ``CompressedColumn``: name, codes, dictionary."""

    __slots__ = ("name", "codes", "dictionary")

    def __init__(self, name: str, codes: np.ndarray, dictionary) -> None:
        self.name = name
        self.codes = codes
        self.dictionary = dictionary


class _Unpicklable:
    """A poisoned result payload: pickles on the way in, never on the way out."""

    def __reduce__(self):
        raise pickle.PicklingError("poisoned shard result")


def _worker_main(tasks, results) -> None:
    """Worker loop: attach shards, scan/aggregate them, never charge costs."""
    cache: Dict[Tuple[int, str], Tuple[int, Any, np.ndarray, Any]] = {}
    while True:
        blob = tasks.get()
        if not blob:
            break
        task = pickle.loads(blob)
        try:
            payload = _run_shard_task(task, cache)
        except BaseException as error:  # noqa: BLE001 — report, don't die
            payload = {"error": repr(error)}
        payload["task_id"] = task.get("task_id")
        payload["run_id"] = task.get("run_id")
        try:
            results.put(pickle.dumps(payload))
        except Exception as error:
            results.put(pickle.dumps({
                "task_id": task.get("task_id"), "run_id": task.get("run_id"),
                "error": repr(error),
            }))
    for _epoch, shm, _codes, _dictionary in cache.values():
        try:
            shm.close()
        except Exception:
            pass


def _attach_columns(task, cache) -> Dict[str, Tuple[np.ndarray, Any]]:
    """Resolve the task's columns to ``(codes, dictionary)`` pairs.

    New ``(column, epoch)`` arrivals in ``task["ship"]`` attach their shared
    segment (untracked) and displace any stale epoch in the cache.
    """
    namespace, epoch = task["namespace"], task["epoch"]
    for name, shm_name, length, dictionary in task["ship"]:
        key = (namespace, name)
        stale = cache.get(key)
        if stale is not None:
            try:
                stale[1].close()
            except Exception:
                pass
        with _attach_untracked():
            shm = shared_memory.SharedMemory(name=shm_name)
        codes = np.ndarray((length,), dtype=np.int64, buffer=shm.buf)
        cache[key] = (epoch, shm, codes, dictionary)
    columns: Dict[str, Tuple[np.ndarray, Any]] = {}
    for name in task["columns"]:
        entry = cache.get((namespace, name))
        if entry is None or entry[0] != epoch:
            raise ShardExecutionError(f"stale shard column {name!r}")
        columns[name] = (entry[2], entry[3])
    return columns


def _run_shard_task(task, cache) -> Dict[str, Any]:
    fault = task.get("fault")
    if fault == "kill":
        # Injected process death: exit without cleanup, exactly like a
        # SIGKILL'd worker.  The supervisor must detect and replace us.
        os._exit(17)
    elif fault == "hang":
        # Injected wedge: never answer.  The gather timeout (or the query
        # deadline) must abandon us; the supervisor terminates and replaces.
        time.sleep(task.get("hang_s", 3600.0))
    columns = _attach_columns(task, cache)
    start, stop = task["start"], task["stop"]
    num = stop - start
    # Verify exactly the rows this task reads, in place, against the crc the
    # parent stamped for this row range from canonical memory.  Per task,
    # not per attach: a warm pool skips re-shipping at an unchanged epoch,
    # so attach-time-only verification would silently serve a segment
    # corrupted after the first query.
    for name, expected in (task.get("checksums") or {}).items():
        if codes_checksum(columns[name][0][start:stop]) != expected:
            raise ShardExecutionError(
                f"shared-memory checksum mismatch for column {name!r} "
                f"rows [{start}, {stop})"
            )
    query = task["query"]
    predicate = query.predicate
    positions: Optional[np.ndarray] = None
    if predicate is not None:
        shims = {
            name: _ShardColumn(name, codes[start:stop], dictionary)
            for name, (codes, dictionary) in columns.items()
        }
        translated = translate_code_predicate(predicate, shims)
        if translated is not None:
            mask = translated[0](num)
        else:
            arrays = {
                name: shim.dictionary.decode_array(shim.codes)
                for name, shim in shims.items()
                if name in predicate.columns()
            }
            mask = evaluate_predicate_mask(predicate, arrays, num)
        positions = np.nonzero(mask)[0]
    if task["kind"] == "select":
        matched = int(len(positions))
        result: Dict[str, Any] = {
            "scanned": num, "matched": matched,
            "positions": (positions + start).astype(np.int64),
        }
        if fault == "poison":
            result["poison"] = _Unpicklable()
        return result
    matched = num if positions is None else int(len(positions))
    available: Dict[str, Any] = {}
    for name, (codes, dictionary) in columns.items():
        sliced = codes[start:stop]
        if positions is not None:
            sliced = sliced[positions]
        available[name] = EncodedColumn(np.ascontiguousarray(sliced), dictionary)
    from repro.engine.executor.operators import _assemble_inputs

    inputs, keys = _assemble_inputs(query, available)
    partials = partition_partial_rows(
        query.aggregates, list(query.group_by), inputs, keys, matched
    )
    result = {"scanned": num, "matched": matched, "partials": partials}
    if fault == "poison":
        result["poison"] = _Unpicklable()
    return result


#: Teardown exceptions that are expected shutdown races — a queue already
#: closed by a dying feeder thread, a pipe torn down by the peer — and are
#: deliberately ignored.  Anything else is logged and counted.
_EXPECTED_TEARDOWN_ERRORS = (
    ValueError,            # "Queue is closed" and friends
    BrokenPipeError,
    ConnectionResetError,
    EOFError,
    FileNotFoundError,     # segment already unlinked
)


def _teardown(action: str, step) -> None:
    """Run one teardown *step*, distinguishing races from real errors.

    Expected shutdown races pass silently; anything else is logged and
    counted in ``EngineCounters.teardown_errors`` — never raised,
    teardown must always complete, but never silently swallowed either.
    """
    try:
        step()
    except _EXPECTED_TEARDOWN_ERRORS:
        pass
    except Exception as error:
        current().counters.teardown_errors += 1
        _LOGGER.warning("unexpected error during %s: %r", action, error)


class ShardWorkerPool:
    """A supervised crew of worker processes plus the parent's segment registry.

    One task queue per worker (shards go round-robin), one shared result
    queue.  ``_segments`` maps ``(namespace, column)`` to the published
    ``(epoch, shm, length, dictionary, {bounds: per-shard crcs})``;
    superseded epochs are unlinked eagerly, everything else at
    :meth:`shutdown`.  ``_shipped`` tracks which ``(namespace, column,
    epoch)`` dictionaries each worker already holds.

    Supervision: :meth:`repair` replaces dead workers individually (the
    survivors keep their shipped dictionaries), the gather loop in
    :meth:`run` polls liveness and the query deadline, and every gather is
    tagged with a run id so results of an abandoned attempt can never bleed
    into the next query's gather.
    """

    def __init__(self, num_workers: int, start_method: str) -> None:
        self.num_workers = max(1, num_workers)
        self.start_method = start_method
        self._context = multiprocessing.get_context(start_method)
        self._results = self._context.Queue()
        self._workers: List[Tuple[Any, Any]] = []
        self._shipped: List[set] = []
        self._run_ids = itertools.count(1)
        for _ in range(self.num_workers):
            self._workers.append(self._spawn_worker())
            self._shipped.append(set())
        self._segments: Dict[Tuple[int, str],
                             Tuple[int, Any, int, Any, Dict[Tuple, Tuple]]] = {}

    def _spawn_worker(self) -> Tuple[Any, Any]:
        tasks = self._context.Queue()
        process = self._context.Process(
            target=_worker_main, args=(tasks, self._results), daemon=True
        )
        process.start()
        return (process, tasks)

    def alive(self) -> bool:
        return bool(self._workers) and all(
            process.is_alive() for process, _tasks in self._workers
        )

    def worker_pids(self) -> List[int]:
        return [process.pid for process, _tasks in self._workers]

    @staticmethod
    def _reap(process, task_queue, grace_s: float) -> None:
        """Stop one worker — *grace_s* to exit by itself — and close its queue."""
        process.join(timeout=grace_s)
        for stop in (process.terminate, process.kill):
            if process.is_alive():
                stop()
                process.join(timeout=2.0)
        _teardown("worker queue close", task_queue.close)
        _teardown("worker queue join-thread", task_queue.cancel_join_thread)

    def replace_worker(self, index: int) -> None:
        """Terminate (if needed) and replace one worker, keeping the rest.

        The replacement starts with an empty shipped set — it holds no
        segments and no dictionaries, so the next task that touches it
        re-ships.
        """
        self._reap(*self._workers[index], grace_s=0.0)
        self._workers[index] = self._spawn_worker()
        self._shipped[index] = set()
        current().counters.worker_replacements += 1

    def repair(self) -> int:
        """Replace every dead worker; returns how many were replaced."""
        replaced = 0
        for index, (process, _tasks) in enumerate(self._workers):
            if not process.is_alive():
                self.replace_worker(index)
                replaced += 1
        return replaced

    def publish(self, namespace: int, epoch: int, backend: ColumnStoreTable,
                names: Sequence[str], bounds: Tuple[Tuple[int, int], ...],
                ) -> Dict[str, Tuple[str, int, Optional[Tuple[int, ...]]]]:
        """Ensure current-epoch segments exist for *names*; return specs.

        Each spec carries one expected code crc per shard of *bounds* (or
        ``None`` with attach verification disabled), stamped once per
        ``(column, epoch, bounds)`` from the *canonical* backend memory —
        each task recomputes its own range over the attached segment, so
        bit damage between the two surfaces as a typed shard error and
        walks the degradation ladder.
        """
        verify = integrity_enabled()
        specs: Dict[str, Tuple[str, int, Optional[Tuple[int, ...]]]] = {}
        for name in names:
            key = (namespace, name)
            entry = self._segments.get(key)
            if entry is None or entry[0] != epoch:
                if entry is not None:
                    _unlink_segment(entry[1])
                compressed = backend.compressed_column(name)
                codes = compressed.codes
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, codes.nbytes)
                )
                _ledger_create(shm.name)
                np.ndarray(codes.shape, dtype=np.int64, buffer=shm.buf)[:] = codes
                entry = (epoch, shm, len(codes), compressed.dictionary, {})
                self._segments[key] = entry
            crcs = None
            if verify:
                crcs = entry[4].get(bounds)
                if crcs is None:
                    codes = backend.compressed_column(name).codes
                    crcs = entry[4][bounds] = tuple(
                        codes_checksum(codes[start:stop])
                        for start, stop in bounds
                    )
            specs[name] = (entry[1].name, entry[2], crcs)
        return specs

    def invalidate_namespace(self, namespace: int) -> None:
        """Drop (and unlink) every segment of *namespace*; force re-ship.

        Called after a failed scatter/gather attempt: whatever state the
        workers hold for this table is suspect (a racing unlink may have
        removed a segment under them), so the retry republishes from the
        backend and re-ships to every worker.
        """
        for key in [key for key in self._segments if key[0] == namespace]:
            _unlink_segment(self._segments.pop(key)[1])
        for shipped in self._shipped:
            for token in [t for t in shipped if t[0] == namespace]:
                shipped.discard(token)

    def sabotage(self, namespace: int, flip_byte: Optional[int] = None) -> None:
        """Fault injector: damage one live segment out from under the workers.

        ``flip_byte=None`` unlinks it — an unlink race (an external reclaim,
        a buggy second owner): the name stays in the registry and in flight
        but the file is gone, so the next attach fails mid-query.  An int
        flips one bit of that byte — silent memory corruption: the shard
        whose row range holds the byte no longer matches the crc stamped at
        publish, and its worker must notice before executing over it.
        Either way the attempt fails with a typed error and the resilience
        ladder republishes and retries.
        """
        for (ns, _name), entry in self._segments.items():
            if ns == namespace:
                if flip_byte is None:
                    _unlink_segment(entry[1])
                else:
                    entry[1].buf[flip_byte] ^= 0x01
                return

    def ship_list(self, worker: int, namespace: int, epoch: int,
                  specs: Dict[str, Tuple[str, int, Any]]) -> List[Tuple]:
        """The (column, segment, dictionary) payloads *worker* still lacks."""
        ship: List[Tuple] = []
        for name, (shm_name, length, _crcs) in specs.items():
            token = (namespace, name, epoch)
            if token in self._shipped[worker]:
                continue
            dictionary = self._segments[(namespace, name)][3]
            ship.append((name, shm_name, length, dictionary))
            self._shipped[worker].add(token)
        return ship

    def run(self, tasks: Sequence[Dict[str, Any]],
            timeout_s: float) -> Dict[int, Dict[str, Any]]:
        """Scatter *tasks* (each pre-assigned a worker) and gather by id.

        The gather loop polls: every :data:`_POLL_INTERVAL_S` it checks the
        query deadline (expiry abandons the outstanding workers, repairs
        them and raises :class:`~repro.errors.QueryTimeoutError`), worker
        liveness (a death fails fast — no waiting out the full timeout) and
        the gather timeout (a wedge terminates and replaces the suspects).
        Results are filtered by run id, so stragglers from an abandoned
        attempt cannot satisfy — or corrupt — a later gather.
        """
        run_id = next(self._run_ids)
        outstanding: Dict[int, int] = {}
        for task in tasks:
            index = task["worker"]
            process, task_queue = self._workers[index]
            if not process.is_alive():
                self.replace_worker(index)
                raise ShardExecutionError(
                    "shard worker died before dispatch"
                )
            task["run_id"] = run_id
            try:
                blob = pickle.dumps(task)
            except Exception as error:
                raise ShardExecutionError(
                    f"unpicklable shard task: {error!r}"
                ) from error
            task_queue.put(blob)
            outstanding[task["task_id"]] = index
        gathered: Dict[int, Dict[str, Any]] = {}
        end = time.monotonic() + timeout_s
        while outstanding:
            remaining = deadline_remaining()
            if remaining is not None and remaining <= 0.0:
                self._abandon(outstanding)
                deadline_check()  # raises QueryTimeoutError
            poll = min(_POLL_INTERVAL_S, max(0.001, end - time.monotonic()))
            if remaining is not None:
                poll = min(poll, max(0.001, remaining))
            try:
                result = pickle.loads(self._results.get(timeout=poll))
            except queue_module.Empty:
                dead = sorted({
                    index for index in outstanding.values()
                    if not self._workers[index][0].is_alive()
                })
                if dead:
                    for index in dead:
                        self.replace_worker(index)
                    raise ShardExecutionError(
                        f"shard worker died mid-shard "
                        f"(replaced {len(dead)} worker(s))"
                    )
                if time.monotonic() >= end:
                    self._abandon(outstanding)
                    raise ShardExecutionError(
                        f"shard gather timed out after {timeout_s:.1f}s "
                        f"(wedged worker(s) replaced)"
                    )
                continue
            if result.get("run_id") != run_id:
                continue  # straggler from an abandoned attempt
            error = result.get("error")
            if error is not None:
                raise ShardExecutionError(f"shard worker failed: {error}")
            gathered[result["task_id"]] = result
            outstanding.pop(result["task_id"], None)
        return gathered

    def _abandon(self, outstanding: Dict[int, int]) -> None:
        """Give up on *outstanding* tasks: replace the workers holding them.

        A worker that still owes a result is either wedged or about to
        produce a result for an attempt nobody waits on anymore; either way
        the safe move is terminate-and-replace (run-id filtering discards
        anything it already queued).
        """
        for index in sorted(set(outstanding.values())):
            self.replace_worker(index)
        outstanding.clear()

    def shutdown(self) -> None:
        for _process, task_queue in self._workers:
            _teardown("worker stop signal", lambda q=task_queue: q.put(b""))
        for process, task_queue in self._workers:
            self._reap(process, task_queue, grace_s=2.0)
        _teardown("result queue close", self._results.close)
        _teardown("result queue join-thread", self._results.cancel_join_thread)
        for entry in self._segments.values():
            _unlink_segment(entry[1])
        self._segments.clear()
        self._workers = []
        self._shipped = []


_POOL: Optional[ShardWorkerPool] = None


def _default_start_method() -> str:
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def get_worker_pool(start_method: Optional[str] = None) -> ShardWorkerPool:
    """The process-wide pool, (re)created lazily with ``shard_fan_out`` workers.

    Passing a different *start_method* (the spawn determinism smoke test)
    replaces the current pool; passing ``None`` keeps the current pool
    whatever its method.  Dead workers are *repaired individually* — the
    pool itself survives worker deaths; only a start-method change or an
    explicit :func:`shutdown_worker_pool` tears it down.
    """
    global _POOL
    if _POOL is not None and start_method not in (None, _POOL.start_method):
        shutdown_worker_pool()
    if _POOL is not None:
        _POOL.repair()
    else:
        _POOL = ShardWorkerPool(
            num_workers=_SHARD_FAN_OUT,
            start_method=start_method or _default_start_method(),
        )
    return _POOL


def shutdown_worker_pool() -> None:
    """Stop the workers and unlink every shared segment (idempotent)."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


def _shutdown_and_audit() -> None:
    shutdown_worker_pool()
    audit_shared_segments()


atexit.register(_shutdown_and_audit)


# -- parent-side scatter/gather --------------------------------------------------------


def _backoff_delay(attempt: int) -> float:
    """Bounded exponential backoff with deterministic jitter, in seconds.

    *attempt* is 1 for the first retry.  The jitter keeps retries of
    concurrent sessions from synchronising; drawing it from a seeded RNG
    keeps runs reproducible.
    """
    base = current().resilience.backoff_s * (2.0 ** (attempt - 1))
    return min(_RETRY_BACKOFF_CAP_S, base) * (0.5 + 0.5 * _BACKOFF_RNG.random())


def _inject_process_faults(tasks: List[Dict[str, Any]]) -> None:
    """Arm any requested worker-side process faults on the first task.

    Checked once per attempt: a one-shot plan sabotages only the first
    attempt (the retry heals), an ``every_hit`` plan sabotages every attempt
    (the query degrades to serial).
    """
    if not tasks:
        return
    if process_fault("shard.worker.kill"):
        tasks[0]["fault"] = "kill"
    elif process_fault("shard.worker.hang"):
        tasks[0]["fault"] = "hang"
    elif process_fault("shard.result.poison"):
        tasks[0]["fault"] = "poison"


def _scatter_gather(backend: ColumnStoreTable, query: Query,
                    decision: ShardDecision, kind: str,
                    columns: Sequence[str]) -> List[Dict[str, Any]]:
    """Dispatch one task per shard and return results in shard order.

    Walks the retry rung of the degradation ladder: up to
    ``shard_config(max_attempts=...)`` attempts, separated by bounded
    exponential backoff with jitter.  Between attempts the pool is repaired
    (dead/wedged workers replaced — never the whole crew) and the table's
    segments invalidated, so the retry republishes and re-ships.  Raises
    :class:`ShardExecutionError` (with ``.attempts``) when the budget is
    exhausted; a :class:`~repro.errors.QueryTimeoutError` from the query
    deadline propagates immediately — deadlines don't retry.
    """
    pool = get_worker_pool()
    namespace = _backend_namespace(backend)
    epoch = backend.zone_epoch
    num_rows = decision.bounds[-1][1] if decision.bounds else 0
    timeout_s = gather_timeout_for(num_rows)
    attempts = max(1, current().resilience.max_attempts)
    last_error: Optional[ShardExecutionError] = None
    for attempt in range(1, attempts + 1):
        deadline_check()
        if attempt > 1:
            current().counters.shard_retries += 1
            pool.repair()
            pool.invalidate_namespace(namespace)
            time.sleep(min(_backoff_delay(attempt - 1),
                           deadline_remaining() or float("inf")))
            deadline_check()
        try:
            specs = pool.publish(namespace, epoch, backend, columns,
                                 decision.bounds)
            if process_fault("shard.shm.unlink_race"):
                pool.sabotage(namespace)
            if process_fault("shard.shm.bit_flip"):
                pool.sabotage(namespace, active_plan().flip_byte)
            tasks = []
            for index, (start, stop) in enumerate(decision.bounds):
                worker = index % pool.num_workers
                tasks.append({
                    "kind": kind, "task_id": index, "worker": worker,
                    "namespace": namespace, "epoch": epoch,
                    "ship": pool.ship_list(worker, namespace, epoch, specs),
                    "columns": list(columns), "start": start, "stop": stop,
                    "query": query,
                    "checksums": {
                        name: spec[2][index] for name, spec in specs.items()
                        if spec[2] is not None
                    },
                })
            _inject_process_faults(tasks)
            gathered = pool.run(tasks, timeout_s)
            return [gathered[index] for index in range(len(decision.bounds))]
        except ShardExecutionError as error:
            last_error = error
            continue
    raise ShardExecutionError(
        f"sharded execution failed after {attempts} attempt(s): {last_error}",
        attempts=attempts,
    ) from last_error


def _record_degradation(accountant: CostAccountant, table_name: str,
                        reason: str, attempts: int) -> None:
    """Count and describe one walk down the ladder to the serial rung."""
    current().counters.shard_degradations += 1
    retry = f"retry x{attempts - 1} -> " if attempts > 1 else ""
    accountant.record_degradation(
        table_name, f"shard-parallel -> {retry}serial ({reason})"
    )


def _gather_shards(path, query: Query, kind: str, columns: Sequence[str],
                   accountant: CostAccountant) -> Optional[List[Dict[str, Any]]]:
    """Per-shard results of *query*, or ``None`` to run serially.

    ``None`` means the query was ineligible *or* exhausted the retry budget
    — the degradation (if any) is recorded on the accountant, nothing is
    charged; a deadline expiry raises instead.
    """
    decision = path.shard_decision_for(query)
    if not decision.sharded:
        return None
    try:
        return _scatter_gather(
            path.table.backend, query, decision, kind, list(columns)
        )
    except ShardExecutionError as error:
        _record_degradation(accountant, path.table.name, str(error),
                            error.attempts)
        return None


def _record_shards(accountant: CostAccountant, table_name: str,
                   results: List[Dict[str, Any]]) -> None:
    accountant.record_shard_execution(
        table_name, len(results),
        tuple((result["scanned"], result["matched"]) for result in results),
    )


def try_sharded_aggregation(path, query: AggregationQuery,
                            base_columns: Sequence[str],
                            accountant: CostAccountant) -> Optional[List[Dict[str, Any]]]:
    """Sharded grouped/ungrouped aggregation, or ``None`` to run serially.

    Scatter, gather and merge complete before the first charge lands; the
    collect-then-reduce is then billed from the gathered counts, in the
    serial call order, so a fallback can never leave a partial bill behind.
    """
    results = _gather_shards(path, query, "agg", base_columns, accountant)
    if results is None:
        return None
    table = path.table
    try:
        rows = merge_partition_partials(
            query.aggregates, list(query.group_by),
            [result["partials"] for result in results],
        )
    except TypeError:
        _record_degradation(accountant, table.name,
                            "unorderable partial merge", 1)
        return None
    from repro.engine.executor.operators import charge_aggregation
    matched = sum(result["matched"] for result in results)
    accountant.count_partition(table.name, scanned=True)
    if query.predicate is not None:
        table.backend.charge_filter_scan(query.predicate, accountant)
    for name in base_columns:
        table.backend.charge_column_read(
            name, None if query.predicate is None else matched, accountant
        )
    charge_aggregation(query, matched, accountant)
    _record_shards(accountant, table.name, results)
    return rows


def try_sharded_select(path, query: SelectQuery,
                       accountant: CostAccountant) -> Optional[List[Dict[str, Any]]]:
    """Sharded filtered selection, or ``None`` to run serially.

    Workers return global match positions; the parent concatenates them in
    shard order (== ascending row order), applies the limit and performs the
    row fetch itself — the scan is billed without being re-run, then
    ``fetch_rows`` bills and materialises exactly as the serial path does.
    """
    results = _gather_shards(
        path, query, "select", sorted(query.predicate.columns()), accountant
    )
    if results is None:
        return None
    table = path.table
    positions = np.concatenate(
        [result["positions"] for result in results]
    ).astype(np.int64)
    accountant.count_partition(table.name, scanned=True)
    table.backend.charge_filter_scan(query.predicate, accountant)
    if query.limit is not None:
        positions = positions[: query.limit]
    rows = table.fetch_rows(positions, list(query.columns) or None, accountant)
    _record_shards(accountant, table.name, results)
    return rows
