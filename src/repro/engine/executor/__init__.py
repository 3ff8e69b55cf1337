"""Query execution: access paths, operators, joins and the executor.

Architecture note — the columnar batch pipeline
===============================================

Read queries flow through the executor as **columnar batches**
(:class:`~repro.engine.batch.ColumnBatch`), not as lists of row dicts.  A
batch column is either a plain numpy value array or — for dictionary-
compressed column-store data — an :class:`~repro.engine.batch.EncodedColumn`
``(codes, dictionary)`` pair carried through the pipeline undecoded (**late
materialization**):

* the row store serves cached per-column views of its tuples; the column
  store hands out its int64 code arrays with the sorted dictionary attached
  — no fancy-indexing decode gather on the scan path;
* access paths (:class:`SimpleAccessPath`, :class:`PartitionedAccessPath`)
  expose :meth:`~AccessPath.collect_batch`, concatenating partition segments
  columnarly (segments sharing a dictionary concatenate codes; mixed
  representations decode first);
* the operators consume batches in whichever representation they carry:
  group-bys use an encoded key's codes directly as dense group ids (one
  ``bincount``, first-occurrence renumbering, no ``np.unique`` re-sort of
  decoded strings) and decode one key value per *group*; hash joins probe
  int64 code arrays when both sides share a dictionary, resolve each
  probe-dictionary value once otherwise, and fall back to value arrays for
  plain columns; encoded aggregate *inputs* reduce in the dictionary domain
  (``SUM`` as ``bincount(codes) · decoded(dictionary)``, ``MIN``/``MAX``
  over the codes) — O(|dictionary|) instead of O(rows) decoded values;
* filtered column-store scans run in the **code domain** end-to-end:
  :func:`~repro.engine.column_store.translate_code_predicate` translates
  ``EQ/NE/LT/LE/GT/GE``, ``BETWEEN``, ``IN``, ``IS NULL`` and any
  ``AND``/``OR``/``NOT`` combination into code intervals and memberships via
  ``bisect`` on the sorted dictionary (NULL's reserved code 0 and NaN's
  last-code convention respected), applied as vectorized int64
  comparisons — no value decodes; predicates outside the translator's reach
  take the decode-and-compare fallback
  (:func:`~repro.engine.batch.vectorized_value_mask`);
* values materialise only at the :class:`QueryResult` boundary
  (``fetch_rows`` / ``ColumnBatch.to_rows``) — an aggregation over a
  100k-row table never builds an intermediate row dict and never decodes its
  group-key column.

Zone maps and plan-driven scans
===============================

Every storage backend keeps per-column **zone synopses** (min/max,
null count, NaN presence — :mod:`repro.engine.zonemap`), maintained under
DML via zone epochs: inserts keep them cheap incrementally (the row store
widens its cached zones with just the appended values; the column store's
bounds come from the insert-maintained dictionary and a running per-column
null count), while updates and deletes invalidate, and the next consult
rebuilds — re-tightening a range deletes shrank.  When the executor resolves a query's access paths it
derives a :class:`~repro.engine.zonemap.ScanDecision` per filtered base
table: partitions whose zones prove the predicate cannot match are skipped
before a single code or tuple is touched (the hot and main portions of a
:class:`PartitionedAccessPath` prune independently).  The session planner
embeds the *same* decision object in the physical plan, execution re-derives
it only once it is stale (DML, a toggle flip, or a bound parameter refining a
template — the one freshness rule of :mod:`repro.engine.executor.access`), and ``EXPLAIN ANALYZE`` reports the per-table partitions
scanned/skipped counters — plan and execution provably coincide.  Skipped
partitions charge nothing ("actuals reflect rows actually touched"); the
cost model mirrors the pruning on the estimate side through the catalog's
min/max statistics.

Aggregate pushdown
==================

Aggregation executes as far down the storage stack as the query allows
(:mod:`repro.engine.executor.agg_pushdown`), in one of four tiers chosen at
*plan* time from the query shape and the zone synopses, recorded as an
:class:`~repro.engine.executor.agg_pushdown.AggregateStrategy` in the
physical plan (kept under the same freshness rule as a ``ScanDecision``) and
reported by ``EXPLAIN [ANALYZE]``:

* **zero-scan** — ungrouped ``COUNT(*)``/``COUNT(col)``/``MIN``/``MAX``
  whose predicate is absent or provably all-true/all-false per partition are
  answered from the zone synopses and row/null counts; nothing is decoded
  and nothing is reduced (the scan is still executed and billed — this tier
  has no skip yet, see the ROADMAP item "One oracle, one state machine,
  zero inlined references", part (c));
* **partition-partial** — partitioned tables aggregate each partition
  independently and merge the per-partition states associatively (``AVG``
  travels as ``(sum, count)``): zone-pruned partitions contribute nothing
  and partition batches are never concatenated, so the main portion's codes
  stay encoded next to a populated hot partition;
* **code-domain** — unpartitioned column-store aggregation on dictionary
  codes (the batch-pipeline kernels above);
* **operator** — the generic reference: joins, row-store bases, undecidable
  predicates, and everything under ``aggregate_pushdown_disabled()``.

One home per charge
===================

Every simulated-clock charge is computed in exactly one function, from the
table's *shape*, the predicate's *translation verdict* and *row counts* —
never from a value: ``ColumnStoreTable.charge_filter_scan`` /
``charge_column_read``, ``RowStoreTable.charge_tuple_read`` and
:func:`~repro.engine.executor.operators.charge_aggregation`.  The rule for
every executor is **bill, then fetch or skip**: the ordinary read bills and
then fetches; a fast path that already knows the counts calls the same
function and skips the fetch — the shard gather bills with Σ matched, and an
UPDATE/DELETE whose ``ScanDecision`` proves the scan empty passes the proof
down to ``filter_positions`` and is otherwise the ordinary statement (SET
values validated, zero rows touched, no side effects).  Nothing re-enacts
another path's accounting by hand.

The batch pipeline is purely a wall-clock optimisation of the simulator:
every :class:`~repro.engine.timing.CostAccountant` charge is identical to the
scalar row-at-a-time pipeline (same components, same amounts, same order) —
including the per-value decode charges of scans whose decode never physically
happens — so the advisor's estimated-vs-measured calibration is unaffected.
Value mixes numpy cannot express (NULLs in object columns, unsortable
group keys) fall back to the scalar implementations, which remain the
semantic reference; both keep the one float order of
:mod:`repro.query.ranges`, and the cross-store differential fuzz suite
(``tests/engine/test_differential_fuzz.py``) pins the equivalence.
"""

from repro.engine.batch import ColumnBatch, EncodedColumn
from repro.engine.executor.access import AccessPath, SimpleAccessPath
from repro.engine.executor.executor import QueryExecutor, QueryResult
from repro.engine.executor.rewrite import PartitionedAccessPath, access_path_for

__all__ = [
    "AccessPath",
    "ColumnBatch",
    "EncodedColumn",
    "PartitionedAccessPath",
    "QueryExecutor",
    "QueryResult",
    "SimpleAccessPath",
    "access_path_for",
]
