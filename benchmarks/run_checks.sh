#!/usr/bin/env sh
# Full verification gate in one command.  Each stage announces itself with
# an `echo` line below; what those lines do not say:
#
#   tier-1     — pytest from the repo root, exactly the ROADMAP command; every
#                marker suite below also runs inside it (the standalone runs
#                prove the markers select what they claim).
#   perf/bench — wall-clock gates against BENCH_pipeline.json: any scenario
#                regressing >2x fails, and the `--fail-under` list gates live
#                speedups over each fast path's reference.  The shard
#                `*_sim_ms` entries are *simulated* projections; the
#                delta_insert gate doubles as the checksum-overhead guard.
#   calibrate  — informational, never fails: re-measures the shard wall-clock
#                gate's five constants next to the committed values.
#   ledger     — seconds-long source check of the one-home rules: fails if a
#                deleted charge twin reappears under src/, or if shard.py /
#                matview.py / executor/access.py call a primitive
#                `accountant.charge_*` instead of a single-home function
#                (charge_filter_scan, charge_column_read, charge_tuple_read,
#                charge_aggregation); and likewise if a deleted spelling of
#                the prunable unit (the one definition is zonemap.ZoneUnit via
#                `zone_units()`) or an install/restore policy setter
#                reappears, or anything under src/ outside engine/zonemap.py
#                calls zone_can_match( / zone_must_match( instead of asking a
#                unit; and if a per-subsystem counter class, baseline or
#                scoped setter replaced by engine/context.py reappears, or a
#                `global` statement shows up under src/repro/engine outside
#                the three modules that own process-wide state by nature
#                (toggle.py: the settings epoch; context.py: the current
#                context; shard.py: the pool and the two planner knobs);
#                and if the view subsystem's second executor (per-unit
#                partials, its own collect/recompute) or the shard-key advice
#                the engine cannot apply reappears, src/repro/api/ builds a
#                CostAccountant by hand, or engine/matview.py imports the
#                executor's internals (a view may call the executor, never
#                be one); and if `LogicalPlan` / `planner.logical(` (a query
#                and its literal-bearing fingerprint, rebuilt per statement
#                for the plan-cache key) reappears — the key is the
#                statement's shape; and if a grouped aggregate renumbers its
#                rows again (`group_of_row`, a `rank[...]` gather over the
#                codes or the inverse) — the group ids are reduced as they
#                come, only the K groups are ordered; and if anything under
#                src/ outside engine/compression.py assigns a column's
#                `._codes` or `._derived` or writes through `.codes[...]` —
#                a column's derived state (position index, group summary,
#                float weights) is dropped by the column's own mutators,
#                which is sufficient only while they are the only writers of
#                the codes and of that slot; and if api/binder.py
#                calls `replace(` (bound nodes are built by their
#                constructors) or `_Binder` calls `statement_parameters(`
#                (the placeholders come with the resolution, from its one
#                walk); and if a per-row load spelling comes back — a
#                `row.get(...) for row in rows` gather in engine/schema.py,
#                an `.evaluate(` routing rows in engine/partitioning.py, or
#                the deleted row-at-a-time loaders (`bulk_load_columns`,
#                `_load_main`, `_load_columns_trusted`): rows become columns
#                once, and every store loads columns; and if engine/zonemap.py,
#                engine/batch.py, engine/column_store.py or engine/row_store.py
#                read a leaf's fields (`predicate.op`, `.value`, `.low`,
#                `.high`, `.include_low`, `.include_high`, `.values`) or name a
#                CompareOp, or a deleted per-kind leaf function comes back —
#                what a leaf matches is query/ranges.py's `ranges_of`, and
#                every consumer is an interval operation over it; and if a
#                definition deleted for having no caller is defined again;
#                and if the whole-log scan (`_scan_log`, `_LogScan`) is
#                defined again or engine/wal.py logs a load as row dicts
#                (`dict(row) for row in`) — the log is read one record at a
#                time, and a load is logged as the columns it loaded; and if
#                "duplicate primary key" appears under src/ outside
#                engine/indexes.py, engine/database.py calls `log_dml(` more
#                than once, or `_update_main` is defined again — a table's
#                keys have one rule (indexes.check_new_keys), checked before
#                any part changes, so a statement that raises changes
#                nothing and only statements that succeeded are logged; and
#                if the unreferenced `holds_null` reappears under src/, or
#                `hot_active` in engine/executor/rewrite.py — a partitioned
#                collect stacks its parts through ColumnBatch.concat, which
#                keeps them in main's code domain where main's dictionary
#                holds every value, instead of switching main to values; and
#                if `_minmax_is_order_dependent`, `_partial_merge_safe` or an
#                "order-dependent" NaN deferral reappears under src/ — every
#                aggregation tier keeps the one float order of
#                query/ranges.py (`group_key`, `least`, `greatest`), so no
#                NaN sends a query to another tier.
#   fuzz       — the seeded differentials: every fast path vs its toggled
#                reference, on rows, CostBreakdown totals and charge order.
#   faults / resilience / integrity — crash points, process faults and
#                corruption: recovery lands on the committed prefix; every
#                fault yields rows and charges bit-identical to the serial
#                reference; corrupt units are quarantined, never served.
#
# Usage, from the repository root or this directory:
#   benchmarks/run_checks.sh
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "== tier-1: full suite =="
python -m pytest -x -q

echo "== perf smoke: BENCH_pipeline.json + plan-cache gates =="
python -m pytest -m perf -q benchmarks

echo "== bench comparator: committed BENCH_pipeline.json baseline =="
python benchmarks/compare_bench.py \
    --fail-under grouped_agg_pushdown_100k_ms=20 \
    --fail-under minmax_zero_scan_100k_ms=20 \
    --fail-under delta_insert_100k_ms=5 \
    --fail-under shard_grouped_agg_1m_sim_ms=2 \
    --fail-under shard_scan_1m_sim_ms=2 \
    --fail-under matview_grouped_agg_100k_ms=5

echo "== calibrate: shard wall-clock gate constants (informational) =="
python benchmarks/calibrate_shard_wall.py || echo "calibration did not run (ignored)"

echo "== matview: materialized-view suite + serve-vs-recompute gates =="
python -m pytest -m matview -q tests benchmarks

echo "== shard: scatter/gather differential + projection gates =="
python -m pytest -m shard -q tests benchmarks

echo "== ledger: one home per charge, one prunable unit, one execution context, one executor, one statement path, no per-row group renumbering, one writer of the codes, one binder, one columnar load path, one leaf meaning, one log record at a time, one key rule, one code domain per table, one float order =="
deleted='compile_code_leaves|_DRY_MASK|charge_column_scan|_charge_pruned_main_update|_charge_main_positions|validate_assignments|_answers_from_index'
if grep -rnE --include='*.py' "$deleted" src/; then
    echo "ledger: a deleted charge twin is back (see above)"; exit 1
fi
if grep -nE 'accountant\.charge_' src/repro/engine/shard.py \
        src/repro/engine/matview.py src/repro/engine/executor/access.py; then
    echo "ledger: primitive charge outside its single-home function (see above)"; exit 1
fi
deleted='AggregateUnit|aggregate_units|partition_zone_units|part_zones|apply_resilience_config|apply_integrity_config'
if grep -rnE --include='*.py' "$deleted" src/; then
    echo "ledger: a deleted unit spelling or policy installer is back (see above)"; exit 1
fi
if grep -rnE --include='*.py' 'zone_(can|must)_match\(' src/ \
        | grep -v '^src/repro/engine/zonemap\.py:'; then
    echo "ledger: zone verdict asked outside ZoneUnit (see above)"; exit 1
fi
deleted='ResilienceCounters|IntegrityCounters|resilience_counters|integrity_counters|_under_policy|_resilience_baseline|_integrity_baseline|active_deadline|ReproConfig'
if grep -rnE --include='*.py' "$deleted" src/; then
    echo "ledger: a counter singleton, baseline or setter replaced by engine/context.py is back (see above)"; exit 1
fi
if grep -rnE --include='*.py' '^\s*global ' src/repro/engine \
        | grep -vE '^src/repro/engine/(toggle\.py:.*global _SETTINGS_EPOCH|context\.py:.*global _CURRENT|shard\.py:.*global (_POOL|_SHARD_FAN_OUT, _SHARD_MIN_ROWS))$'; then
    echo "ledger: a new scoped module global under src/repro/engine (see above) — put it on ExecutionContext"; exit 1
fi
deleted='_unit_partials|_collect_unit|_recompute_full|REFRESH_INCREMENTAL|units_reused|units_recomputed|recommend_shard_keys|ShardKeyRecommendation|matview\.refresh\.after_unit'
if grep -rnE --include='*.py' "$deleted" src/; then
    echo "ledger: the view subsystem's second executor or the shard-key advice is back (see above)"; exit 1
fi
if grep -rnE --include='*.py' 'CostAccountant\(' src/repro/api/; then
    echo "ledger: the api layer bills by hand (see above) — bills are assembled under src/repro/engine"; exit 1
fi
if grep -nE '^\s*(from|import) +repro\.engine\.executor\.(aggregates|rewrite|access|agg_pushdown)\b' \
        src/repro/engine/matview.py; then
    echo "ledger: matview.py imports executor internals (see above) — a view may call the executor, never be one"; exit 1
fi
if grep -rnE --include='*.py' 'LogicalPlan|planner\.logical\(' src/; then
    echo "ledger: the per-statement LogicalPlan is back (see above) — plans are keyed by statement shape"; exit 1
fi
if grep -rnE --include='*.py' 'group_of_row|_GroupOrdering|rank\[(codes|inverse|ids)\]' src/; then
    echo "ledger: the per-row group renumbering is back (see above) — reduce over the ids as they come (aggregates._Groups)"; exit 1
fi
if grep -rnE --include='*.py' '\._codes *([-+*|&^]|<<|>>)?=[^=]|\.codes\[[^]]*\] *([-+*|&^]|<<|>>)?=[^=]|\._derived *=[^=]' src/ \
        | grep -v '^src/repro/engine/compression\.py:'; then
    echo "ledger: a column's codes or derived state are written outside engine/compression.py (see above) — go through a CompressedColumn mutator, they drop the column's derived state"; exit 1
fi
if grep -nE '\breplace\(' src/repro/api/binder.py; then
    echo "ledger: the binder copies a node with replace() (see above) — bound nodes are built by their constructors"; exit 1
fi
if awk '/^class _Binder/ {inside = 1; next} /^[^[:space:]#]/ {inside = 0} inside' src/repro/api/binder.py \
        | grep -n 'statement_parameters('; then
    echo "ledger: _Binder walks the statement for its placeholders again (see above) — they come with the resolution"; exit 1
fi
if grep -nE 'row\.get\([^)]*\) for row in rows' src/repro/engine/schema.py \
        || grep -nE '\.evaluate\(' src/repro/engine/partitioning.py \
        || grep -rnE --include='*.py' 'bulk_load_columns|_load_main\b|_load_columns_trusted' src/; then
    echo "ledger: a per-row load spelling is back (see above) — rows become columns once (TableSchema.gather_columns) and every store loads columns"; exit 1
fi
if grep -nE 'predicate\.(op|value|low|high|include_low|include_high|values)\b|CompareOp' \
        src/repro/engine/zonemap.py src/repro/engine/batch.py \
        src/repro/engine/column_store.py src/repro/engine/row_store.py; then
    echo "ledger: an engine consumer decides a leaf's meaning itself (see above) — ask repro.query.ranges.ranges_of"; exit 1
fi
deleted='_comparison_can_match|_between_can_match|_in_list_can_match|_comparison_must_match|_between_must_match|_in_list_must_match|_translate_leaf'
if grep -rnE --include='*.py' "$deleted" src/; then
    echo "ledger: a per-kind leaf function is back (see above) — consumers are interval operations over ranges_of"; exit 1
fi
deleted='is_point|code_domain_enabled|column_code_width|new_null|decode_many|charge_ns|all_statistics|partitioning_of|has_hot_partition|total_s|num_attributes|estimated_improvement_vs_column|estimated_ms_chosen|recommend_table_level|log_remove_partitioning'
if grep -rnE --include='*.py' "def ($deleted)\b" src/ \
        || ls src/repro/core/cost_model/adjustments.py 2>/dev/null; then
    echo "ledger: a definition deleted for having no caller is back (see above)"; exit 1
fi
if grep -rnE --include='*.py' '(def|class) +(_scan_log|_LogScan)\b' src/ \
        || grep -nF 'dict(row) for row in' src/repro/engine/wal.py; then
    echo "ledger: the whole-log scan or a row-dict load record is back (see above) — the log is read one record at a time (wal._LogReader), and a load is logged as its columns"; exit 1
fi
if grep -rn --include='*.py' 'duplicate primary key' src/ \
        | grep -v '^src/repro/engine/indexes\.py:'; then
    echo "ledger: the duplicate-key error is raised outside indexes.check_new_keys (see above) — a table's keys have one rule"; exit 1
fi
if [ "$(grep -c 'log_dml(' src/repro/engine/database.py)" -gt 1 ]; then
    grep -n 'log_dml(' src/repro/engine/database.py
    echo "ledger: engine/database.py logs DML in more than one place (see above) — only a statement that succeeded is logged"; exit 1
fi
if grep -rnE --include='*.py' '(def|class) +_update_main\b' src/; then
    echo "ledger: _update_main is back (see above) — a partitioned UPDATE derives every part's positions before any part changes"; exit 1
fi
if grep -rn --include='*.py' 'holds_null' src/ \
        || grep -n 'hot_active' src/repro/engine/executor/rewrite.py; then
    echo "ledger: holds_null or the hot_active case is back (see above) — a table's parts meet in main's code domain (ColumnBatch.concat), with no per-path representation switch"; exit 1
fi
if grep -rnE --include='*.py' '_minmax_is_order_dependent|_partial_merge_safe|order-dependent' src/; then
    echo "ledger: a NaN deferral is back (see above) — every aggregation tier keeps the one float order of query/ranges.py"; exit 1
fi
echo "ledger clean."

echo "== fuzz: differential suites =="
python -m pytest -m fuzz -q tests

echo "== faults: crash-point recovery suite =="
python -m pytest -m faultinject -q tests

echo "== resilience: process-fault matrix + supervised pool + deadlines =="
python -m pytest -m resilience -q tests

echo "== integrity: corruption matrix + scrub/quarantine/repair =="
python -m pytest -m integrity -q tests

echo "== examples: session API smoke =="
python examples/session_api.py > /dev/null
python examples/quickstart.py > /dev/null
echo "examples ran clean."

echo "All checks passed."
