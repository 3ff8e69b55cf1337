"""Analytic timing model of the hybrid-store engine.

The paper evaluates the storage advisor by measuring wall-clock runtimes on
SAP HANA.  A pure-Python re-implementation cannot reproduce those absolute
numbers — interpreter overhead would dwarf the row-vs-column asymmetries the
advisor reasons about.  Instead, every operator of our engine reports the
primitive work it performs (bytes scanned sequentially, random accesses,
dictionary decodes, hash probes, ...) to a :class:`CostAccountant`, and a
:class:`DeviceModel` converts that work into deterministic simulated time.

Because the counters are produced by *actual* query execution over *actual*
data, the simulated runtimes respond to data volume, compression rate, number
of aggregates, selectivity, and store choice exactly the way the paper's
measurements do, which is what the estimation-accuracy and recommendation
experiments require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.config import DeviceModelConfig

NS_PER_MS = 1_000_000.0


class DeviceModel:
    """Converts primitive work counts into simulated nanoseconds."""

    def __init__(self, config: Optional[DeviceModelConfig] = None) -> None:
        self.config = config or DeviceModelConfig()

    # Each method returns nanoseconds for the given amount of work.

    def sequential_read(self, num_bytes: float) -> float:
        return num_bytes * self.config.seq_read_ns_per_byte

    def random_accesses(self, count: float) -> float:
        return count * self.config.random_access_ns

    def dict_decodes(self, count: float) -> float:
        return count * self.config.dict_decode_ns

    def tuple_reconstructions(self, cells: float) -> float:
        return cells * self.config.tuple_reconstruct_ns

    def predicate_evals(self, count: float) -> float:
        return count * self.config.predicate_eval_ns

    def vector_compares(self, count: float) -> float:
        return count * self.config.vector_compare_ns

    def aggregate_updates(self, count: float) -> float:
        return count * self.config.aggregate_update_ns

    def group_by_updates(self, count: float) -> float:
        return count * self.config.group_by_update_ns

    def hash_inserts(self, count: float) -> float:
        return count * self.config.hash_insert_ns

    def hash_probes(self, count: float) -> float:
        return count * self.config.hash_probe_ns

    def row_appends(self, num_bytes: float) -> float:
        return num_bytes * self.config.row_append_ns_per_byte

    def row_value_updates(self, count: float) -> float:
        return count * self.config.row_update_value_ns

    def cs_value_inserts(self, count: float) -> float:
        return count * self.config.cs_insert_value_ns

    def cs_value_updates(self, count: float) -> float:
        return count * self.config.cs_update_value_ns

    def layout_conversions(self, cells: float) -> float:
        return cells * self.config.layout_conversion_ns_per_cell

    def query_overhead(self) -> float:
        return self.config.query_overhead_ns

    def partition_overhead(self, num_partitions: int) -> float:
        return max(0, num_partitions - 1) * self.config.partition_overhead_ns

    def shard_dispatch(self, fan_out: int) -> float:
        """Scatter/gather overhead of a *fan_out*-way sharded execution.

        Used only by the parallel-runtime projection
        (:func:`repro.engine.shard_gate.projected_parallel_ms`) — never charged
        to a :class:`CostBreakdown`, which stays bit-identical to serial.
        """
        return max(0, fan_out) * self.config.shard_dispatch_ns


@dataclass
class CostBreakdown:
    """Simulated time of one query, broken down by cost component."""

    components: Dict[str, float] = field(default_factory=dict)

    def add(self, component: str, nanoseconds: float) -> None:
        if nanoseconds < 0:
            raise ValueError(f"negative cost for component {component!r}")
        self.components[component] = self.components.get(component, 0.0) + nanoseconds

    def merge(self, other: "CostBreakdown") -> None:
        for component, nanoseconds in other.components.items():
            self.add(component, nanoseconds)

    @property
    def total_ns(self) -> float:
        return sum(self.components.values())

    @property
    def total_ms(self) -> float:
        return self.total_ns / NS_PER_MS

    def component_ms(self, component: str) -> float:
        return self.components.get(component, 0.0) / NS_PER_MS

    def items(self) -> Iterator[tuple]:
        return iter(sorted(self.components.items()))

    def as_dict_ms(self) -> Dict[str, float]:
        return {name: ns / NS_PER_MS for name, ns in self.components.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v / NS_PER_MS:.3f}ms" for k, v in sorted(self.components.items()))
        return f"CostBreakdown(total={self.total_ms:.3f}ms, {parts})"


class CostAccountant:
    """Accumulates the simulated cost of one query execution.

    Operators call the ``charge_*`` helpers; the accountant translates the work
    into nanoseconds with its :class:`DeviceModel` and tags it with a component
    label so that tests and benchmarks can inspect where the time goes.
    """

    def __init__(self, device: Optional[DeviceModel] = None) -> None:
        self.device = device or DeviceModel()
        self.breakdown = CostBreakdown()
        # Telemetry: pure counters and descriptions, never simulated time.
        # An accountant lives for one execution, so its result takes these
        # dicts over as they are; EXPLAIN ANALYZE reports them.
        #: Per-table ``(partitions scanned, partitions skipped)`` — how many
        #: prunable partitions each table's access path scanned vs. skipped
        #: (zone-map pruning), reported next to the plan's predicted pruning.
        self.scan_stats: Dict[str, Tuple[int, int]] = {}
        #: Per-table aggregate-pushdown strategy the execution consumed,
        #: reported next to the plan's recorded strategy.
        self.aggregate_strategies: Dict[str, str] = {}
        #: Per-table ``(main rows, delta rows)`` a scan read from the
        #: dictionary-encoded main vs the write-optimised delta.  The charges
        #: are logical (main + delta) and identical either way; these make
        #: merge pressure visible.
        self.delta_scans: Dict[str, Tuple[int, int]] = {}
        #: Per-table ``(fan_out, ((rows scanned, rows matched), ...))`` of a
        #: sharded scatter/gather execution.  Sharding bills the serial
        #: charges bit-identically.
        self.shard_stats: Dict[str, tuple] = {}
        #: Per-table degradation-ladder walks taken while answering this
        #: query (e.g. "shard-parallel -> retry x1 -> serial (...)").  A
        #: degraded query charges exactly what the serial path charges; this
        #: keeps a silent fallback visible.
        self.degradations: Dict[str, str] = {}

    # -- generic ---------------------------------------------------------------

    def charge_query_overhead(self) -> None:
        self.breakdown.add("query_overhead", self.device.query_overhead())

    def charge_partition_overhead(self, num_partitions: int) -> None:
        self.breakdown.add(
            "partition_overhead", self.device.partition_overhead(num_partitions)
        )

    # -- scans -----------------------------------------------------------------

    def charge_sequential_read(self, component: str, num_bytes: float) -> None:
        self.breakdown.add(component, self.device.sequential_read(num_bytes))

    def charge_random_accesses(self, component: str, count: float) -> None:
        self.breakdown.add(component, self.device.random_accesses(count))

    def charge_dict_decodes(self, count: float) -> None:
        self.breakdown.add("dictionary_decode", self.device.dict_decodes(count))

    def charge_tuple_reconstructions(self, cells: float) -> None:
        self.breakdown.add(
            "tuple_reconstruction", self.device.tuple_reconstructions(cells)
        )

    def charge_predicate_evals(self, count: float) -> None:
        self.breakdown.add("predicate_eval", self.device.predicate_evals(count))

    def charge_vector_compares(self, count: float) -> None:
        self.breakdown.add("vector_compare", self.device.vector_compares(count))

    # -- aggregation and joins ---------------------------------------------------

    def charge_aggregate_updates(self, count: float) -> None:
        self.breakdown.add("aggregate_update", self.device.aggregate_updates(count))

    def charge_group_by_updates(self, count: float) -> None:
        self.breakdown.add("group_by", self.device.group_by_updates(count))

    def charge_hash_inserts(self, component: str, count: float) -> None:
        self.breakdown.add(component, self.device.hash_inserts(count))

    def charge_hash_probes(self, component: str, count: float) -> None:
        self.breakdown.add(component, self.device.hash_probes(count))

    # -- writes ------------------------------------------------------------------

    def charge_row_appends(self, num_bytes: float) -> None:
        self.breakdown.add("row_append", self.device.row_appends(num_bytes))

    def charge_row_value_updates(self, count: float) -> None:
        self.breakdown.add("row_update", self.device.row_value_updates(count))

    def charge_cs_value_inserts(self, count: float) -> None:
        self.breakdown.add("column_insert", self.device.cs_value_inserts(count))

    def charge_cs_value_updates(self, count: float) -> None:
        self.breakdown.add("column_update", self.device.cs_value_updates(count))

    def charge_layout_conversion(self, cells: float) -> None:
        self.breakdown.add("layout_conversion", self.device.layout_conversions(cells))

    # -- index maintenance ---------------------------------------------------------

    def charge_index_probe(self, count: float = 1.0) -> None:
        self.breakdown.add("index_probe", self.device.hash_probes(count))

    def charge_index_insert(self, count: float = 1.0) -> None:
        self.breakdown.add("index_insert", self.device.hash_inserts(count))

    # -- partition telemetry --------------------------------------------------------

    def count_partition(self, table: str, scanned: bool) -> None:
        """Record one partition of *table* as scanned or zone-skipped."""
        done, skipped = self.scan_stats.get(table, (0, 0))
        self.scan_stats[table] = (
            (done + 1, skipped) if scanned else (done, skipped + 1)
        )

    def record_aggregate_strategy(self, table: str, description: str) -> None:
        """Record the aggregate-pushdown strategy consumed for *table*."""
        self.aggregate_strategies[table] = description

    def record_delta_scan(self, table: str, main_rows: int, delta_rows: int) -> None:
        """Record one scan of *table* spanning main and delta rows."""
        main, delta = self.delta_scans.get(table, (0, 0))
        self.delta_scans[table] = (main + main_rows, delta + delta_rows)

    def record_shard_execution(
        self, table: str, fan_out: int, shards: "tuple"
    ) -> None:
        """Record a sharded execution of *table*.

        *shards* holds one ``(rows scanned, rows matched)`` pair per shard in
        shard order.
        """
        self.shard_stats[table] = (fan_out, tuple(shards))

    def record_degradation(self, table: str, description: str) -> None:
        """Record one walk down the degradation ladder for *table*.

        *description* names the rungs walked and the triggering failure,
        e.g. ``"shard-parallel -> retry x1 -> serial (shard worker died)"``.
        """
        self.degradations[table] = description

    # -- results ----------------------------------------------------------------

    @property
    def total_ms(self) -> float:
        return self.breakdown.total_ms

    def snapshot(self) -> Mapping[str, float]:
        """Return a copy of the per-component costs (nanoseconds)."""
        return dict(self.breakdown.components)
