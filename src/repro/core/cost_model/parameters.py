"""Cost-model parameters: per-store, per-query-type base costs and weights.

The estimator (:mod:`repro.core.cost_model.estimator`) describes every query
as a set of *cost terms* — named quantities of work such as sequentially
scanned bytes, dictionary decodes, tuple reconstructions or hash probes,
derived only from query and data characteristics.  The parameters map each
term to a per-unit cost (nanoseconds).  One :class:`CostTermWeights` vector
exists per ``(store, query type)`` pair, mirroring the paper's store-specific
base costs and adjustment functions (``BaseSUMCosts^RS``, ``c^CS_groupBy``,
...).

Two ways to obtain parameters:

* :func:`analytic_parameters` derives them directly from the engine's device
  model — the "cheap" offline default; and
* :class:`~repro.core.cost_model.calibration.CostModelCalibrator` measures
  representative queries on the running system and fits the weights, which is
  the paper's "initialize cost model" step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.config import DeviceModelConfig
from repro.engine.types import Store
from repro.query.ast import QueryType

#: The cost-term vocabulary shared by the estimator and the calibrator.
COST_TERMS: Tuple[str, ...] = (
    "row_scan_bytes",        # sequentially scanned row-store bytes
    "column_scan_bytes",     # sequentially scanned compressed column bytes
    "decodes",               # dictionary decodes
    "vector_compares",       # vectorised comparisons on compressed codes
    "pred_evals",            # row-at-a-time predicate evaluations
    "reconstructions",       # tuple-reconstruction cell accesses
    "random_fetches",        # random row accesses (row store)
    "index_probes",          # index / dictionary probes
    "agg_updates",           # aggregate accumulator updates
    "group_rows",            # rows pushed through a GROUP BY hash table
    "join_build_rows",       # hash-join build-side rows
    "join_probe_rows",       # hash-join probe-side rows
    "conversion_cells",      # cross-store layout-conversion cells
    "insert_rows",           # inserted rows (index maintenance, appends)
    "insert_bytes",          # appended row-store bytes
    "insert_cells",          # inserted column-store cells
    "update_cells",          # updated cells
    "queries",               # fixed per-query overhead
)


@dataclass
class CostTermWeights:
    """Per-unit costs (nanoseconds) for one ``(store, query type)`` pair."""

    weights: Dict[str, float] = field(default_factory=dict)

    def cost_ns(self, terms: Mapping[str, float]) -> float:
        """Dot product of the term quantities with the weights."""
        return sum(self.weights.get(name, 0.0) * value for name, value in terms.items())

    def cost_ms(self, terms: Mapping[str, float]) -> float:
        return self.cost_ns(terms) / 1_000_000.0

    def updated(self, new_weights: Mapping[str, float]) -> "CostTermWeights":
        merged = dict(self.weights)
        merged.update(new_weights)
        return CostTermWeights(merged)

    def to_dict(self) -> Dict[str, float]:
        return dict(self.weights)


@dataclass
class CostModelParameters:
    """The full parameter set of the cost model."""

    per_store_and_type: Dict[Tuple[Store, QueryType], CostTermWeights] = field(
        default_factory=dict
    )

    def weights_for(self, store: Store, query_type: QueryType) -> CostTermWeights:
        key = (store, query_type)
        if key not in self.per_store_and_type:
            self.per_store_and_type[key] = CostTermWeights()
        return self.per_store_and_type[key]

    def set_weights(
        self, store: Store, query_type: QueryType, weights: CostTermWeights
    ) -> None:
        self.per_store_and_type[(store, query_type)] = weights

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            f"{store.value}:{query_type.value}": weights.to_dict()
            for (store, query_type), weights in self.per_store_and_type.items()
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]) -> "CostModelParameters":
        parameters = cls()
        for key, weights in data.items():
            store_name, type_name = key.split(":", 1)
            parameters.set_weights(
                Store(store_name), QueryType(type_name), CostTermWeights(dict(weights))
            )
        return parameters


def analytic_parameters(
    device_config: Optional[DeviceModelConfig] = None,
) -> CostModelParameters:
    """Derive cost-model parameters directly from the device model constants.

    These parameters make the cost model usable without calibration; the
    calibrated parameters replace them once the offline initialisation step
    has run (Section 4, "Initialize cost model").
    """
    config = device_config or DeviceModelConfig()
    base = {
        "row_scan_bytes": config.seq_read_ns_per_byte,
        "column_scan_bytes": config.seq_read_ns_per_byte,
        "decodes": config.dict_decode_ns,
        "vector_compares": config.vector_compare_ns,
        "pred_evals": config.predicate_eval_ns,
        "reconstructions": config.tuple_reconstruct_ns,
        "random_fetches": config.random_access_ns,
        "index_probes": config.hash_probe_ns,
        "agg_updates": config.aggregate_update_ns,
        "group_rows": config.group_by_update_ns,
        "join_build_rows": config.hash_insert_ns,
        "join_probe_rows": config.hash_probe_ns,
        "conversion_cells": config.layout_conversion_ns_per_cell,
        "insert_rows": config.hash_probe_ns + 2 * config.hash_insert_ns,
        "insert_bytes": config.row_append_ns_per_byte,
        "insert_cells": config.cs_insert_value_ns,
        "update_cells": config.row_update_value_ns,
        "queries": config.query_overhead_ns,
    }
    parameters = CostModelParameters()
    for store in Store:
        for query_type in QueryType:
            weights = dict(base)
            if store is Store.COLUMN:
                weights["update_cells"] = config.cs_update_value_ns
            parameters.set_weights(store, query_type, CostTermWeights(weights))
    return parameters
