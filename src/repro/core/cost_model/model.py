"""The cost model: estimating query and workload runtimes per store.

``Costs = BaseCosts · QueryAdjustment · DataAdjustment`` (Section 3.1): the
:class:`CostModel` combines the cost terms extracted by the estimator (query
and data characteristics) with its per-store, per-query-type parameters (base
costs) to predict the runtime a query would have in a hypothetical storage
layout — without executing anything.

The model can be constructed from analytic defaults or from the parameters
produced by :class:`~repro.core.cost_model.calibration.CostModelCalibrator`
(the paper's offline "initialize cost model" step).

Invariant against the execution engine: the estimator prices the *model* of
an access path (sequential bytes, decodes, probes, ...), and the engine's
:class:`~repro.engine.timing.CostAccountant` charges that same model during
execution.  Wall-clock rewrites of the engine — the vectorized batch
pipeline, the late-materialized dictionary-code pipeline — must keep the
charged :class:`~repro.engine.timing.CostBreakdown` bit-identical to the
scalar reference (a column scan still charges one dictionary decode per
value even when the codes travel undecoded), otherwise the calibrated
weights and the estimation-accuracy figures silently drift.  The equivalence
is pinned by ``tests/engine/test_late_materialization.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional

import hashlib

from repro.config import DeviceModelConfig
from repro.core.cost_model.estimator import (
    CostContribution,
    TableProfile,
    query_contributions,
)
from repro.core.cost_model.parameters import CostModelParameters, analytic_parameters
from repro.engine.catalog import Catalog
from repro.engine.types import Store
from repro.errors import EstimationError
from repro.query.ast import Query, QueryType
from repro.query.fingerprint import query_fingerprint
from repro.query.workload import Workload

StoreAssignment = Mapping[str, Store]


class EstimateMemo:
    """Shared estimate memo keyed by content fingerprints.

    Keys combine the *query fingerprint* with, per referenced table, the
    hypothetical store and the *statistics fingerprint* — the same keying the
    session plan cache uses — plus a fingerprint of the model parameters the
    estimate was priced under.  Because keys are content-derived (never
    object identities), one memo can safely be shared between cost-model
    instances, between the advisor's enumeration and the session planner, and
    across statistics refreshes that did not change anything.

    The memo is generational: when it reaches *limit* entries it is cleared
    wholesale, which bounds memory in long-running online-monitor loops.
    """

    def __init__(self, limit: int = 100_000) -> None:
        self._entries: Dict[tuple, float] = {}
        self._limit = limit
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: tuple) -> Optional[float]:
        estimate = self._entries.get(key)
        if estimate is not None:
            self.hits += 1
        return estimate

    def put(self, key: tuple, estimate: float) -> None:
        self.misses += 1
        if len(self._entries) >= self._limit:
            self._entries.clear()
        self._entries[key] = estimate

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


@dataclass
class WorkloadEstimate:
    """Estimated runtime of a workload under one store assignment."""

    assignment: Dict[str, Store]
    total_ms: float
    per_query_ms: list = field(default_factory=list)
    per_type_ms: Dict[QueryType, float] = field(default_factory=dict)


class CostModel:
    """Estimates query runtimes for row-store and column-store placements."""

    def __init__(
        self,
        parameters: Optional[CostModelParameters] = None,
        device_config: Optional[DeviceModelConfig] = None,
        memo: Optional[EstimateMemo] = None,
    ) -> None:
        self._parameters = parameters or analytic_parameters(device_config)
        self._parameters_fp = _parameters_fingerprint(self._parameters)
        # Estimate memo keyed by (parameters, query fingerprint, per-table
        # (store, statistics fingerprint)) — see :class:`EstimateMemo`.  The
        # advisor's exhaustive join-group enumeration and per-table cost
        # reports re-estimate the same queries under assignments that only
        # differ for *other* tables; the memo collapses those repeats, and —
        # because the keying is content-based — it is shared with the session
        # planner: a query planned through the session API pre-warms the
        # entries the advisor and online monitor consult for the current
        # layout.  Pass an explicit *memo* to share one across models (the
        # parameters fingerprint in the key keeps differently-calibrated
        # models from colliding).
        self.memo = memo if memo is not None else EstimateMemo()

    @property
    def parameters(self) -> CostModelParameters:
        return self._parameters

    @property
    def parameters_fingerprint(self) -> str:
        """Content fingerprint of the current parameters (keys caches)."""
        return self._parameters_fp

    @parameters.setter
    def parameters(self, value: CostModelParameters) -> None:
        # The parameters fingerprint keys the memo, so entries priced under
        # the old parameters simply stop matching — no clear needed.
        self._parameters = value
        self._parameters_fp = _parameters_fingerprint(value)

    # -- profile helpers -----------------------------------------------------------

    @staticmethod
    def profiles_from_catalog(catalog: Catalog) -> Dict[str, TableProfile]:
        """Build the estimator's table profiles from a system catalog."""
        return {
            name: TableProfile(
                schema=catalog.schema(name), statistics=catalog.statistics_of(name)
            )
            for name in catalog.table_names()
        }

    # -- query estimation ------------------------------------------------------------

    def estimate_query_ms(
        self,
        query: Query,
        assignment: StoreAssignment,
        profiles: Mapping[str, TableProfile],
    ) -> float:
        """Estimated runtime (ms) of *query* under *assignment*.

        Estimates are memoized in :attr:`memo` per (query fingerprint,
        stores-of-referenced-tables, statistics-fingerprints-of-referenced-
        tables): assignments that only differ on tables the query does not
        touch share one entry, as do structurally identical query objects and
        statistics refreshes that did not change the data characteristics.
        """
        key = self.estimate_key(query, assignment, profiles)
        if key is not None:
            estimate = self.memo.get(key)
            if estimate is not None:
                return estimate
        contributions = query_contributions(query, assignment, profiles)
        estimate = self._price_contributions(contributions)
        if key is not None:
            self.memo.put(key, estimate)
        return estimate

    def estimate_key(
        self,
        query: Query,
        assignment: StoreAssignment,
        profiles: Mapping[str, TableProfile],
    ) -> Optional[tuple]:
        """The memo key of one estimate, or ``None`` for incomplete inputs."""
        try:
            return (
                self._parameters_fp,
                query_fingerprint(query),
            ) + tuple(
                (table, assignment[table].value, profiles[table].statistics.fingerprint)
                for table in query.tables
            )
        except KeyError:
            return None  # incomplete assignment/profiles: let the estimator raise

    @property
    def cache_hits(self) -> int:
        return self.memo.hits

    @property
    def cache_misses(self) -> int:
        return self.memo.misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of estimate calls served from the memo (0.0 when unused)."""
        return self.memo.hit_rate

    def reset_cache(self) -> None:
        self.memo.clear()

    def estimate_query_per_store(
        self,
        query: Query,
        profiles: Mapping[str, TableProfile],
        fixed_assignment: Optional[StoreAssignment] = None,
    ) -> Dict[Store, float]:
        """Estimate *query* with its base table in either store.

        Tables other than the query's base table keep the store given in
        ``fixed_assignment`` (default: column store).
        """
        estimates = {}
        for store in Store:
            assignment = dict(fixed_assignment or {})
            for table in query.tables:
                assignment.setdefault(table, Store.COLUMN)
            assignment[query.table] = store
            estimates[store] = self.estimate_query_ms(query, assignment, profiles)
        return estimates

    def price_contribution_ms(self, contribution: CostContribution) -> float:
        """Price one table's contribution (used by EXPLAIN term breakdowns)."""
        weights = self.parameters.weights_for(contribution.store, contribution.query_type)
        return weights.cost_ms(contribution.terms)

    def _price_contributions(self, contributions: Iterable[CostContribution]) -> float:
        total_ms = 0.0
        for contribution in contributions:
            weights = self.parameters.weights_for(contribution.store, contribution.query_type)
            total_ms += weights.cost_ms(contribution.terms)
        return total_ms

    # -- workload estimation -------------------------------------------------------------

    def estimate_workload(
        self,
        workload: Workload,
        assignment: StoreAssignment,
        profiles: Mapping[str, TableProfile],
    ) -> WorkloadEstimate:
        """Estimated runtime of a whole workload under one store assignment."""
        missing = set(workload.tables()) - set(assignment)
        if missing:
            raise EstimationError(
                f"store assignment is missing tables: {sorted(missing)}"
            )
        estimate = WorkloadEstimate(assignment=dict(assignment), total_ms=0.0)
        for query in workload:
            query_ms = self.estimate_query_ms(query, assignment, profiles)
            estimate.per_query_ms.append(query_ms)
            estimate.per_type_ms[query.query_type] = (
                estimate.per_type_ms.get(query.query_type, 0.0) + query_ms
            )
            estimate.total_ms += query_ms
        return estimate

    def estimate_workload_ms(
        self,
        workload: Workload,
        assignment: StoreAssignment,
        profiles: Mapping[str, TableProfile],
    ) -> float:
        """Shortcut for :meth:`estimate_workload` returning only the total.

        Skips the per-query/per-type bookkeeping — this is the advisor's hot
        enumeration path.  The left-to-right sum matches
        :meth:`estimate_workload`'s accumulation exactly.
        """
        missing = set(workload.tables()) - set(assignment)
        if missing:
            raise EstimationError(
                f"store assignment is missing tables: {sorted(missing)}"
            )
        total_ms = 0.0
        for query in workload:
            total_ms += self.estimate_query_ms(query, assignment, profiles)
        return total_ms


def _parameters_fingerprint(parameters: CostModelParameters) -> str:
    """Content fingerprint of a parameter set (keys the estimate memo)."""
    tokens = []
    as_dict = parameters.to_dict()
    for key in sorted(as_dict):
        weights = as_dict[key]
        tokens.append(key)
        for name in sorted(weights):
            tokens.append(f"{name}={weights[name]!r}")
    return hashlib.blake2b("|".join(tokens).encode("utf-8"), digest_size=8).hexdigest()
