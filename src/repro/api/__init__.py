"""repro.api — the session API over the hybrid-store engine.

This package is the public entry point of the system: ``connect()`` opens a
:class:`~repro.api.session.Session` that drives every statement through the
explicit ``parse → bind → plan → execute`` pipeline, with

* **prepared statements** (:meth:`Session.prepare`) — ``?``/named
  placeholders, bound and type-checked against the catalog schema; ad-hoc
  statements run on the same path, their literals lifted and bound per
  execution,
* a **plan cache** keyed by ``(statement shape, layout/statistics
  fingerprint)`` — literals are not part of the key; invalidated by DDL,
  store moves, repartitioning and statistics refresh,
* **EXPLAIN** (:meth:`Session.explain` or ``session.sql("EXPLAIN ...")``) —
  the physical plan tree with estimated (and optionally actual) costs, and
* the **storage advisor** (:meth:`Session.advisor`) sharing the planner's
  content-keyed estimate memo.

The legacy façades (``HybridDatabase.execute``, the standalone
``StorageAdvisor``) remain available and cost-identical; the session wires
them together.
"""

from repro.api.binder import bind, statement_parameters
from repro.api.explain import describe_predicate, render_plan
from repro.api.plan import (
    CostEstimate,
    PhysicalPlan,
    PlanCache,
    Planner,
    TableAccessPlan,
)
from repro.api.session import (
    PreparedStatement,
    Session,
    SessionStats,
    connect,
    recover,
)
from repro.engine.wal import RecoveryReport

__all__ = [
    "CostEstimate",
    "PhysicalPlan",
    "PlanCache",
    "Planner",
    "PreparedStatement",
    "RecoveryReport",
    "Session",
    "SessionStats",
    "TableAccessPlan",
    "bind",
    "connect",
    "describe_predicate",
    "recover",
    "render_plan",
    "statement_parameters",
]
