"""repro — reproduction of "A Storage Advisor for Hybrid-Store Databases".

The package has five layers:

* :mod:`repro.api` — the public session API: ``connect()`` returns a
  :class:`~repro.api.Session` driving the explicit
  ``parse → bind → plan → execute`` pipeline with prepared statements, a
  plan cache and ``EXPLAIN``;
* :mod:`repro.engine` — a from-scratch in-memory hybrid-store database
  (row store + dictionary-compressed column store, partitioning, executor)
  with a deterministic analytic timing model;
* :mod:`repro.query` — the query/workload model;
* :mod:`repro.core` — the paper's contribution: the cost model, its offline
  calibration, the table-level and partition-level storage advisor and the
  online monitor;
* :mod:`repro.workloads` — synthetic, star-schema and TPC-H data/workload
  generators used by the examples and the benchmark harness
  (:mod:`repro.bench`).
"""

from repro.api import PreparedStatement, RecoveryReport, Session, connect, recover
from repro.config import AdvisorConfig, DeviceModelConfig, DurabilityConfig
from repro.core import (
    CostModel,
    CostModelCalibrator,
    OnlineAdvisorMonitor,
    Recommendation,
    StorageAdvisor,
    StorageLayout,
)
from repro.engine import (
    Column,
    DataType,
    HorizontalPartitionSpec,
    HybridDatabase,
    Store,
    TablePartitioning,
    TableSchema,
    VerticalPartitionSpec,
)
from repro.query import Workload

__version__ = "1.0.0"

__all__ = [
    "AdvisorConfig",
    "Column",
    "CostModel",
    "CostModelCalibrator",
    "DataType",
    "DeviceModelConfig",
    "DurabilityConfig",
    "HorizontalPartitionSpec",
    "HybridDatabase",
    "OnlineAdvisorMonitor",
    "PreparedStatement",
    "Recommendation",
    "RecoveryReport",
    "Session",
    "connect",
    "recover",
    "StorageAdvisor",
    "StorageLayout",
    "Store",
    "TablePartitioning",
    "TableSchema",
    "VerticalPartitionSpec",
    "Workload",
    "__version__",
]
