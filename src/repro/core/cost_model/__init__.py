"""The storage advisor's cost model (Section 3 of the paper)."""

from repro.core.cost_model.calibration import (
    CalibrationReport,
    CalibrationSample,
    CostModelCalibrator,
)
from repro.core.cost_model.estimator import (
    CostContribution,
    TableProfile,
    query_contributions,
)
from repro.core.cost_model.model import CostModel, WorkloadEstimate
from repro.core.cost_model.parameters import (
    COST_TERMS,
    CostModelParameters,
    CostTermWeights,
    analytic_parameters,
)

__all__ = [
    "COST_TERMS",
    "CalibrationReport",
    "CalibrationSample",
    "CostContribution",
    "CostModel",
    "CostModelCalibrator",
    "CostModelParameters",
    "CostTermWeights",
    "TableProfile",
    "WorkloadEstimate",
    "analytic_parameters",
    "query_contributions",
]
