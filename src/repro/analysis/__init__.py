"""Experiment harnesses: one per table/figure of the paper's evaluation."""

from repro.analysis.aggregate import DeploymentResult
from repro.analysis.correlation import (
    CostLatencyStudy,
    IoCorrelationStudy,
    run_cost_vs_latency_study,
    run_io_correlation_study,
)
from repro.analysis.stability import StabilityStudy, run_stability_study
from repro.analysis.table3 import Table3Result, run_table3_experiment
from repro.analysis.variance import AAVarianceStudy, run_aa_variance_study

__all__ = [
    "AAVarianceStudy",
    "run_aa_variance_study",
    "StabilityStudy",
    "run_stability_study",
    "CostLatencyStudy",
    "run_cost_vs_latency_study",
    "IoCorrelationStudy",
    "run_io_correlation_study",
    "DeploymentResult",
    "Table3Result",
    "run_table3_experiment",
]
