"""Analysis harness tests (variance, correlation, aggregates, report)."""

import dataclasses

import numpy as np
import pytest

from repro import QOAdvisor, SimulationConfig
from repro.analysis.correlation import IoCorrelationStudy, run_io_correlation_study
from repro.analysis.report import ComparisonRow, render_comparison
from repro.analysis.stability import StabilityPoint, StabilityStudy
from repro.analysis.table3 import PolicyCounts, Table3Result, run_table3_experiment
from repro.config import FlightingConfig, WorkloadConfig
from repro.analysis.variance import run_aa_variance_study
from repro.flighting.results import FlightRequest, FlightResult, FlightStatus
from repro.scope.optimizer.rules.base import RuleFlip
from repro.scope.runtime.metrics import JobMetrics


def _metrics(pnhours=1.0, read=1e9, written=1e8, latency=100.0):
    return JobMetrics(
        latency_s=latency,
        pnhours=pnhours,
        vertices=10,
        data_read=read,
        data_written=written,
        max_memory=1e6,
        avg_memory=1e6,
        cpu_seconds=10.0,
        io_seconds=10.0,
    )


def _flight(pn_delta, read_delta, written_delta, day=0, status=FlightStatus.SUCCESS):
    request = FlightRequest(job=None, flip=RuleFlip(0, True))
    return FlightResult(
        request=request,
        status=status,
        baseline=_metrics(),
        treatment=_metrics(
            pnhours=1.0 + pn_delta,
            read=1e9 * (1 + read_delta),
            written=1e8 * (1 + written_delta),
        ),
        day=day,
    )


def test_aa_variance_study_structure(tiny_engine, tiny_workload):
    jobs = tiny_workload.jobs_for_day(0)
    study = run_aa_variance_study(tiny_engine, jobs, runs=4, max_jobs=5)
    assert len(study.latency_cv) == len(study.pnhours_cv) == len(study.mean_latency)
    assert study.fraction_above(0.0, "latency") == 1.0
    assert 0.0 <= study.fraction_above(0.05, "pnhours") <= 1.0


def test_io_correlation_study_from_corpus():
    corpus = [
        _flight(-0.2, -0.3, -0.5),
        _flight(0.0, 0.0, 0.0),
        _flight(0.3, 0.5, 0.4),
        _flight(0.15, 0.2, 0.3),
        _flight(0.0, 0.0, 0.0, status=FlightStatus.FAILURE),  # skipped
    ]
    study = run_io_correlation_study(corpus)
    assert len(study.pnhours_deltas) == 4
    assert study.read_correlation > 0.9
    slope, _ = study.read_trend()
    assert slope > 0


def test_flight_deltas_computed_from_metrics():
    result = _flight(-0.25, -0.4, -0.1)
    assert result.pnhours_delta == pytest.approx(-0.25)
    assert result.data_read_delta == pytest.approx(-0.4)
    assert result.data_written_delta == pytest.approx(-0.1)


def test_stability_study_regression_fraction():
    study = StabilityStudy(
        points=[
            StabilityPoint("a", -0.3, +0.1, -0.2, -0.1),  # latency regressed
            StabilityPoint("b", -0.2, -0.1, -0.2, -0.3),  # stayed improved
            StabilityPoint("c", +0.1, +0.2, +0.1, +0.2),  # never improved
        ]
    )
    assert study.regression_fraction("latency") == pytest.approx(0.5)
    assert study.regression_fraction("pnhours") == 0.0


def test_table3_counts_and_factor():
    result = Table3Result(
        random=PolicyCounts(lower=10, equal=30, higher=40, failures=20, total_est_cost=1e11),
        bandit=PolicyCounts(lower=35, equal=30, higher=20, failures=15, total_est_cost=1e9),
    )
    assert result.random.jobs == 100
    assert result.random.fraction("lower") == pytest.approx(0.1)
    assert result.cost_improvement_factor == pytest.approx(100.0)


#: (seed, templates, manual-hint fraction, training days, eval days) →
#: random and CB columns as (lower, equal, higher, failures, total est cost),
#: jobs evaluated.  The first two are ``bench_policies``' Table-3 config at
#: its two seeds: no manual hints, so the baseline is the bare default
#: plan.  The third has manually hinted jobs, each compared with its own
#: manual-hint plan — the pipeline's hint-free compile — not the bare default.
_TABLE3_PINS = {
    "bench_policies-20220613": (
        (20220613, 10, 0.0, range(0, 3), range(3, 5)),
        (2, 5, 4, 2, 20285.545172986524),
        (8, 4, 1, 0, 14799.289859155666),
        19,
    ),
    "bench_policies-20240907": (
        (20240907, 10, 0.0, range(0, 3), range(3, 5)),
        (1, 2, 6, 5, 193.0686307955728),
        (11, 2, 0, 1, 149.95018707057838),
        18,
    ),
    "manual-hints": (
        (2022, 12, 0.5, range(0, 2), range(2, 4)),
        (0, 8, 16, 2, 10884.43940965397),
        (11, 13, 1, 1, 7755.797710482123),
        28,
    ),
}


@pytest.mark.parametrize("pin", sorted(_TABLE3_PINS))
def test_table3_experiment_counts_and_costs_are_pinned(pin):
    (seed, templates, manual, training, evaluation), random, bandit, jobs = _TABLE3_PINS[pin]
    config = dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(
            num_templates=templates, num_tables=8, manual_hint_fraction=manual
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
    )
    with QOAdvisor(config) as advisor:
        result = run_table3_experiment(
            advisor.engine, advisor.workload, training_days=training, eval_days=evaluation
        )
    assert dataclasses.astuple(result.random) == random
    assert dataclasses.astuple(result.bandit) == bandit
    assert result.jobs_evaluated == jobs


def test_comparison_row_rendering():
    row = ComparisonRow("metric", "10 %", "12 %", holds=True)
    text = render_comparison("Title", [row])
    assert "Title" in text and "shape holds" in text
    bad = ComparisonRow("metric", "10 %", "99 %", holds=False)
    assert "MISMATCH" in bad.render()
    neutral = ComparisonRow("metric", "10 %", "12 %")
    assert "MISMATCH" not in neutral.render()
