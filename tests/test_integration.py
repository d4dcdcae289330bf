"""End-to-end integration tests: the full QO-Advisor loop on a tiny tier."""

import dataclasses

import pytest

from repro import QOAdvisor, SimulationConfig
from repro.config import FlightingConfig, WorkloadConfig
from repro.core.recompile import CostOutcome


@pytest.fixture(scope="module")
def advisor():
    config = dataclasses.replace(
        SimulationConfig(seed=77),
        workload=WorkloadConfig(num_templates=20, num_tables=12),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
    )
    advisor = QOAdvisor(config)
    advisor.bootstrap(start_day=0, days=6, )
    return advisor


def test_bootstrap_fits_validation_model(advisor):
    assert advisor.pipeline.validation_model.is_fitted
    assert advisor.pipeline.validation_model.training_samples >= 4


def test_daily_reports_cover_all_stages(advisor):
    reports = advisor.simulate(start_day=6, days=3, learned_after=1)
    for report in reports:
        assert report.production_runs
        assert report.view is not None and len(report.view) == len(report.production_runs)
        assert report.features
        assert 0.3 < report.steerable_fraction <= 1.0
        assert len(report.recommendations) == sum(1 for f in report.features if f.steerable)
        assert len(report.outcomes) == len(report.recommendations)


def test_rewards_flow_to_personalizer(advisor):
    assert advisor.policy.pending_events == 0
    assert len(advisor.policy.event_log) > 0


def test_hints_eventually_deploy_and_apply(advisor):
    reports = advisor.simulate(start_day=9, days=4, learned_after=0)
    total_validated = sum(len(r.validated) for r in advisor.reports)
    if total_validated == 0:
        pytest.skip("no flip cleared validation in this tiny run")
    assert any(r.active_hint_count > 0 for r in advisor.reports)
    hints = advisor.sis.active_hints()
    # hinted templates compile under the flipped configuration
    template_id, flip = next(iter(hints.items()))
    jobs = [j for j in advisor.workload.jobs_for_day(99) if j.template_id == template_id]
    if jobs:
        config = advisor.engine.configuration_for(jobs[0])
        assert config.is_enabled(flip.rule_id) == flip.turn_on


def test_outcome_counts_accounting(advisor):
    report = advisor.reports[-1]
    counts = report.outcome_counts()
    assert sum(counts.values()) == len(report.outcomes)
    for outcome in CostOutcome:
        assert counts[outcome] >= 0


def test_pipeline_is_reproducible():
    config = dataclasses.replace(
        SimulationConfig(seed=555),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
    )
    first = QOAdvisor(config)
    second = QOAdvisor(config)
    report_a = first.run_day(0)
    report_b = second.run_day(0)
    assert len(report_a.production_runs) == len(report_b.production_runs)
    assert report_a.outcome_counts() == report_b.outcome_counts()
    metrics_a = [r.metrics.pnhours for r in report_a.production_runs]
    metrics_b = [r.metrics.pnhours for r in report_b.production_runs]
    assert metrics_a == metrics_b
