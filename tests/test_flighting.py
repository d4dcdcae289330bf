"""Flighting Service tests."""

import dataclasses

import pytest

from repro.config import FlightingConfig
from repro.flighting.results import FlightRequest, FlightStatus
from repro.flighting import service as flighting_module
from repro.flighting.service import FlightingService
from repro.scope.optimizer.rules.base import RuleFlip


@pytest.fixture(scope="module")
def service(tiny_engine):
    config = FlightingConfig(filtered_prob=0.0, failure_prob=0.0)
    return FlightingService(tiny_engine, config)


@pytest.fixture(scope="module")
def steerable_job(tiny_workload, tiny_engine):
    from repro.core.spans import SpanComputer

    spans = SpanComputer(tiny_engine)
    for job in tiny_workload.jobs_for_day(0):
        span = spans.span_for_template(job.template_id, job.script)
        if span:
            rule_id = sorted(span)[0]
            flip = RuleFlip(rule_id, not tiny_engine.default_config.is_enabled(rule_id))
            return job, flip
    pytest.skip("no steerable job found")


def test_flight_success_produces_both_arms(service, steerable_job):
    job, flip = steerable_job
    result = service.flight(FlightRequest(job, flip), day=0)
    assert result.status in (FlightStatus.SUCCESS, FlightStatus.FAILURE)
    if result.status is FlightStatus.SUCCESS:
        assert result.baseline is not None and result.treatment is not None
        assert result.flight_seconds > 0
        # deltas are well-defined
        _ = result.pnhours_delta, result.latency_delta, result.vertices_delta


def test_flight_gates_filter_jobs(tiny_engine, steerable_job):
    job, flip = steerable_job
    always_filtered = FlightingService(
        tiny_engine, FlightingConfig(filtered_prob=1.0, failure_prob=0.0)
    )
    result = always_filtered.flight(FlightRequest(job, flip), day=0)
    assert result.status is FlightStatus.FILTERED


def test_flight_compile_error_is_failure(service, tiny_workload, tiny_engine):
    job = tiny_workload.jobs_for_day(0)[0]
    # find a flip that breaks compilation: disable the sole union/agg impl
    bad = RuleFlip(tiny_engine.registry.by_name("HashAggregateImpl").rule_id, False)
    result = service.flight(FlightRequest(job, bad), day=0)
    assert result.status in (FlightStatus.FAILURE, FlightStatus.FILTERED, FlightStatus.SUCCESS)


def test_aa_runs_share_plan_but_not_noise(service, tiny_workload):
    job = tiny_workload.jobs_for_day(0)[0]
    runs = service.aa_runs(job, runs=4, day=0)
    assert len(runs) == 4
    assert len({m.latency_s for m in runs}) > 1
    assert len({m.data_read for m in runs}) == 1


def test_queue_respects_budget(tiny_engine, steerable_job):
    job, flip = steerable_job
    tight = FlightingService(
        tiny_engine,
        FlightingConfig(
            queue_size=1, total_budget_s=1.0, filtered_prob=0.0, failure_prob=0.0
        ),
    )
    requests = [FlightRequest(job, flip, est_cost_delta=-0.1 * i) for i in range(5)]
    results = tight.run_queue(requests, day=0)
    statuses = [r.status for r in results]
    assert FlightStatus.NOT_RUN in statuses  # budget ran out
    assert statuses[0] is not FlightStatus.NOT_RUN  # best estimate served first


@pytest.mark.parametrize("queue_size", [0, -1])
def test_a_queue_without_a_slot_is_refused(tiny_engine, queue_size):
    """A flighting queue holds at least one flight; 0 or a negative size is
    refused, not silently flown one at a time."""
    with pytest.raises(ValueError, match="queue_size"):
        FlightingService(tiny_engine, FlightingConfig(queue_size=queue_size))


def test_queue_orders_by_estimated_delta(service, steerable_job):
    job, flip = steerable_job
    requests = [
        FlightRequest(job, flip, est_cost_delta=0.5),
        FlightRequest(job, flip, est_cost_delta=-0.9),
    ]
    results = service.run_queue(requests, day=1)
    assert results[0].request.est_cost_delta == -0.9


def test_timeout_caps_flight_seconds_in_the_result(
    tiny_engine, steerable_job, monkeypatch
):
    """A timed-out flight is killed at the limit, per arm: the machine time
    in the FlightResult itself is capped, so budget admission and downstream
    consumers (analysis, fingerprints) all see the same number."""
    job, flip = steerable_job
    timeout_s = 0.5  # every simulated run exceeds half a second
    monkeypatch.setattr(flighting_module, "_PER_JOB_TIMEOUT_S", timeout_s)
    tight = FlightingService(
        tiny_engine, FlightingConfig(filtered_prob=0.0, failure_prob=0.0)
    )
    result = tight.flight(FlightRequest(job, flip), day=0)
    assert result.status is FlightStatus.TIMEOUT
    # each arm contributes what it consumed before being killed
    assert result.flight_seconds == min(result.baseline.latency_s, timeout_s) + min(
        result.treatment.latency_s, timeout_s
    )
    assert result.flight_seconds <= 2 * timeout_s
    # the un-capped machine time really was larger (the cap did something)
    assert result.baseline.latency_s + result.treatment.latency_s > result.flight_seconds


def test_timeout_accounting_consistent_between_queue_and_result(
    tiny_engine, steerable_job, monkeypatch
):
    job, flip = steerable_job
    timeout_s = 0.5
    monkeypatch.setattr(flighting_module, "_PER_JOB_TIMEOUT_S", timeout_s)
    tight = FlightingService(
        tiny_engine,
        FlightingConfig(
            queue_size=2,
            total_budget_s=timeout_s * 3,
            filtered_prob=0.0,
            failure_prob=0.0,
        ),
    )
    results = tight.run_queue(
        [FlightRequest(job, flip, est_cost_delta=-0.1 * i) for i in range(8)], day=0
    )
    flown = [r for r in results if r.status is FlightStatus.TIMEOUT]
    assert flown  # with a 0.5 s limit every served flight times out
    assert all(r.flight_seconds <= 2 * timeout_s for r in flown)
    # budget admission consumed the capped numbers: the 3-timeout budget
    # admitted more than one 2-flight wave before cutting off
    assert len(flown) > 2
    assert any(r.status is FlightStatus.NOT_RUN for r in results)


def test_standalone_flight_counter_is_thread_safe(tiny_engine, steerable_job):
    import threading

    job, flip = steerable_job
    service = FlightingService(
        tiny_engine, FlightingConfig(filtered_prob=1.0, failure_prob=0.0)
    )
    threads = 8
    flights_each = 25
    barrier = threading.Barrier(threads)

    def hammer() -> None:
        barrier.wait()
        for _ in range(flights_each):
            service.flight(FlightRequest(job, flip), day=0)

    workers = [threading.Thread(target=hammer) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    # no lost increments: every standalone flight claimed a distinct id
    assert service._flight_counter == threads * flights_each
