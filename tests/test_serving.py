"""Online serving layer: queues, live steering, maintenance, parity.

The contracts under test:

* **admission/backpressure** — a job enters its template's home lane;
  per-shard queues are bounded; a submit to a full queue waits up to its
  timeout, and ``timeout=0`` refuses at once;
* **shutdown** — no admitted ticket is dropped, started server or not;
* **live steering** — jobs compile against the SIS hint version current at
  arrival, and the ticket records which version that was;
* **maintenance windows** — the scheduler drains a day's accumulated work
  through the batch pipeline's own stages and atomically publishes the
  next hint version, while new submissions keep flowing;
* **batch parity** — replaying a day's stream on the serial (inline)
  schedule reproduces batch ``run_day``'s ``DayReport.fingerprint()``
  byte for byte (and the threaded schedule agrees too).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter

import pytest

from repro import (
    QOAdvisor,
    QOAdvisorServer,
    ServingConfig,
    SimulationConfig,
    TicketJournal,
)
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ObsConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.rules.base import RuleFlip
from repro.serving import JobTicket, QueueClosed, QueueFull, ShardQueue
from repro.serving import server as server_module
from repro.serving.stats import LANE_COUNTERS, ShardStats, percentile
from repro.sis.hints import HintEntry


def _config(
    workers: int = 1, shards: int = 1, seed: int = 555, workers_per_shard: int = 1
) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers, backend="thread"),
        sharding=ShardingConfig(shards=shards),
        serving=ServingConfig(workers_per_shard=workers_per_shard),
    )


def _ticket(seq: int, job_id: str = "j") -> JobTicket:
    job = JobInstance(job_id, "t", "n", "script", day=0)
    return JobTicket(seq=seq, job=job, day=0, shard=0)


# -- queue admission ----------------------------------------------------------


def test_queue_put_with_zero_timeout_refuses_at_once_when_full():
    queue = ShardQueue(capacity=2)
    queue.put(_ticket(1))
    queue.put(_ticket(2))
    assert queue.depth == 2 and queue.max_depth == 2
    with pytest.raises(QueueFull):
        queue.put(_ticket(3), timeout=0)
    # a consumer frees a slot and admission resumes
    assert queue.get(timeout=0).seq == 1
    queue.put(_ticket(3), timeout=0)
    assert [queue.get(timeout=0).seq for _ in range(2)] == [2, 3]


def test_queue_put_times_out_and_unblocks():
    queue = ShardQueue(capacity=1)
    queue.put(_ticket(1))
    with pytest.raises(QueueFull):
        queue.put(_ticket(2), timeout=0.01)
    consumed = []

    def consumer():
        consumed.append(queue.get(timeout=5.0))

    thread = threading.Thread(target=consumer)
    thread.start()
    queue.put(_ticket(2), timeout=5.0)  # unblocks as the consumer pops
    thread.join()
    assert consumed[0].seq == 1 and queue.get(timeout=0).seq == 2


def test_queue_close_stops_admission_but_keeps_backlog_drainable():
    """Shutdown's workers keep popping a closed queue until it is empty."""
    queue = ShardQueue(capacity=4)
    queue.put(_ticket(1))
    queue.put(_ticket(2))
    queue.close()
    with pytest.raises(QueueClosed):
        queue.put(_ticket(3))
    assert [queue.get(timeout=0).seq for _ in range(2)] == [1, 2]
    assert queue.get(timeout=0) is None  # closed and empty


def test_queue_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ShardQueue(capacity=0)


# -- server backpressure ------------------------------------------------------


def test_server_backpressure_rejects_past_capacity(monkeypatch):
    monkeypatch.setattr(server_module, "_QUEUE_CAPACITY", 3)
    server = QOAdvisorServer(config=_config(shards=1))
    jobs = server.advisor.workload.jobs_for_day(0)
    assert len(jobs) > 3
    # not started: nothing consumes, so the 4th submission must bounce
    for job in jobs[:3]:
        server.submit(job, timeout=0)
    with pytest.raises(QueueFull):
        server.submit(jobs[3], timeout=0)
    stats = server.stats()
    assert stats.jobs_submitted == 3 and stats.jobs_in_flight == 3
    assert stats.shards[0].queue_depth == 3
    # start, drain, and the backlog clears
    server.start()
    server.drain(timeout=60.0)
    assert server.stats().jobs_completed + server.stats().jobs_failed == 3
    server.shutdown()


# -- live steering ------------------------------------------------------------


def test_jobs_steer_against_the_live_hint_version():
    server = QOAdvisorServer(config=_config(shards=1, workers_per_shard=0))
    server.start()
    jobs = server.advisor.workload.jobs_for_day(0)
    before = server.submit(jobs[0])
    assert before.done and before.hint_version == 0 and not before.steered
    # a hint published mid-stream steers every later arrival of the template
    rule = server.advisor.registry.by_name("LocalGlobalAggregation").rule_id
    server.sis.upload([HintEntry(jobs[0].template_id, RuleFlip(rule, True))], day=0)
    after = server.submit(jobs[0])
    assert after.done and after.hint_version == 1 and after.steered
    # the steered compile really applied the flip
    assert after.run.result.signature != before.run.result.signature
    stats = server.stats()
    assert stats.shards[0].steered == 1 and stats.hint_version == 1
    assert stats.shards[0].last_hint_version == 1
    assert stats.shards[0].hint_version_skew == 0
    server.shutdown()


# -- maintenance windows ------------------------------------------------------


def test_maintenance_window_runs_all_stages_and_counts():
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=0))
    report = server.stream_day(0)
    assert len(report.production_runs) + len(report.failed_jobs) == len(
        server.advisor.workload.jobs_for_day(0)
    )
    assert server.scheduler.windows == 1
    assert server.scheduler.pending(0) == 0  # drained into the report
    assert server.advisor.reports[-1] is report
    server.shutdown()


def test_submissions_stay_admitted_while_a_window_runs():
    """Maintenance is not a barrier: jobs flow while the window executes."""
    server = QOAdvisorServer(config=_config(shards=2))
    # generate day 1 up front so the window does not race catalog growth
    day1_jobs = server.advisor.workload.jobs_for_day(1)
    admitted_during_window: list[JobTicket] = []

    def stream_next_day(day: int) -> None:
        if day == 0:
            for job in day1_jobs[:3]:
                admitted_during_window.append(server.submit(job))

    server.scheduler.on_window_start = stream_next_day
    server.start()
    server.submit_day(0)
    server.drain(timeout=60.0)
    server.run_maintenance(0)
    assert len(admitted_during_window) == 3  # no deadlock, no rejection
    server.drain(timeout=60.0)
    assert all(t.done for t in admitted_during_window)
    report = server.run_maintenance(1)
    assert len(report.production_runs) + len(report.failed_jobs) == 3
    server.shutdown()


# -- drain / shutdown ---------------------------------------------------------


def test_drain_requires_a_started_server():
    server = QOAdvisorServer(config=_config(shards=1))
    server.submit(server.advisor.workload.jobs_for_day(0)[0])
    with pytest.raises(RuntimeError, match="not.*started"):
        server.drain(timeout=0.1)
    with pytest.raises(RuntimeError, match="not started"):
        server.run_maintenance(0)
    server.start()
    server.drain(timeout=60.0)
    server.shutdown()


@pytest.mark.parametrize("workers_per_shard", [0, 1], ids=["inline", "threaded"])
def test_shutdown_of_an_unstarted_server_serves_its_admitted_backlog(
    tmp_path, workers_per_shard
):
    """Tickets admitted before ``start()`` are served by ``shutdown()``,
    as a started server's backlog is: none is left undone, in flight, or
    journaled as admitted without its ``done``."""
    server = QOAdvisorServer(
        config=_config(shards=1, workers_per_shard=workers_per_shard),
        journal=tmp_path / "wal.jsonl",
    )
    jobs = server.advisor.workload.jobs_for_day(0)[:3]
    tickets = [server.submit(job) for job in jobs]
    server.shutdown(timeout=60.0)
    assert all(ticket.done for ticket in tickets)
    stats = server.stats()
    assert stats.jobs_in_flight == 0
    assert stats.jobs_completed + stats.jobs_failed == 3
    assert server.scheduler.pending(0) == 3  # recorded for the day's window
    with TicketJournal(tmp_path / "wal.jsonl") as journal:
        kinds = Counter(record["t"] for record in journal.records())
    assert kinds["admit"] == kinds["done"] == 3
    assert not server.started


def test_shutdown_is_graceful_and_terminal():
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=2))
    with server as running:
        running.submit_day(0)
    # the context exit drained before retiring the workers
    stats = server.stats()
    assert stats.jobs_in_flight == 0
    assert stats.jobs_completed + stats.jobs_failed == stats.jobs_submitted
    assert not server.started
    with pytest.raises(QueueClosed):
        server.submit(server.advisor.workload.jobs_for_day(1)[0])
    server.shutdown()  # idempotent


@pytest.mark.parametrize("workers_per_shard", [0, 1], ids=["inline", "threaded"])
def test_a_shut_down_server_does_not_start_again(workers_per_shard):
    """Its lane queues are closed, so ``start()`` refuses with the server's
    own message instead of reporting a started server that a submit then
    finds closed."""
    server = QOAdvisorServer(
        config=_config(shards=1, workers_per_shard=workers_per_shard)
    )
    server.start()
    server.shutdown()
    with pytest.raises(QueueClosed, match="server is shut down"):
        server.start()
    assert not server.started
    with pytest.raises(QueueClosed, match="server is shut down"):
        server.submit(server.advisor.workload.jobs_for_day(0)[0])
    assert server.stats().jobs_submitted == 0


# -- health metric edge cases -------------------------------------------------


@pytest.mark.parametrize("q, expected", [(0, 1.0), (25, 1.0), (50, 2.0), (75, 3.0), (100, 4.0)])
def test_percentile_is_nearest_rank(q, expected):
    """The value at 1-based rank ceil(q·n/100), q = 0 giving the minimum —
    the ledger's ``_percentile`` rule.  p50 of four samples is the second,
    not the third a rounded 0-based index would pick."""
    assert percentile([4.0, 2.0, 1.0, 3.0], q) == expected


def test_percentiles_are_none_until_measured_not_fabricated_zeroes():
    # empty sample: no percentile exists (0.0 would mean "infinitely fast")
    assert percentile([], 50) is None and percentile([], 95) is None
    # singleton sample: the single observation at every rank, no IndexError
    assert percentile([0.25], 50) == 0.25 and percentile([0.25], 95) == 0.25
    assert percentile([0.25], 0) == 0.25 and percentile([0.25], 100) == 0.25
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=0))
    stats = server.stats()  # zero jobs steered anywhere
    for shard in stats.shards:
        assert shard.compile_p50_s is None and shard.compile_p95_s is None
    assert "n/a" in stats.render()  # renders without crashing on None
    server.shutdown()


def test_idle_lane_skew_is_none_across_a_publication():
    """Regression: a lane that idles across a hint publication must not
    report skew as 0 (caught up), as the current version (maximally
    behind), or negative — it has no skew to report at all."""
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=0))
    server.start()
    jobs = server.advisor.workload.jobs_for_day(0)
    # keep one lane completely idle: submit only the other lane's templates
    busy_shard = server.router.shard_for_job(jobs[0])
    idle_shard = 1 - busy_shard
    for job in jobs:
        if server.router.shard_for_job(job) == busy_shard:
            server.submit(job)
    # a publication lands while the idle lane has never compiled anything
    rule = server.advisor.registry.by_name("LocalGlobalAggregation").rule_id
    server.sis.upload([HintEntry(jobs[0].template_id, RuleFlip(rule, True))], day=0)
    stats = server.stats()
    assert stats.hint_version == 1
    assert stats.shards[idle_shard].last_hint_version is None
    assert stats.shards[idle_shard].hint_version_skew is None
    assert stats.shards[busy_shard].hint_version_skew == 1  # really behind
    stats.render()  # the idle lane renders as "v-", no crash
    server.shutdown()


# -- one terminal, one vocabulary ----------------------------------------------


@pytest.mark.parametrize("ending", ["steered", "compile_error"])
def test_every_way_a_ticket_ends_is_exactly_one_terminal(ending, tmp_path):
    """Whichever way a ticket ends it is recorded once under its day,
    journaled once (``done``), released once and its root span finished
    once — the single-terminal invariant ``_complete`` owns."""
    config = dataclasses.replace(
        _config(shards=2, workers_per_shard=0), obs=ObsConfig(enabled=True)
    )
    server = QOAdvisorServer(config=config, journal=tmp_path / "journal.jsonl")
    recorded = []
    record = server.scheduler.record

    def counting_record(ticket):
        recorded.append((ticket.day, ticket.seq))
        record(ticket)

    server.scheduler.record = counting_record
    job = server.advisor.workload.jobs_for_day(0)[0]
    server.start()
    if ending == "compile_error":
        job = JobInstance("j-bad", job.template_id, "bad", "garbage !!", day=0)
    ticket = server.submit(job)
    server.drain(timeout=60.0)

    assert ticket.done and ticket.failed == (ending != "steered")
    assert recorded.count((ticket.day, ticket.seq)) == 1
    terminal = [
        r
        for r in server.journal.records()
        if r["t"] == "done" and r["seq"] == ticket.seq
    ]
    assert len(terminal) == 1
    assert terminal[0]["failed"] is ticket.failed
    stats = server.stats()
    assert stats.jobs_in_flight == 0
    assert stats.jobs_completed + stats.jobs_failed == len(recorded)
    roots = [
        span
        for span in server.advisor.obs.ring.spans()
        if span.parent_id is None and span.trace_id == ticket.trace.trace_id
    ]
    assert len(roots) == 1 and roots[0].finished
    server.shutdown()


def test_lane_counter_vocabulary_reaches_every_stats_surface():
    """Each name of the one counter tuple is a ShardStats field and a
    ``repro_serving_<name>_total`` series carrying the same value."""
    config = dataclasses.replace(
        _config(shards=1, workers_per_shard=0), obs=ObsConfig(enabled=True)
    )
    server = QOAdvisorServer(config=config)
    server.start()
    server.submit(server.advisor.workload.jobs_for_day(0)[0])
    text = server.advisor.obs.metrics.exposition()
    fields = {field.name for field in dataclasses.fields(ShardStats)}
    (shard,) = server.stats().shards
    assert len(set(LANE_COUNTERS)) == len(LANE_COUNTERS) == 4
    for name in LANE_COUNTERS:
        assert name in fields
        assert f'repro_serving_{name}_total{{shard="0"}} {getattr(shard, name)}' in text
    assert (shard.submitted, shard.completed + shard.failed) == (1, 1)
    server.shutdown()


# -- batch parity -------------------------------------------------------------


def _no_mqo(stats):
    """Zero the one honestly schedule-shaped counter before comparing.

    The batch day pre-explores fragments at day open; the serving lanes
    compile each job as it arrives, with no batch to pre-explore, so
    ``mqo_preexplored`` differs by schedule while every demand-accounting
    counter — fragment hits/misses/inserts included — stays byte-equal.
    """
    return dataclasses.replace(stats, mqo_preexplored=0)


def test_serial_replay_matches_batch_run_day_single_shard():
    batch = QOAdvisor(_config(shards=1))
    baseline = batch.run_day(0)
    server = QOAdvisorServer(config=_config(shards=1, workers_per_shard=0))
    report = server.stream_day(0)
    assert report.fingerprint() == baseline.fingerprint()
    assert _no_mqo(report.cache_stats) == _no_mqo(baseline.cache_stats)
    assert {
        shard: _no_mqo(stats) for shard, stats in report.shard_cache_stats.items()
    } == {
        shard: _no_mqo(stats) for shard, stats in baseline.shard_cache_stats.items()
    }
    server.shutdown()
    batch.close()


def test_threaded_sharded_replay_matches_batch():
    batch = QOAdvisor(_config(workers=1, shards=1))
    baseline = batch.run_day(0)
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=2))
    report = server.stream_day(0)
    assert report.fingerprint() == baseline.fingerprint()
    assert _no_mqo(report.cache_stats) == _no_mqo(baseline.cache_stats)
    # every lane did real work, so the parity above crossed both of them
    assert all(shard.completed > 0 for shard in server.stats().shards)
    server.shutdown()
    batch.close()


def test_full_deployment_replay_matches_batch_simulate():
    """Bootstrap + staged rollout + hint publication, batch vs. served.

    Seed 555 publishes a hint file on the first learned day, so this
    parity run covers the whole loop: the publication lands through a
    maintenance window, and the next day's arrivals steer against it.
    """
    batch = QOAdvisor(_config(seed=555))
    batch.pipeline.bootstrap_validation_model(start_day=0, days=4, flights_per_day=8)
    batch_reports = batch.simulate(start_day=4, days=3, learned_after=1)

    published = []
    server = QOAdvisorServer(
        config=_config(shards=2, seed=555, workers_per_shard=0),
        on_publish=published.append,
    )
    server.advisor.pipeline.bootstrap_validation_model(
        start_day=0, days=4, flights_per_day=8
    )
    served_reports = []
    for day in range(4, 7):
        if day == 5:  # the staged rollout: learned after the first day
            server.enable_learned_mode()
        served_reports.append(server.stream_day(day))

    assert [r.fingerprint() for r in served_reports] == [
        r.fingerprint() for r in batch_reports
    ]
    assert [r.hint_version for r in served_reports] == [
        r.hint_version for r in batch_reports
    ]
    # the parity run really exercised a publication...
    assert any(r.hint_version is not None for r in served_reports)
    assert server.scheduler.publications == sum(
        1 for r in served_reports if r.hint_version is not None
    )
    assert [r.day for r in published] == [
        r.day for r in served_reports if r.hint_version is not None
    ]
    assert server.sis.current_version == batch.sis.current_version
    # ...and later arrivals steered against the published version live
    assert server.stats().steer_rate > 0.0
    server.shutdown()
    batch.close()
