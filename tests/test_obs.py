"""Observability plane: tracing, pull-mode metrics, and the no-op path.

The contracts under test:

* **span parenting** — nested spans parent correctly; ``child_span`` only
  creates when a parent exists; ``attach`` propagates without creating or
  finishing; ``start``/``finish`` survive double-finish;
* **trace completeness** — every admitted serving job produces exactly
  one *closed* root span, with the same child-stage set on the inline
  schedule and on threaded workers, on one shard and on two; its
  ``admit`` event is on the root before a lane can finish it, and a
  rejected submission's root carries none;
* **schedule independence** — the batch pipeline's span multiset is
  identical at 1 worker and 4 workers;
* **fingerprint neutrality** — ``DayReport.fingerprint()`` and
  ``CacheStats.core()`` are byte-identical with observability on, off,
  sharded and threaded (instrumentation is counter-free);
* **metrics** — pull-mode views (replace-by-name, exceptions contained),
  Prometheus text exposition, and the exact series set a served day
  exposes;
* **stage view** — ``repro_stage_seconds`` projects the stage spans of
  the last finished day or window; a stage that did not run has no sample;
* **bounded latency buffers** — lanes keep a fixed-size compile-latency
  window; p50/p95/p99 stay ``None`` until measured;
* **last window** — ``advisor.reports[-1]`` and the ``window`` root span
  record the most recent maintenance window's day, duration, jobs and
  published hint version.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import Counter
from unittest import mock

import pytest

from repro import QOAdvisor, QOAdvisorServer, SimulationConfig
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ObsConfig,
    ServingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.obs import (
    NULL_SPAN,
    JsonlSink,
    MetricsRegistry,
    RingSink,
    Sample,
    Tracer,
)
from repro.serving import QueueFull, ShardQueue
from repro.serving import server as server_module


def _config(
    workers: int = 1,
    shards: int = 1,
    obs: bool = True,
    seed: int = 555,
    **obs_kwargs,
) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers, backend="thread"),
        sharding=ShardingConfig(shards=shards),
        obs=ObsConfig(enabled=obs, **obs_kwargs),
    )


# -- tracer -------------------------------------------------------------------


def test_span_nesting_parents_and_trace_ids():
    ring = RingSink(64)
    tracer = Tracer([ring])
    with tracer.span("outer", day=3) as outer:
        with tracer.span("inner") as inner:
            assert tracer.current() is inner
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
        assert tracer.current() is outer
    assert tracer.current() is None
    names = [s.name for s in ring.spans()]
    assert names == ["inner", "outer"]  # finished in close order
    assert ring.spans()[1].attrs["day"] == 3


def test_child_span_requires_a_parent():
    tracer = Tracer([RingSink(8)])
    assert tracer.child_span("orphan") is NULL_SPAN
    with tracer.span("root"):
        with tracer.child_span("child") as child:
            assert child is not NULL_SPAN
    # no orphan roots were created
    assert all(
        s.parent_id is not None or s.name == "root"
        for s in tracer.sinks[0].spans()
    )


def test_start_finish_cross_thread_and_idempotent():
    ring = RingSink(8)
    tracer = Tracer([ring])
    span = tracer.start("job", trace_id="job:x#1")
    seen = []

    def worker():
        with tracer.attach(span):
            assert tracer.current() is span
            with tracer.child_span("compile") as child:
                seen.append(child.parent_id)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == [span.span_id]
    assert not span.finished  # attach never finishes
    tracer.finish(span)
    tracer.finish(span)  # double-finish is a no-op
    assert sum(1 for s in ring.spans() if s.name == "job") == 1


def test_events_attach_to_current_span_or_drop():
    ring = RingSink(8)
    tracer = Tracer([ring])
    tracer.event("lost", x=1)  # no current span: dropped, no error
    with tracer.span("root"):
        tracer.event("kept", shard=2)
    (root,) = ring.spans()
    assert root.to_dict()["events"] == [{"name": "kept", "shard": 2}]


def test_jsonl_sink_writes_one_object_per_span(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer([JsonlSink(path)])
    with tracer.span("a", day=1):
        with tracer.span("b"):
            pass
    tracer.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec["name"] for rec in lines] == ["b", "a"]
    assert lines[0]["parent"] == lines[1]["span"]
    assert lines[0]["trace"] == lines[1]["trace"]
    assert {"trace", "span", "parent", "name", "start_s", "dur_s", "status"} <= set(
        lines[0]
    )


def test_ring_sink_is_bounded_but_counts_everything():
    ring = RingSink(4)
    tracer = Tracer([ring])
    for i in range(10):
        with tracer.span(f"s{i}"):
            pass
    assert len(ring.spans()) == 4
    assert ring.total == 10
    assert [s.name for s in ring.spans()] == ["s6", "s7", "s8", "s9"]


# -- metrics ------------------------------------------------------------------


def test_views_replace_by_name_and_contain_exceptions():
    registry = MetricsRegistry()
    registry.register_view("v", lambda: [Sample("v", {}, 1.0)])
    registry.register_view("v", lambda: [Sample("v", {}, 2.0)])
    assert registry.collect()["v"][0].value == 2.0

    def broken():
        raise RuntimeError("view died")

    registry.register_view("bad", broken)
    assert registry.collect()["bad"] == []  # never takes exposition down
    registry.exposition()


# -- fingerprint neutrality (the hard constraint) -----------------------------


@pytest.mark.parametrize("shards,workers", [(1, 4), (2, 1), (2, 4)])
def test_fingerprints_identical_with_obs_on_off(shards, workers):
    def day0(obs, s, w):
        advisor = QOAdvisor(_config(workers=w, shards=s, obs=obs))
        report = advisor.run_day(0)
        out = (report.fingerprint(), report.cache_stats.core())
        advisor.close()
        return out

    baseline = day0(False, 1, 1)
    assert day0(True, shards, workers) == baseline
    assert day0(False, shards, workers) == baseline


def test_batch_span_multiset_is_worker_count_independent():
    def spans(workers):
        advisor = QOAdvisor(_config(workers=workers))
        advisor.run_day(0)
        counted = Counter(s.name for s in advisor.obs.ring.spans())
        advisor.close()
        return counted

    assert spans(1) == spans(4)


def test_batch_day_trace_has_job_and_stage_children():
    advisor = QOAdvisor(_config())
    advisor.run_day(0)
    spans = advisor.obs.ring.spans()
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == ["day"]
    assert roots[0].trace_id == "day:0"
    by_parent = Counter(s.parent_id for s in spans)
    stage_names = {
        s.name for s in spans if s.parent_id == roots[0].span_id
    }
    assert "stage:production" in stage_names
    assert by_parent[roots[0].span_id] >= 5
    # every span landed in the day's trace
    assert {s.trace_id for s in spans} == {"day:0"}
    advisor.close()


# -- serving traces -----------------------------------------------------------


def _serve_day(workers_per_shard: int, shards: int):
    config = _config(shards=shards)
    config = dataclasses.replace(
        config,
        serving=ServingConfig(workers_per_shard=workers_per_shard),
    )
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    server.start()
    report = server.stream_day(0)
    stats = server.stats()
    spans = advisor.obs.ring.spans()
    server.shutdown()
    return report, stats, spans


@pytest.mark.parametrize("shards", [1, 2])
def test_every_admitted_job_closes_exactly_one_root_span(shards):
    def job_traces(workers_per_shard):
        report, stats, spans = _serve_day(workers_per_shard, shards)
        roots = [
            s for s in spans if s.name == "job" and s.parent_id is None
        ]
        assert len(roots) == stats.jobs_submitted
        assert all(s.finished for s in roots)
        assert len({s.trace_id for s in roots}) == len(roots)
        # child-stage set per job trace (order-free: multiset over traces)
        children = {}
        for span in spans:
            if span.parent_id is not None and span.trace_id.startswith("job:"):
                children.setdefault(span.trace_id, set())
        for span in spans:
            if span.trace_id in children and span.parent_id is not None:
                children[span.trace_id].add(span.name)
        shape = Counter(frozenset(v) for v in children.values())
        return report.fingerprint(), shape

    inline_fp, inline_shape = job_traces(0)
    threaded_fp, threaded_shape = job_traces(4)
    assert inline_fp == threaded_fp
    assert inline_shape == threaded_shape
    assert all("steer" in s and "execute" in s for s in inline_shape)


def test_the_admit_event_is_on_the_root_before_a_lane_can_finish_it(
    tmp_path, monkeypatch
):
    """The root records ``admit`` before its ticket is queued.  A lane
    worker may finish and export the root before ``submit`` returns, so an
    event added after the put would be missing from the JSONL line and
    would mutate a span another thread finished.  Here every put waits
    until the lane has finished the job, the widest that race opens."""
    path = tmp_path / "trace.jsonl"
    config = dataclasses.replace(
        _config(shards=1, trace_jsonl_path=str(path)),
        serving=ServingConfig(workers_per_shard=1),
    )
    server = QOAdvisorServer(config=config)
    put = ShardQueue.put

    def put_then_wait_for_the_lane(queue, ticket, *args, **kwargs):
        put(queue, ticket, *args, **kwargs)
        deadline = time.monotonic() + 60.0
        while server.stats().jobs_in_flight and time.monotonic() < deadline:
            time.sleep(0.001)

    monkeypatch.setattr(ShardQueue, "put", put_then_wait_for_the_lane)
    server.start()
    ticket = server.submit(server.advisor.workload.jobs_for_day(0)[0])
    server.drain(timeout=60.0)
    assert ticket.trace.finished
    assert ticket.trace.events == [("admit", {"shard": 0})]
    server.shutdown()  # closes the advisor it built, and with it the sink
    (root,) = [
        line
        for line in map(json.loads, path.read_text().splitlines())
        if line["trace"] == ticket.trace.trace_id and line["parent"] is None
    ]
    assert root["events"] == [{"name": "admit", "shard": 0}]


def test_a_rejected_submission_closes_its_root_without_an_admit_event(monkeypatch):
    monkeypatch.setattr(server_module, "_QUEUE_CAPACITY", 1)
    server = QOAdvisorServer(config=_config(shards=1))
    jobs = server.advisor.workload.jobs_for_day(0)
    admitted = server.submit(jobs[0], timeout=0)  # unstarted: fills the slot
    with pytest.raises(QueueFull):
        server.submit(jobs[1], timeout=0)
    (rejected,) = [
        span
        for span in server.advisor.obs.ring.spans()
        if span.name == "job" and span.parent_id is None
    ]
    assert rejected.trace_id != admitted.trace.trace_id
    assert rejected.attrs["rejected"] and rejected.status == "error"
    assert rejected.events == []
    assert admitted.trace.events == [("admit", {"shard": 0})]
    server.shutdown()


def test_window_trace_and_last_window_summary():
    """The last window is ``advisor.reports[-1]``, and its ``window`` root
    span carries its duration, day, jobs, failed jobs and hint version."""
    config = dataclasses.replace(
        _config(), serving=ServingConfig(workers_per_shard=0)
    )
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    report = server.stream_day(0)
    spans = advisor.obs.ring.spans()
    server.shutdown()
    assert advisor.reports[-1] is report
    (window,) = [s for s in spans if s.name == "window"]
    assert window.trace_id == "window:0"
    assert window.parent_id is None
    assert window.duration_s > 0
    assert window.attrs["day"] == 0
    assert window.attrs["jobs"] == len(report.production_runs)
    assert window.attrs["failed"] == len(report.failed_jobs)
    assert window.attrs["hint_version"] == report.hint_version
    stage_children = {
        s.name for s in spans if s.parent_id == window.span_id
    }
    assert any(name.startswith("stage:") for name in stage_children)


#: every series a served day exposes, as (sample name, sorted label keys)
EXPOSITION_SERIES = [
    ("repro_cache_dedup_hits_total", ("shard",)),
    ("repro_cache_evictions_total", ("shard",)),
    ("repro_cache_fragment_hits_total", ("shard",)),
    ("repro_cache_fragment_inserts_total", ("shard",)),
    ("repro_cache_fragment_misses_total", ("shard",)),
    ("repro_cache_hits_total", ("shard",)),
    ("repro_cache_invalidations_total", ("shard",)),
    ("repro_cache_misses_total", ("shard",)),
    ("repro_cache_mqo_preexplored_total", ("shard",)),
    ("repro_cache_optimizer_invocations_total", ("shard",)),
    ("repro_cache_rule_applications_total", ("shard",)),
    ("repro_cache_script_compilations_total", ("shard",)),
    ("repro_cache_winner_hits_total", ("shard",)),
    ("repro_cache_winner_misses_total", ("shard",)),
    ("repro_hint_version", ()),
    ("repro_policy_info", ("mode", "policy", "version")),
    ("repro_serving_compile_latency_seconds", ("quantile", "shard")),
    ("repro_serving_compile_observations_total", ("shard",)),
    ("repro_serving_completed_total", ("shard",)),
    ("repro_serving_failed_total", ("shard",)),
    ("repro_serving_jobs_admitted_total", ()),
    ("repro_serving_jobs_in_flight", ()),
    ("repro_serving_publications_total", ()),
    ("repro_serving_queue_depth", ("shard",)),
    ("repro_serving_queue_depth_max", ("shard",)),
    ("repro_serving_steered_total", ("shard",)),
    ("repro_serving_submitted_total", ("shard",)),
    ("repro_serving_windows_total", ()),
    ("repro_spans_finished_total", ("name",)),
    ("repro_stage_seconds", ("stage",)),
]


def test_exposition_contract_on_a_served_day():
    """The series an operator can scrape after one served day on two
    shards, and the span counter agreeing with the ring it counts."""
    config = dataclasses.replace(
        _config(shards=2), serving=ServingConfig(workers_per_shard=2)
    )
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    server.stream_day(0)
    server.shutdown()
    collected = advisor.obs.metrics.collect()
    series = sorted(
        {
            (sample.name, tuple(sorted(sample.labels)))
            for samples in collected.values()
            for sample in samples
        }
    )
    assert series == EXPOSITION_SERIES
    ring = advisor.obs.ring
    assert ring.total == len(ring.spans()) < ring.capacity  # not wrapped
    finished = {
        sample.labels["name"]: sample.value
        for sample in collected["repro_spans_finished_total"]
    }
    assert finished == Counter(span.name for span in ring.spans())


def test_serving_metric_views():
    config = _config(shards=2)
    config = dataclasses.replace(
        config, serving=ServingConfig(workers_per_shard=2)
    )
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    server.start()
    server.stream_day(0)
    stats = server.stats()
    text = advisor.obs.metrics.exposition()
    for shard in stats.shards:
        assert (
            f'repro_serving_completed_total{{shard="{shard.shard}"}} {shard.completed}'
            in text
        )
    assert f"repro_serving_windows_total {stats.maintenance_windows}" in text
    assert "repro_serving_compile_latency_seconds" in text
    assert "repro_cache_hits_total" in text
    assert 'repro_spans_finished_total{name="window"} 1' in text
    assert f"repro_hint_version {advisor.sis.current_version}" in text
    stages = advisor.obs.metrics.collect()["repro_stage_seconds"]
    assert {s.labels["stage"]: s.value for s in stages} == _stage_spans(
        advisor.obs.ring.spans(), "window"
    )
    server.shutdown()


# -- the stage view -------------------------------------------------------------


def _stage_spans(spans, root_name: str) -> dict[str, float]:
    """``stage name -> duration_s`` of the last ``root_name`` root's
    ``stage:<name>`` children."""
    root = [s for s in spans if s.name == root_name and s.parent_id is None][-1]
    return {
        s.name.removeprefix("stage:"): s.duration_s
        for s in spans
        if s.parent_id == root.span_id and s.name.startswith("stage:")
    }


def test_stage_seconds_project_the_last_days_stage_spans():
    """``repro_stage_seconds`` is one sample per stage span of the last
    finished day or window: a stage that did not run (validation before
    the model is fitted) and a window's production (served per job) have
    no sample, never a fabricated 0.0."""
    advisor = QOAdvisor(_config())
    assert not advisor.pipeline.validation_model.is_fitted
    advisor.run_day(0)
    stages = advisor.obs.metrics.collect()["repro_stage_seconds"]
    by_stage = {s.labels["stage"]: s.value for s in stages}
    assert len(stages) == len(by_stage)  # one sample per stage
    assert by_stage == _stage_spans(advisor.obs.ring.spans(), "day")
    assert set(by_stage) == {
        "production", "features", "recommend", "recompile", "flight"
    }

    server = QOAdvisorServer(advisor)
    server.stream_day(1)
    server.shutdown()
    stages = advisor.obs.metrics.collect()["repro_stage_seconds"]
    by_stage = {s.labels["stage"]: s.value for s in stages}
    assert by_stage == _stage_spans(advisor.obs.ring.spans(), "window")
    assert set(by_stage) == {"features", "recommend", "recompile", "flight"}
    advisor.close()


# -- disabled fast path -------------------------------------------------------


def test_disabled_obs_is_inert():
    advisor = QOAdvisor(_config(obs=False))
    assert not advisor.obs.enabled
    assert advisor.obs.ring is None
    assert not advisor.obs.tracer.enabled
    advisor.run_day(0)
    assert advisor.obs.metrics.exposition() == ""
    advisor.close()


# -- bounded latency buffers (serving/stats) ----------------------------------


def test_lane_latency_buffer_is_bounded_and_reports_p99():
    config = dataclasses.replace(
        _config(obs=False), serving=ServingConfig(workers_per_shard=0)
    )
    advisor = QOAdvisor(config)
    with mock.patch.object(server_module, "_LATENCY_WINDOW", 8):
        server = QOAdvisorServer(advisor)
    server.start()
    server.submit_day(0)
    server.drain()
    stats = server.stats()
    (shard,) = stats.shards
    assert shard.compile_observations > 8  # more history than the window
    lane = server._lanes[0]
    assert len(lane.compile_latency) <= 8
    assert shard.compile_p99_s is not None
    assert shard.compile_p50_s <= shard.compile_p95_s <= shard.compile_p99_s
    assert "p99" in stats.render()
    server.shutdown()


def test_fresh_lane_percentiles_are_none_not_zero():
    config = _config(obs=False)
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    (shard,) = server.stats().shards
    assert shard.compile_p50_s is None
    assert shard.compile_p95_s is None
    assert shard.compile_p99_s is None
    assert shard.compile_observations == 0
    server.shutdown()
