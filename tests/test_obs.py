"""Observability plane: tracing, pull-mode metrics, and the no-op path.

The contracts under test:

* **span parenting** — nested spans parent correctly; ``child_span`` only
  creates when a parent exists; ``attach`` propagates without creating or
  finishing; ``start``/``finish`` survive double-finish;
* **trace completeness** — every admitted serving job produces exactly
  one *closed* root span, with the same child-stage set on the inline
  schedule and on threaded workers, on one shard and on two;
* **schedule independence** — the batch pipeline's span multiset is
  identical at 1 worker and 4 workers;
* **fingerprint neutrality** — ``DayReport.fingerprint()`` and
  ``CacheStats.core()`` are byte-identical with observability on, off,
  sharded and threaded (instrumentation is counter-free);
* **metrics** — pull-mode views (replace-by-name, exceptions contained),
  Prometheus text exposition, and the exact series set a served day
  exposes;
* **bounded latency buffers** — lanes keep a fixed-size compile-latency
  ring; percentiles (now including p99) stay ``None`` until measured;
* **last-window summary** — ``ServerStats.last_window`` reports the most
  recent maintenance window's day, wall-clock and published hint version.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections import Counter

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
from repro.serving.stats import LatencyRing, WindowSummary, percentile


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


def test_window_trace_and_last_window_summary():
    report, stats, spans = _serve_day(0, 1)
    windows = [s for s in spans if s.name == "window"]
    assert len(windows) == 1
    assert windows[0].trace_id == "window:0"
    assert windows[0].parent_id is None
    stage_children = {
        s.name for s in spans if s.parent_id == windows[0].span_id
    }
    assert any(name.startswith("stage:") for name in stage_children)
    assert isinstance(stats.last_window, WindowSummary)
    assert stats.last_window.day == 0
    assert stats.last_window.jobs == len(report.production_runs)
    assert stats.last_window.wall_s > 0
    assert stats.last_window.hint_version == report.hint_version
    assert "last window" in stats.render()


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
    ("repro_serving_requeued_total", ("shard",)),
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
    report = server.stream_day(0)
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
    assert {s.labels["stage"]: s.value for s in stages} == report.stage_timings
    server.shutdown()


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


def test_latency_ring_bounds_and_percentiles():
    ring = LatencyRing(4)
    assert percentile(ring.snapshot(), 99) is None  # unmeasured stays None
    for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        ring.append(value)
    assert len(ring) == 4
    assert ring.total == 6
    assert ring.snapshot() == [3.0, 4.0, 5.0, 6.0]
    with pytest.raises(ValueError):
        LatencyRing(0)


def test_lane_latency_buffer_is_bounded_and_reports_p99():
    config = dataclasses.replace(
        _config(obs=False), serving=ServingConfig(workers_per_shard=0)
    )
    advisor = QOAdvisor(config)
    server = QOAdvisorServer(advisor)
    server._lanes[0].compile_latency = LatencyRing(8)
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
