"""Elastic shard membership: resize, rejoin, warm-up, accounting parity.

The contracts under test:

* **router elasticity** — slots go online/offline with minimal template
  movement (rendezvous failover), previews are pure, and a rejoined fleet
  routes exactly like one that never changed;
* **resize** — ``engine.compilation.add_shard`` builds the next slot's
  service offline and ``router.bring_online`` puts it in rotation; a routed
  compile answers like the engine's raw compile/optimize, whichever slots
  are in rotation (there is one engine and one catalog);
* **warm-up migration** — templates that change owner take their cached
  plans with them, so the new owner serves its first routed batch from a
  hot cache and no cache counter moves;
* **mid-stream resize parity** — a day streamed through N→N+1→N topology
  changes (resizes at drained instants) loses zero jobs and produces the
  same drained-window ``DayReport.fingerprint()`` (including the cache
  accounting) as the static-topology batch run;
* **fail / retire → rejoin** — ``unfail_shard`` reverses ``fail_shard``
  and ``retire_shard``; a fleet that lost and rejoined a shard replays its
  days byte-identically to one that never changed (the
  routing-determinism revalidation).
"""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro import (
    QOAdvisor,
    QOAdvisorServer,
    ScopeEngine,
    ServingConfig,
    ShardRouter,
    SimulationConfig,
)
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.workload.generator import build_workload


def _config(workers: int = 1, shards: int = 1, seed: int = 555) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers, backend="thread"),
        sharding=ShardingConfig(shards=shards),
    )


_TEMPLATES = [f"tmpl-{index:04d}" for index in range(200)]


# -- router elasticity --------------------------------------------------------


def test_keyspace_extension_leaves_skipped_slots_offline():
    router = ShardRouter(2)
    router.bring_online(3)  # extends the keyspace past slot 2
    assert router.num_shards == 4 and router.alive_slots == [0, 1, 3]
    for template in _TEMPLATES:
        assert router.shard_for(template) in (0, 1, 3)
    router.bring_online(2)
    assert router.alive_slots == [0, 1, 2, 3]
    assert any(router.shard_for(t) == 2 for t in _TEMPLATES)
    fresh = ShardRouter(4)
    for template in _TEMPLATES:
        assert router.shard_for(template) == fresh.shard_for(template)


def test_bring_online_moves_only_templates_bound_for_the_new_slot():
    router = ShardRouter(4)
    router.take_offline(2)
    router.take_offline(3)
    before = {t: router.shard_for(t) for t in _TEMPLATES}
    router.bring_online(2)
    after = {t: router.shard_for(t) for t in _TEMPLATES}
    moved = {t for t in _TEMPLATES if before[t] != after[t]}
    assert moved  # the join attracted real ownership
    # every move targets the joining slot: live shards keep their keyspace
    assert all(after[t] == 2 for t in moved)


def test_take_offline_moves_only_the_leaving_slots_templates():
    router = ShardRouter(3)
    before = {t: router.shard_for(t) for t in _TEMPLATES}
    router.take_offline(1)
    after = {t: router.shard_for(t) for t in _TEMPLATES}
    for template in _TEMPLATES:
        if before[template] != 1:
            assert after[template] == before[template]
        else:
            assert after[template] != 1
    with pytest.raises(ValueError):
        ShardRouter(1).take_offline(0)  # the last slot cannot leave


def test_preview_is_pure_and_matches_the_applied_change():
    router = ShardRouter(2)
    preview = router.preview(online={2})
    assert router.num_shards == 2 and router.offline == set()  # untouched
    applied = ShardRouter(2)
    applied.bring_online(2)
    for template in _TEMPLATES:
        assert preview.shard_for(template) == applied.shard_for(template)


def test_rejoined_router_routes_like_a_never_changed_one():
    router = ShardRouter(3)
    router.take_offline(2)
    router.bring_online(2)
    fresh = ShardRouter(3)
    for template in _TEMPLATES:
        assert router.shard_for(template) == fresh.shard_for(template)


def test_keyspace_extension_matches_a_fresh_router():
    router = ShardRouter(2)
    router.bring_online(2)
    fresh = ShardRouter(3)
    for template in _TEMPLATES:
        assert router.shard_for(template) == fresh.shard_for(template)


# -- resize -------------------------------------------------------------------


def _engine(shards: int):
    config = _config(shards=shards)
    workload = build_workload(config)
    return workload, ScopeEngine(workload.catalog, config, workload.registry)


def test_cluster_provision_builds_offline_and_activate_joins_rotation():
    _, engine = _engine(shards=2)
    slot = engine.compilation.add_shard()
    assert slot == 2 and len(engine.compilation.shards) == 3
    assert engine.router.alive_slots == [0, 1]  # built, not yet routed to
    engine.router.bring_online(slot)
    assert engine.router.alive_slots == [0, 1, 2]
    assert engine.compilation.shards[slot].engine is engine


def test_routed_compile_answers_like_the_raw_engine_with_slot_zero_offline():
    """There is one engine over the workload's catalog, so whichever shard
    a job routes to, its cached compile is the engine's raw
    compile/optimize (the analysis harnesses' door) on the same day's
    statistics."""
    workload, engine = _engine(shards=2)
    engine.router.take_offline(0)
    job = workload.jobs_for_day(3)[0]
    routed = engine.compile_job(job, use_hints=False)
    assert engine.compilation.shards[1].stats.misses == 1
    assert engine.compilation.shards[0].stats.misses == 0
    raw = engine.optimize(engine.compile(job.script), engine.configuration_for(job))
    assert (routed.plan.pretty(), routed.est_cost) == (raw.plan.pretty(), raw.est_cost)


# -- server-level elasticity --------------------------------------------------


def test_add_shard_warmup_prepopulates_the_new_shards_cache():
    """The moved templates' cached plans migrate to the joining shard, so
    its first routed compile is a cache *hit* with zero optimizer work."""
    server = QOAdvisorServer(
        config=_config(shards=2), serving=ServingConfig(workers_per_shard=0)
    )
    server.start()
    jobs = server.submit_day(0)
    engine = server.advisor.engine
    before = {t.job.template_id: server.router.shard_for(t.job.template_id) for t in jobs}
    slot = server.add_shard()
    moved_jobs = [
        t.job
        for t in jobs
        if server.router.shard_for(t.job.template_id) == slot
        and before[t.job.template_id] != slot
    ]
    assert moved_jobs  # the resize moved real, already-served templates
    new_stats = engine.compilation.shards[slot].stats
    base = new_stats.snapshot()
    result = engine.compile_job(moved_jobs[0])
    delta = new_stats - base
    assert result is not None
    assert delta.hits == 1 and delta.misses == 0
    assert delta.optimizer_invocations == 0  # served entirely from warm-up
    server.shutdown()


def _resized_day(start: int, workers_per_shard: int) -> None:
    """Day 0 streamed in thirds through start → start+1 → start resizes at
    drained instants: zero job loss, drained-window fingerprint parity with
    the static one-shard batch run (cache accounting included)."""
    batch = QOAdvisor(_config(shards=1))
    baseline = batch.run_day(0)
    batch.close()

    server = QOAdvisorServer(
        config=_config(shards=start),
        serving=ServingConfig(workers_per_shard=workers_per_shard),
    )
    server.start()
    jobs = server.advisor.workload.jobs_for_day(0)
    third = max(1, len(jobs) // 3)

    def submit_chunk(chunk):
        threads = [
            threading.Thread(target=server.submit, args=(job,)) for job in chunk
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    submit_chunk(jobs[:third])
    server.drain(timeout=120.0)
    added = server.add_shard()
    assert added == start and server.num_shards == start + 1
    submit_chunk(jobs[third : 2 * third])
    server.drain(timeout=120.0)
    requeued = server.retire_shard(1)
    assert requeued == 0  # drained: nothing was waiting
    submit_chunk(jobs[2 * third :])
    server.drain(timeout=120.0)
    report = server.run_maintenance(0)

    assert report.fingerprint() == baseline.fingerprint()
    # every counter matches the static batch run except mqo_preexplored,
    # which is honestly schedule-shaped: the batch day pre-explores at day
    # open, while the serving lanes compile each job as it arrives
    assert dataclasses.replace(
        report.cache_stats, mqo_preexplored=0
    ) == dataclasses.replace(baseline.cache_stats, mqo_preexplored=0)
    # zero loss: every submitted job id shows up in the day report
    reported = {run.job.job_id for run in report.production_runs} | set(
        report.failed_jobs
    )
    assert {job.job_id for job in jobs} == reported
    stats = server.stats()
    assert stats.jobs_in_flight == 0
    assert stats.shards[1].retired and not stats.shards[1].alive
    # new arrivals avoid the retired lane
    followup = server.submit(server.advisor.workload.jobs_for_day(0)[0])
    assert followup.shard != 1
    server.drain(timeout=60.0)
    server.shutdown()


def test_mid_stream_resize_parity_and_zero_loss_threaded():
    """The acceptance contract: N→N+1 and N+1→N resizes mid-day, threaded
    submission."""
    _resized_day(start=2, workers_per_shard=2)


def test_one_shard_server_is_elastic():
    """A single-engine deployment is a cluster of one: it grows and shrinks
    like any other, here on the inline schedule."""
    _resized_day(start=1, workers_per_shard=0)


@pytest.mark.parametrize("take_out", ["fail_shard", "retire_shard"])
def test_fail_rejoin_replay_matches_a_never_failed_run(take_out):
    """The unfail path: lose a lane mid-stream (killed or retired), rejoin it
    mid-stream, and the drained day — and the day after, served by the
    rejoined lane's kept shard service — is byte-identical to a fleet that never
    changed; exclusion sets no longer poison the fleet."""
    reference = QOAdvisorServer(
        config=_config(shards=3), serving=ServingConfig(workers_per_shard=0)
    )
    expected = [reference.stream_day(0), reference.stream_day(1)]
    reference.shutdown()

    server = QOAdvisorServer(
        config=_config(shards=3), serving=ServingConfig(workers_per_shard=0)
    )
    server.start()
    jobs = server.advisor.workload.jobs_for_day(0)
    third = max(1, len(jobs) // 3)
    for job in jobs[:third]:
        server.submit(job)
    victim = 1
    getattr(server, take_out)(victim)
    assert victim in server.router.offline
    lost = server.stats().shards[victim]
    assert not lost.alive and lost.retired == (take_out == "retire_shard")
    for job in jobs[third : 2 * third]:
        ticket = server.submit(job)
        assert ticket.shard != victim  # failover routing held
    service = server.advisor.engine.compilation.shards[victim]
    rebalanced = server.unfail_shard(victim)
    assert rebalanced == 0  # inline schedule: nothing was queued
    assert victim not in server.router.offline
    assert server.advisor.engine.compilation.shards[victim] is service  # kept
    back = server.stats().shards[victim]
    assert back.alive and not back.retired
    for job in jobs[2 * third :]:
        server.submit(job)
    server.drain(timeout=60.0)
    reports = [server.run_maintenance(0)]
    # routing determinism revalidated: the fleet routes like a fresh one
    fresh = ShardRouter(3)
    for job in jobs:
        assert server.router.shard_for(job.template_id) == fresh.shard_for(
            job.template_id
        )
    # the rejoined lane serves traffic again
    reports.append(server.stream_day(1))
    assert server.stats().shards[victim].completed > 0
    server.shutdown()

    for report, want in zip(reports, expected):
        assert report.fingerprint() == want.fingerprint()
        assert report.cache_stats == want.cache_stats


def test_unfail_is_a_noop_on_a_live_shard():
    server = QOAdvisorServer(
        config=_config(shards=2), serving=ServingConfig(workers_per_shard=0)
    )
    assert server.unfail_shard(1) == 0  # alive: nothing to do
    server.shutdown()
