"""Sharded multi-cluster layer: routing, shared SIS, byte-identity.

The contract under test: a sharded run — jobs stable-hash partitioned
across the one engine's N shard compilation services, each with its own
plan cache over the one catalog, hints flowing through one shared SIS —
produces a
``DayReport.fingerprint()`` byte-identical to the single-shard serial run,
and its per-shard cache stats sum to exactly the single cache's counters.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import QOAdvisor, QOAdvisorServer, ScopeEngine, ShardRouter, SimulationConfig
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ServingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.errors import ScopeError
from repro.parallel import SerialExecutor
from repro.scope.cache import CacheStats, CompilationService, CompileRequest
from repro.sis.hints import HintEntry
from repro.sis.service import SISService
from repro.scope.optimizer.rules.base import RuleFlip
from repro.workload.generator import build_workload


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


# -- the router ---------------------------------------------------------------


def test_router_is_stable_and_in_range():
    router = ShardRouter(4)
    again = ShardRouter(4)
    for index in range(200):
        template = f"tmpl-{index:04d}"
        shard = router.shard_for(template)
        assert 0 <= shard < 4
        # pure function of the template id: stable across router instances
        assert shard == again.shard_for(template)


def test_router_spreads_templates_across_all_shards():
    router = ShardRouter(3)
    counts = [0, 0, 0]
    for index in range(300):
        counts[router.shard_for(f"tmpl-{index:04d}")] += 1
    assert all(count > 0 for count in counts)


def test_router_rejects_nonpositive_shard_count():
    with pytest.raises(ValueError):
        ShardRouter(0)


def test_partition_preserves_order_and_template_affinity(tiny_workload):
    router = ShardRouter(3)
    jobs = tiny_workload.jobs_for_day(0)
    groups: dict[int, list] = {}
    for job in jobs:
        groups.setdefault(router.shard_for_job(job), []).append(job)
    regrouped = [job for shard in sorted(groups) for job in groups[shard]]
    assert sorted(job.job_id for job in regrouped) == sorted(job.job_id for job in jobs)
    for shard, members in groups.items():
        # every instance of a template lands on that template's shard
        assert all(router.shard_for(job.template_id) == shard for job in members)
        # order within a shard follows submission order
        positions = [jobs.index(job) for job in members]
        assert positions == sorted(positions)


# -- engine structure ---------------------------------------------------------


def _engine(config: SimulationConfig):
    workload = build_workload(config)
    return workload, ScopeEngine(workload.catalog, config, workload.registry)


def test_shards_read_the_one_catalog_and_own_their_caches():
    workload, engine = _engine(_config(shards=3))
    workload.jobs_for_day(0)
    workload.jobs_for_day(2)
    services = engine.compilation.shards
    assert len(services) == 3
    assert all(service.engine is engine for service in services)
    assert engine.catalog is workload.catalog
    for owned in (
        services,
        [service.cache for service in services],
        [service.fragments for service in services],
        [service._lock for service in services],
    ):
        assert len({id(thing) for thing in owned}) == 3


def test_a_compile_lands_on_its_templates_home_shard():
    """A served job steers on its template's home lane and compiles on
    that shard's service alone, and there is one engine over the
    workload's catalog, so the answer is the engine's raw compile/optimize
    (the analysis harnesses' door) on the same day's statistics."""
    server = QOAdvisorServer(config=_config(shards=2, workers_per_shard=0))
    engine = server.advisor.engine
    job = server.advisor.workload.jobs_for_day(3)[0]
    home = engine.router.shard_for_job(job)
    server.start()
    ticket = server.submit(job)
    server.drain(timeout=60.0)
    assert ticket.shard == home and not ticket.failed
    assert engine.compilation.shards[home].stats.misses == 1
    assert engine.compilation.shards[1 - home].stats.misses == 0
    routed = ticket.run.result
    raw = engine.optimize(engine.compile(job.script), engine.configuration_for(job))
    assert (routed.plan.pretty(), routed.est_cost) == (raw.plan.pretty(), raw.est_cost)
    server.shutdown()


def test_sis_upload_drops_no_shard_entry_and_reaches_every_shard():
    workload, engine = _engine(_config(shards=3))
    sis = SISService(workload.registry)
    sis.attach(engine)
    jobs = workload.jobs_for_day(0)
    for job in jobs:
        try:
            engine.compile_job(job)
        except ScopeError:
            pass  # failures are memoized entries too; residency is the point

    def resident() -> list[tuple[int, int]]:
        return [
            (len(service.cache), len(service.fragments))
            for service in engine.compilation.shards
        ]

    before = resident()
    assert any(plans > 0 for plans, _ in before)
    stats = engine.compilation.stats
    rule = workload.registry.by_name("LocalGlobalAggregation").rule_id
    sis.upload([HintEntry(jobs[0].template_id, RuleFlip(rule, True))], day=1)
    # a publication is one rebinding of the active set: no shard drops an
    # entry, and a job of another template is still a hit
    assert resident() == before
    bystander = next(job for job in jobs if job.template_id != jobs[0].template_id)
    try:
        engine.compile_job(bystander)
    except ScopeError:
        pass
    delta = engine.compilation.stats - stats
    assert (delta.hits, delta.misses, delta.invalidations) == (1, 0, 0)
    # ...and the shared lookup reaches every shard's compile path
    hinted = RuleFlip(rule, True).apply_to(engine.default_config)
    assert all(
        service.engine.configuration_for(jobs[0]) == hinted
        for service in engine.compilation.shards
    )


def test_cluster_compile_script_and_span_computer_work():
    """A raw script compiles on its template's owning shard service, and
    spans route there too."""
    from repro.core.spans import SpanComputer

    workload, engine = _engine(_config(shards=2))
    job = workload.jobs_for_day(0)[0]
    owner = engine.compilation.service_for(job.template_id)
    result = owner.compile_script(job.script, engine.default_config)
    # the job's own compile is the same key on the same shard: a cache hit
    assert engine.compile_job(job, use_hints=False) is result
    # a routed span is what the owning shard computes for the raw script
    routed = SpanComputer(engine).span_for_template(job.template_id, job.script)
    assert routed == SpanComputer(engine).compute(job.script, owner)


def test_cluster_routes_jobs_to_owning_shard():
    workload, engine = _engine(_config(shards=3))
    job = workload.jobs_for_day(0)[0]
    owner = engine.router.shard_for_job(job)
    engine.compile_job(job)
    for index, service in enumerate(engine.compilation.shards):
        expected = 1 if index == owner else 0
        assert service.stats.optimizer_invocations == expected


# -- byte-identity across topologies ------------------------------------------


def test_sharded_run_day_matches_single_shard_serial():
    single = QOAdvisor(_config(workers=1, shards=1))
    sharded = QOAdvisor(_config(workers=4, shards=3))
    baseline = single.run_day(0)
    report = sharded.run_day(0)
    assert report.fingerprint() == baseline.fingerprint()
    # the aggregate cache accounting matches the single cache exactly...
    assert report.cache_stats == baseline.cache_stats
    # ...and the per-shard breakdown sums to it
    assert len(report.shard_cache_stats) == 3
    total = CacheStats()
    for stats in report.shard_cache_stats.values():
        total = total + stats
    assert total == report.cache_stats
    # every shard did real work: the caches partition the working set
    assert all(
        stats.optimizer_invocations > 0 for stats in report.shard_cache_stats.values()
    )
    assert list(baseline.shard_cache_stats) == [0]
    sharded.close()
    single.close()


def test_sharded_multi_day_simulation_matches_single_shard():
    single = QOAdvisor(_config(workers=1, shards=1, seed=91))
    sharded = QOAdvisor(_config(workers=4, shards=2, seed=91))
    single_reports = single.simulate(start_day=0, days=3, learned_after=1)
    sharded_reports = sharded.simulate(start_day=0, days=3, learned_after=1)
    assert [r.fingerprint() for r in single_reports] == [
        r.fingerprint() for r in sharded_reports
    ]
    sharded.close()
    single.close()


def test_sharded_bootstrap_corpus_matches_single_shard():
    single = QOAdvisor(_config(workers=1, shards=1, seed=77))
    sharded = QOAdvisor(_config(workers=4, shards=2, seed=77))

    def trace(results):
        return [
            (r.job.job_id, r.status.value, round(r.flight_seconds, 9), r.day)
            for r in results
        ]

    single_corpus = single.pipeline.bootstrap_validation_model(
        start_day=0, days=4, flights_per_day=8
    )
    sharded_corpus = sharded.pipeline.bootstrap_validation_model(
        start_day=0, days=4, flights_per_day=8
    )
    assert trace(single_corpus) == trace(sharded_corpus)
    assert len(single_corpus) > 0
    assert single.engine.compilation.stats == sharded.engine.compilation.stats
    sharded.close()
    single.close()


# -- batch compiles: route, then delegate --------------------------------------

#: ``dataclasses.asdict`` of each shard's cumulative CacheStats after the tiny
#: config ran days 0-2 on 2 shards and a SerialExecutor — captured on the
#: commit *before* the cluster's batch compile became route-then-delegate
#: (when it still pulled every shard's units into one cross-shard table), so
#: every counter, work telemetry included, is held to that implementation's.
#: Re-captured when span probes of rules that cannot bind stopped being
#: compiled (shard 0 / 1 invocations 66 -> 45 / 99 -> 53, the other moved
#: counters following from those compiles; hits, scripts, dedups unchanged).
#: Re-captured again when single flips the default plan proves inert stopped
#: being compiled (shard 0 / 1 invocations 45 -> 28 / 53 -> 40; hits 15 ->
#: 37 / 23 -> 40, one counted default-plan lookup per single-flip leader
#: miss; misses 45 -> 47 / 53 -> 54 and invalidations 37 -> 39 / 40 -> 41,
#: the default plans of manually hinted jobs compiled as their flip's
#: reference; fragment, winner and application counters follow the compiles
#: not run; evictions, scripts, dedups, pre-explored unchanged).
#: Re-captured when the learner began regressing the advantage over the
#: no-op: shard 1's learned days recompile one flip fewer — an inert flip
#: answered from its default plan — so its hits 40 -> 38, misses 54 -> 53 and
#: invalidations 41 -> 40; no other counter, and nothing on shard 0, moved.
#: Re-captured when physical-winner replay went: winner_misses 8 / 7 -> 0
#: (both winner fields are always 0 now); no other counter moved
_PARENT_SHARD_STATS = {
    0: {
        "hits": 37, "misses": 47, "evictions": 0, "invalidations": 39,
        "optimizer_invocations": 28, "script_compilations": 15, "dedup_hits": 1,
        "fragment_hits": 2, "fragment_misses": 6, "fragment_inserts": 6,
        "rule_applications": 6026, "mqo_preexplored": 3,
        "winner_hits": 0, "winner_misses": 0,
    },
    1: {
        "hits": 38, "misses": 53, "evictions": 0, "invalidations": 40,
        "optimizer_invocations": 40, "script_compilations": 24, "dedup_hits": 1,
        "fragment_hits": 1, "fragment_misses": 6, "fragment_inserts": 6,
        "rule_applications": 8452, "mqo_preexplored": 3,
        "winner_hits": 0, "winner_misses": 0,
    },
}


def test_per_shard_counters_match_the_cross_shard_implementation(tiny_config):
    config = dataclasses.replace(
        tiny_config,
        execution=ExecutionConfig(workers=1),
        sharding=ShardingConfig(shards=2),
    )
    advisor = QOAdvisor(config)
    assert isinstance(advisor.pipeline.executor, SerialExecutor)
    advisor.simulate(start_day=0, days=3, learned_after=1)
    stats = advisor.engine.compilation.per_shard_stats()
    assert {
        shard: dataclasses.asdict(counters) for shard, counters in stats.items()
    } == _PARENT_SHARD_STATS
    advisor.close()


def test_cross_shard_batch_equals_each_shards_own_compile_many():
    """One batch with a duplicate pair, a flip that cannot compile and jobs
    owned by both shards: the engine's answer and accounting are exactly
    what each shard's own ``compile_many`` gives on its slice."""
    config = _config(shards=2)

    def fresh():
        return _engine(config)

    workload, engine = fresh()
    jobs = workload.jobs_for_day(0)
    by_shard: dict[int, list] = {}
    for job in jobs:
        by_shard.setdefault(engine.router.shard_for_job(job), []).append(job)
    assert sorted(by_shard) == [0, 1]
    no_aggregate = RuleFlip(
        engine.registry.by_name("HashAggregateImpl").rule_id, turn_on=False
    )
    failing = next(
        request
        for request in (CompileRequest(job, no_aggregate, use_hints=False) for job in jobs)
        if isinstance(engine.compilation.compile_many([request])[0], ScopeError)
    )

    workload, engine = fresh()
    workload.jobs_for_day(0)
    requests = [
        CompileRequest(by_shard[1][0]),
        CompileRequest(by_shard[0][0]),
        failing,
        CompileRequest(by_shard[1][0]),  # folds into request 0
        CompileRequest(by_shard[0][-1]),
        CompileRequest(by_shard[1][-1]),
    ]
    results = engine.compilation.compile_many(requests, SerialExecutor())

    twin_workload, twin = fresh()
    twin_workload.jobs_for_day(0)
    expected: list = [None] * len(requests)
    for shard, service in enumerate(twin.compilation.shards):
        positions = [
            position
            for position, request in enumerate(requests)
            if twin.router.shard_for_job(request.job) == shard
        ]
        outcomes = service.compile_many(
            [requests[position] for position in positions], SerialExecutor()
        )
        for position, outcome in zip(positions, outcomes):
            expected[position] = outcome

    assert len(results) == len(requests)
    assert results[3] is results[0]
    assert isinstance(results[2], ScopeError) and isinstance(expected[2], ScopeError)
    for got, want in zip(results, expected):
        if isinstance(want, ScopeError):
            assert (type(got), str(got)) == (type(want), str(want))
        else:
            assert (got.plan.pretty(), got.est_cost) == (want.plan.pretty(), want.est_cost)
    ours = engine.compilation.per_shard_stats()
    theirs = twin.compilation.per_shard_stats()
    assert ours == theirs  # every counter, dedup_hits and work telemetry included
    assert sum(stats.dedup_hits for stats in ours.values()) == 1
    assert all(stats.optimizer_invocations > 0 for stats in ours.values())


def test_analysis_harnesses_accept_a_sharded_cluster():
    """A sharded advisor's engine feeds the analysis harnesses' raw
    compile/optimize paths like a one-shard engine."""
    from repro.analysis.stability import run_stability_study
    from repro.analysis.variance import run_aa_variance_study

    advisor = QOAdvisor(_config(workers=1, shards=2, seed=13))
    jobs = advisor.workload.jobs_for_day(0)
    variance = run_aa_variance_study(advisor.engine, jobs, runs=2, max_jobs=3)
    assert variance.latency_cv
    stability = run_stability_study(
        advisor.engine, advisor.workload, week0_day=0, week1_day=1, max_jobs=2
    )
    assert stability is not None  # ran to completion on the sharded engine
    advisor.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_closed_advisor_stays_correct_on_a_new_day(shards):
    """``close()`` releases threads and the obs plane, nothing a compile
    reads: an advisor driven onto a new day after it sees that day's
    statistics, exactly like one that was never closed."""

    def second_day(close_between: bool):
        advisor = QOAdvisor(_config(workers=1, shards=shards))
        advisor.run_day(0)
        if close_between:
            advisor.close()
        report = advisor.run_day(1)
        advisor.close()
        return report.decisions_digest(), report.cache_stats.core()

    assert second_day(close_between=True) == second_day(close_between=False)


def test_single_shard_advisor_is_a_cluster_of_one():
    from tests.test_policies import GOLDEN_FINGERPRINTS

    advisor = QOAdvisor(_config(workers=1, shards=1))
    assert type(advisor.engine) is ScopeEngine
    assert len(advisor.engine.compilation.shards) == 1
    reports = advisor.simulate(start_day=0, days=3, learned_after=1)
    assert [report.fingerprint() for report in reports] == GOLDEN_FINGERPRINTS
    advisor.close()


def test_a_two_shard_advisor_holds_one_engine_and_two_shard_services():
    """A shard is a compilation service of the advisor's one engine, not a
    second engine: one data model, one runtime, one hint lookup."""
    advisor = QOAdvisor(_config(workers=1, shards=2))
    shards = advisor.engine.compilation.shards
    assert len(shards) == 2
    assert all(type(service) is CompilationService for service in shards)
    assert all(service.engine is advisor.engine for service in shards)
    assert shards[0] is not shards[1]
    advisor.close()
