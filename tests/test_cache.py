"""CompilationService / PlanCache tests: accounting, LRU, invalidation.

The cache contract: a hit must be indistinguishable from a fresh
compilation (optimization under a fixed configuration and catalog is
deterministic), and a stale plan must never be served — neither under a
new SIS hint version (the hint is in the key, so a publication clears
nothing) nor under a new catalog day (the one thing that purges entries).
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.config import CacheConfig, SimulationConfig
from repro.core.recommend import Recommendation
from repro.errors import ScopeError
from repro.scope import cache as cache_module
from repro.scope.cache import CompileRequest, PlanCache
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.rules.base import RuleFlip
from repro.sis.hints import HintEntry
from repro.sis.service import SISService
from tests.conftest import plan_identity


def make_engine(small_catalog, **cache_kwargs) -> ScopeEngine:
    config = dataclasses.replace(
        SimulationConfig(seed=101), cache=CacheConfig(**cache_kwargs)
    )
    return ScopeEngine(small_catalog, config)


@pytest.fixture()
def fresh_engine(small_catalog) -> ScopeEngine:
    return make_engine(small_catalog)


@pytest.fixture()
def two_plan_cache(monkeypatch) -> None:
    """Every service built in the test holds two plans."""
    monkeypatch.setattr(cache_module, "_PLAN_CAPACITY", 2)


# -- hit/miss accounting ------------------------------------------------------


def test_hit_and_miss_accounting(fresh_engine, join_agg_job):
    stats = fresh_engine.compilation.shards[0].stats  # live counters
    first = fresh_engine.compile_job(join_agg_job)
    assert (stats.hits, stats.misses, stats.optimizer_invocations) == (0, 1, 1)
    second = fresh_engine.compile_job(join_agg_job)
    assert (stats.hits, stats.misses, stats.optimizer_invocations) == (1, 1, 1)
    assert second is first  # memoized object, not a recompute
    assert stats.hit_rate == 0.5


def test_distinct_configurations_are_distinct_entries(fresh_engine, join_agg_job):
    fresh_engine.compile_job(join_agg_job)
    flip_rule = fresh_engine.registry.by_name("LocalGlobalAggregation").rule_id
    fresh_engine.compile_job(join_agg_job, RuleFlip(flip_rule, True))
    stats = fresh_engine.compilation.stats
    assert stats.misses == 2 and stats.optimizer_invocations == 2
    # ...but the parsed script is shared between the two configurations
    assert stats.script_compilations == 1


def test_cached_compilation_matches_uncached(fresh_engine, join_agg_job):
    cached = fresh_engine.compile_job(join_agg_job)
    cached_again = fresh_engine.compile_job(join_agg_job)  # served from cache
    uncached = fresh_engine.compile_job_uncached(join_agg_job)
    assert cached_again.est_cost == uncached.est_cost
    assert cached_again.signature.rule_ids == uncached.signature.rule_ids
    assert cached_again.config == uncached.config
    # executing both plans under the same run key gives identical metrics
    run_key = join_agg_job.run_key()
    assert fresh_engine.execute(cached_again, run_key) == fresh_engine.execute(
        uncached, run_key
    )


def test_compile_failures_are_memoized(fresh_engine):
    bad = JobInstance("j-bad", "t-bad", "bad", "this is not scope !!", day=0)
    with pytest.raises(ScopeError):
        fresh_engine.compile_job(bad)
    with pytest.raises(ScopeError):
        fresh_engine.compile_job(bad)
    stats = fresh_engine.compilation.stats
    assert stats.optimizer_invocations == 1 and stats.hits == 1


# -- LRU bounds ---------------------------------------------------------------


def test_eviction_enforced_at_checkpoint(
    small_catalog, join_agg_job, simple_job, copy_job, two_plan_cache
):
    """Capacity is a steady-state bound: within an epoch the cache only
    grows (which is what makes hit/miss accounting schedule-independent);
    the checkpoint barrier trims it back deterministically."""
    engine = make_engine(small_catalog)
    jobs = [join_agg_job, simple_job, copy_job]
    for job in jobs:
        engine.compile_job(job)
    service = engine.compilation.shards[0]
    stats = service.stats
    # no eviction mid-epoch: all three entries are resident
    assert len(service.cache) == 3
    assert stats.evictions == 0
    engine.compilation.checkpoint()
    assert len(service.cache) == 2
    assert stats.evictions == 1
    # exactly one of the three is gone: recompiling all of them costs one
    # optimizer run, and which one was evicted never depends on scheduling
    before = stats.optimizer_invocations
    for job in jobs:
        engine.compile_job(job)
    assert stats.optimizer_invocations == before + 1
    assert stats.hits == 2


def test_epoch_recency_protects_recently_hit_entries(
    small_catalog, join_agg_job, simple_job, copy_job, two_plan_cache
):
    engine = make_engine(small_catalog)
    engine.compile_job(join_agg_job)
    engine.compile_job(simple_job)
    engine.compilation.checkpoint()  # both entries now carry epoch 0
    engine.compile_job(join_agg_job)  # hit: refreshed to epoch 1
    engine.compile_job(copy_job)  # inserted at epoch 1
    engine.compilation.checkpoint()  # evicts simple (the only epoch-0 entry)
    engine.compile_job(join_agg_job)  # still resident: a hit
    engine.compile_job(copy_job)  # still resident: a hit
    assert engine.compilation.stats.hits == 3
    engine.compile_job(simple_job)  # evicted: a fresh miss
    assert engine.compilation.stats.hits == 3


def test_checkpoint_eviction_order_is_schedule_independent(
    small_catalog, join_agg_job, simple_job, copy_job, two_plan_cache
):
    """Two services fed the same keys in different orders evict the same
    victims at the checkpoint — recency is epoch-granular and ties break on
    the key, never on access order."""
    orders = [
        [join_agg_job, simple_job, copy_job],
        [copy_job, join_agg_job, simple_job],
    ]
    survivors = []
    for order in orders:
        engine = make_engine(small_catalog)
        for job in order:
            engine.compile_job(job)
        engine.compilation.checkpoint()
        # probing residency: hits don't change the resident set
        resident = set()
        for job in (join_agg_job, simple_job, copy_job):
            hits_before = engine.compilation.stats.hits
            engine.compile_job(job)
            if engine.compilation.stats.hits > hits_before:
                resident.add(job.job_id)
        survivors.append(resident)
    assert survivors[0] == survivors[1]
    assert len(survivors[0]) == 2


def test_plan_cache_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# -- batch API ----------------------------------------------------------------


def test_compile_many_deduplicates(fresh_engine, join_agg_job, simple_job):
    requests = [
        CompileRequest(join_agg_job, use_hints=False),
        CompileRequest(simple_job, use_hints=False),
        CompileRequest(join_agg_job, use_hints=False),
        CompileRequest(join_agg_job, use_hints=False),
    ]
    results = fresh_engine.compilation.compile_many(requests)
    stats = fresh_engine.compilation.stats
    assert stats.optimizer_invocations == 2
    assert stats.dedup_hits == 2
    assert results[0] is results[2] is results[3]
    assert results[1].est_cost != results[0].est_cost


def test_compile_many_returns_errors_inline(fresh_engine, simple_job):
    bad = JobInstance("j-bad2", "t-bad2", "bad", "garbage !!", day=0)
    ok, err = fresh_engine.compilation.compile_many(
        [CompileRequest(simple_job), CompileRequest(bad)]
    )
    assert ok.est_cost > 0
    assert isinstance(err, ScopeError)


def test_compile_many_dedup_survives_disabled_cache(small_catalog, simple_job):
    engine = make_engine(small_catalog, enabled=False)
    results = engine.compilation.compile_many(
        [CompileRequest(simple_job), CompileRequest(simple_job)]
    )
    stats = engine.compilation.stats
    assert stats.optimizer_invocations == 1 and stats.dedup_hits == 1
    assert results[0] is results[1]


# -- ablation mode ------------------------------------------------------------


def test_disabled_cache_recompiles_every_time(small_catalog, join_agg_job):
    engine = make_engine(small_catalog, enabled=False)
    first = engine.compile_job(join_agg_job)
    second = engine.compile_job(join_agg_job)
    stats = engine.compilation.stats
    assert stats.optimizer_invocations == 2
    assert stats.hits == 0 and stats.misses == 0
    assert first is not second
    assert first.est_cost == second.est_cost  # determinism either way


# -- hint publications: the key names the hint, nothing is cleared -------------


def test_sis_publication_keeps_unhinted_plans_and_never_serves_a_stale_one(
    small_catalog, join_agg_job, simple_job
):
    engine = make_engine(small_catalog)
    sis = SISService(engine.registry)
    sis.attach(engine)
    service = engine.compilation.shards[0]
    stats = service.stats
    stale = engine.compile_job(join_agg_job)
    bystander = engine.compile_job(simple_job)
    resident = len(service.cache)
    flip_rule = engine.registry.by_name("LocalGlobalAggregation").rule_id
    sis.upload([HintEntry(join_agg_job.template_id, RuleFlip(flip_rule, True))], day=1)
    # the publication dropped nothing ...
    assert len(service.cache) == resident
    assert stats.invalidations == 0
    # ... so the unhinted template is a hit, with no new optimizer run
    before = stats.snapshot()
    assert engine.compile_job(simple_job) is bystander
    delta = stats - before
    assert (delta.hits, delta.misses, delta.optimizer_invocations) == (1, 0, 0)
    # the hinted template resolves to a different key: compiled once under
    # the hinted configuration, never served the resident default plan —
    # which the miss's leader looks up (the second hit) and finds no proof
    # in: the hinted rule splits this script's aggregate
    before = stats.snapshot()
    hinted = engine.compile_job(join_agg_job)
    assert engine.compile_job(join_agg_job) is hinted
    delta = stats - before
    assert (delta.hits, delta.misses, delta.optimizer_invocations) == (2, 1, 1)
    assert hinted is not stale
    assert hinted.config.is_enabled(flip_rule) != stale.config.is_enabled(flip_rule)
    assert plan_identity(hinted) == plan_identity(
        engine.compile_job_uncached(join_agg_job)
    )


def test_a_retired_hint_serves_the_default_plan_from_cache(small_catalog, join_agg_job):
    """A hint is retired by uploading the file without it; the job's
    default plan is still cached under the unhinted configuration."""
    engine = make_engine(small_catalog)
    sis = SISService(engine.registry)
    sis.attach(engine)
    stats = engine.compilation.shards[0].stats
    default = engine.compile_job(join_agg_job)
    flip_rule = engine.registry.by_name("LocalGlobalAggregation").rule_id
    sis.upload([HintEntry(join_agg_job.template_id, RuleFlip(flip_rule, True))], day=1)
    hinted = engine.compile_job(join_agg_job)
    sis.upload([], day=2)
    before = stats.snapshot()
    restored = engine.compile_job(join_agg_job)
    delta = stats - before
    assert (delta.hits, delta.misses, delta.optimizer_invocations) == (1, 0, 0)
    assert restored is default and restored is not hinted
    assert plan_identity(restored) == plan_identity(
        engine.compile_job_uncached(join_agg_job)
    )
    assert stats.invalidations == 0


def test_catalog_mutation_never_serves_stale_plans(small_catalog, tiny_config):
    """Recurring inputs drift daily; a plan cached under yesterday's table
    sizes must recompile under today's catalog."""
    from repro.workload.generator import build_workload

    workload = build_workload(tiny_config)
    engine = ScopeEngine(workload.catalog, tiny_config, workload.registry)
    job_day0 = workload.jobs_for_day(0)[0]
    before = engine.compile_job(job_day0, use_hints=False)
    version_day0 = workload.catalog.version
    workload.jobs_for_day(1)  # advances (and mutates) the catalog
    assert workload.catalog.version > version_day0
    # same script text, new catalog version: the lookup must be a miss
    hits_before = engine.compilation.stats.hits
    after = engine.compile_job(job_day0, use_hints=False)
    assert engine.compilation.stats.hits == hits_before
    assert after is not before


# -- RecompilationTask batching (regression guard) ----------------------------


def _features_for(engine, job):
    from repro.core.features import JobFeatures
    from repro.core.spans import SpanComputer
    from repro.scope.telemetry.view import build_view_row

    result = engine.compile_job(job, use_hints=False)
    metrics = engine.execute(result, job.run_key())
    row = build_view_row(job, result, metrics)
    span = SpanComputer(engine).span_for_template(job.template_id, job.script)
    return JobFeatures(job=job, row=row, span=span)


def _spy_default_compiles(engine, monkeypatch) -> Counter:
    """Default-configuration compiles requested per job id (hint-free and
    flip-free, batched or one at a time), counted by a spy on every shard
    service."""
    counts: Counter[str] = Counter()
    for service in engine.compilation.shards:

        def many(requests, executor=None, _call=service.compile_many):
            requests = list(requests)
            counts.update(r.job.job_id for r in requests if r.flip is None and not r.use_hints)
            return _call(requests, executor)

        def one(job, flip=None, *, use_hints=True, _call=service.compile_job):
            if flip is None and not use_hints:
                counts[job.job_id] += 1
            return _call(job, flip, use_hints=use_hints)

        monkeypatch.setattr(service, "compile_many", many)
        monkeypatch.setattr(service, "compile_job", one)
    return counts


def test_recompilation_compiles_default_once_per_job(
    fresh_engine, join_agg_job, monkeypatch
):
    from repro.core.recompile import RecompilationTask

    features = _features_for(fresh_engine, join_agg_job)
    lga = fresh_engine.registry.by_name("LocalGlobalAggregation").rule_id
    jrk = fresh_engine.registry.by_name("JoinResidualToKeys").rule_id
    recommendations = [
        Recommendation(features, RuleFlip(lga, True), "e1", 0.1),
        Recommendation(features, RuleFlip(jrk, False), "e2", 0.1),
    ]
    task = RecompilationTask(fresh_engine)
    default_compiles = _spy_default_compiles(fresh_engine, monkeypatch)
    outcomes = task.run(recommendations)
    assert len(outcomes) == 2
    # one job, two recommendations: exactly one default-config compile
    assert default_compiles == {join_agg_job.job_id: 1}


def test_pipeline_day_compiles_defaults_once_per_job(tiny_config, monkeypatch):
    """End-to-end lock-in: across a full run_day, the Recompilation task
    issues at most one default-config compile per job."""
    from repro import QOAdvisor

    advisor = QOAdvisor(tiny_config)
    task = advisor.pipeline.recompile_task
    runs = []

    def counted_run(recommendations, _run=task.run):
        with monkeypatch.context() as spying:
            runs.append(_spy_default_compiles(advisor.engine, spying))
            return _run(recommendations)

    monkeypatch.setattr(task, "run", counted_run)
    report = advisor.run_day(0)
    assert any(runs)  # the recompile stage ran and compiled defaults
    for default_compiles in runs:
        assert all(count == 1 for count in default_compiles.values())
    assert report.cache_stats is not None
    assert report.cache_stats.optimizer_invocations > 0
    assert report.cache_stats.hits > 0  # production plans get reused downstream


def test_pipeline_days_decide_identically_with_the_plan_cache_on_and_off():
    """The cache is observationally transparent end to end: same flips
    validated, same flights, same hint versions on every simulated day —
    for strictly fewer optimizer invocations."""
    from repro import QOAdvisor
    from repro.config import FlightingConfig, WorkloadConfig

    runs = {}
    for enabled in (True, False):
        config = dataclasses.replace(
            SimulationConfig(seed=555),
            workload=WorkloadConfig(num_templates=10, num_tables=8),
            flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
            cache=CacheConfig(enabled=enabled),
        )
        with QOAdvisor(config) as advisor:
            advisor.pipeline.bootstrap_validation_model(
                start_day=0, days=3, flights_per_day=8
            )
            reports = advisor.simulate(start_day=3, days=2, learned_after=1)
            runs[enabled] = reports, advisor.engine.compilation.stats
    (cached_reports, cached), (plain_reports, plain) = runs[True], runs[False]
    assert [r.decisions_digest() for r in cached_reports] == [
        r.decisions_digest() for r in plain_reports
    ]
    assert cached.hits > 0
    assert cached.optimizer_invocations < plain.optimizer_invocations
    assert all(
        r.cache_stats.optimizer_invocations <= r.cache_stats.lookups
        for r in cached_reports
    )
