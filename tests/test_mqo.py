"""Batch MQO: pre-exploration and determinism.

The contract under test: the :class:`~repro.scope.optimizer.mqo.BatchPlanner`
is observationally transparent.  A batch whose fragments were pre-explored
compiles to byte-identical results, day fingerprints and
schedule-independent cache accounting as one that explored everything
lazily — on any worker or shard count — while the work telemetry shows
the sharing: pre-explored fragments serve the whole batch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import QOAdvisor, SimulationConfig
from repro.config import (
    CacheConfig,
    ExecutionConfig,
    FlightingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.scope import cache as cache_module
from repro.scope.cache import CacheStats, CompileRequest, FragmentCache
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.mqo import BatchPlanner
from repro.scope.optimizer.rules.base import ImplementationRule, RuleFlip, TransformationRule
from repro.workload.generator import build_workload


JOIN_BODY = """
r0 = EXTRACT uid:long, etype:int, val:double FROM "/shares/data/events.ss";
r1 = EXTRACT uid:long, age:int, region:int FROM "/shares/data/users.ss";
joined = SELECT a0.uid AS k0, a0.val AS m0, a1.age AS v1
         FROM r0 AS a0 JOIN r1 AS a1 ON a0.uid == a1.uid
         WHERE a0.etype == 3;
"""


def _script(suffix: str) -> str:
    return JOIN_BODY + f'OUTPUT joined TO "/out/mqo_{suffix}.ss";\n'


@pytest.fixture()
def fresh_engine(small_catalog) -> ScopeEngine:
    return ScopeEngine(small_catalog.clone(), SimulationConfig(seed=101))


def _delta(engine: ScopeEngine, script: str, config=None) -> CacheStats:
    service = engine.compilation.shards[0]
    before = service.stats.snapshot()
    service.compile_script(script, config or engine.default_config)
    return service.stats - before


def _pool_config(
    seed: int = 31, workers: int = 1, shards: int = 1, **cache
) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(
            num_templates=12,
            num_tables=8,
            manual_hint_fraction=0.0,
            shared_subtree_fraction=0.7,
            shared_subtree_pool=3,
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers, backend="thread"),
        sharding=ShardingConfig(shards=shards),
        cache=CacheConfig(**cache),
    )


# -- rule-category masks --------------------------------------------------------


def test_registry_category_masks_partition_the_optional_rules(fresh_engine):
    registry = fresh_engine.registry
    trans, impl = registry.transformation_mask, registry.implementation_mask
    assert trans and impl
    assert trans & impl == 0
    for rule in registry:
        bit = 1 << rule.rule_id
        assert bool(trans & bit) == isinstance(rule, TransformationRule)
        assert bool(impl & bit) == isinstance(rule, ImplementationRule)


def test_implementation_flip_shares_fragments_transformation_flip_splits(
    fresh_engine,
):
    first = _delta(fresh_engine, _script("a"))
    assert first.fragment_inserts > 0

    impl_rule = fresh_engine.registry.by_name("MergeJoinImpl")
    impl_flip = RuleFlip(impl_rule.rule_id, turn_on=False).apply_to(
        fresh_engine.default_config
    )
    shared = _delta(fresh_engine, _script("a"), impl_flip)
    # implementation bits are masked out of the fragment key: the span
    # probe reuses the exploration closure wholesale
    assert shared.fragment_hits == first.fragment_inserts
    assert shared.fragment_misses == 0

    trans_rule = fresh_engine.registry.by_name("JoinCommute")
    trans_flip = RuleFlip(trans_rule.rule_id, turn_on=False).apply_to(
        fresh_engine.default_config
    )
    split = _delta(fresh_engine, _script("a"), trans_flip)
    # a transformation flip changes what exploration may derive: new keys
    assert split.fragment_hits == 0
    assert split.fragment_misses > 0


def test_prefetched_slot_counts_its_first_demand_as_a_miss():
    cache = FragmentCache(capacity=4)
    cache.put(("frag",), "entry", prefetch=True)
    assert cache.stats.fragment_inserts == 1
    # the first demand get serves the entry but accounts the miss the
    # compile would have taken without MQO — prefetch-invariant counters
    assert cache.get(("frag",)) == "entry"
    assert (cache.stats.fragment_hits, cache.stats.fragment_misses) == (0, 1)
    assert cache.get(("frag",)) == "entry"
    assert (cache.stats.fragment_hits, cache.stats.fragment_misses) == (1, 1)


# -- the batch planner ----------------------------------------------------------


def test_preexplore_batch_warms_the_store_and_compiles_insert_nothing():
    config = _pool_config()
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    service = engine.compilation.shards[0]
    jobs = workload.jobs_for_day(0)

    explored = service.preexplore_batch([CompileRequest(job) for job in jobs])
    assert explored > 0
    assert service.stats.mqo_preexplored == explored
    assert service.stats.fragment_inserts == explored
    assert len(service.fragments) == explored
    assert service.stats.rule_applications > 0

    before = service.stats.snapshot()
    for job in jobs:
        engine.compile_job(job)
    delta = service.stats - before
    # every fragment the batch needs was pre-explored: demand misses are
    # exactly the first touches of the prefetched slots, nothing inserts
    assert delta.fragment_inserts == 0
    assert delta.fragment_misses == explored
    assert delta.fragment_hits > 0
    assert delta.mqo_preexplored == 0

    # the schedule-independent core is the same as a batch that never
    # pre-explored (parses are memoized, not re-counted, by the planner)
    lazy = ScopeEngine(
        build_workload(config).catalog, _pool_config(mqo_enabled=False), workload.registry
    )
    for job in jobs:
        lazy.compile_job(job)
    assert service.stats.core() == lazy.compilation.stats.core()


def test_preexplore_batch_is_idempotent_and_gated():
    config = _pool_config()
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    service = engine.compilation.shards[0]
    requests = [CompileRequest(job) for job in workload.jobs_for_day(0)]
    first = service.preexplore_batch(requests)
    assert first > 0
    # everything is resident now: a second pass peeks and runs nothing
    assert service.preexplore_batch(requests) == 0
    assert service.stats.mqo_preexplored == first

    disabled_config = _pool_config(mqo_enabled=False)
    disabled_workload = build_workload(disabled_config)
    disabled = ScopeEngine(
        disabled_workload.catalog, disabled_config, disabled_workload.registry
    )
    assert disabled.compilation.preexplore_batch(requests) == 0
    assert disabled.compilation.stats.mqo_preexplored == 0
    assert len(disabled.compilation.shards[0].fragments) == 0


def test_batch_planner_skips_plan_resident_units():
    config = _pool_config()
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    jobs = workload.jobs_for_day(0)
    for job in jobs:
        engine.compile_job(job)
    before = engine.compilation.stats.snapshot()
    planner = BatchPlanner(engine.compilation.shards[0])
    added = planner.add_batch([CompileRequest(j) for j in jobs])
    # every unit's plan is resident: nothing registers, nothing explores
    assert added == 0
    assert planner.preexplore() == 0
    assert engine.compilation.stats - before == CacheStats()


# -- determinism: MQO on/off × workers × shards ---------------------------------


def test_fingerprint_identical_with_mqo_on_off_and_any_topology():
    baseline = QOAdvisor(_pool_config(mqo_enabled=True))
    report = baseline.run_day(0)
    fingerprint = report.fingerprint()
    core = report.cache_stats.core()
    assert report.cache_stats.mqo_preexplored > 0  # the planner engaged
    baseline.close()
    variants = [
        dict(workers=1, shards=1, mqo_enabled=False),
        dict(workers=4, shards=1, mqo_enabled=True),
        dict(workers=4, shards=1, mqo_enabled=False),
        dict(workers=4, shards=4, mqo_enabled=True),
        dict(workers=1, shards=4, mqo_enabled=False),
    ]
    for variant in variants:
        advisor = QOAdvisor(_pool_config(**variant))
        other = advisor.run_day(0)
        assert other.fingerprint() == fingerprint, variant
        assert other.cache_stats.core() == core, variant
        advisor.close()


def test_capacity_squeeze_evicts_prefetched_slots_without_trace(monkeypatch):
    """capacity ≪ the batch's fragment set: pre-explored slots are evicted
    at the epoch barrier before some compiles reach them, re-explored on
    demand, and none of it may leak into fingerprints or core counters."""
    monkeypatch.setattr(cache_module, "_FRAGMENT_CAPACITY", 2)
    on = QOAdvisor(_pool_config(mqo_enabled=True))
    on_reports = on.simulate(start_day=0, days=2, learned_after=1)
    assert on.engine.compilation.stats.mqo_preexplored > 0
    on.close()
    off = QOAdvisor(_pool_config(mqo_enabled=False))
    off_reports = off.simulate(start_day=0, days=2, learned_after=1)
    off.close()
    threaded = QOAdvisor(_pool_config(workers=4, mqo_enabled=True))
    threaded_reports = threaded.simulate(start_day=0, days=2, learned_after=1)
    threaded.close()
    assert [r.fingerprint() for r in on_reports] == [
        r.fingerprint() for r in off_reports
    ]
    assert [r.fingerprint() for r in on_reports] == [
        r.fingerprint() for r in threaded_reports
    ]
    for on_report, off_report in zip(on_reports, off_reports):
        assert on_report.cache_stats.core() == off_report.cache_stats.core()


def test_prefetched_eviction_before_first_demand_counts_cleanly():
    cache = FragmentCache(capacity=1)
    cache.put(("a",), "A", prefetch=True)
    cache.put(("b",), "B", prefetch=True)
    assert cache.checkpoint() == 1  # over capacity: epoch-order victim
    survivor = [key for key in (("a",), ("b",)) if cache.peek(key)]
    assert len(survivor) == 1
    victim = ("a",) if survivor != [("a",)] else ("b",)
    # the evicted prefetched slot never got its demand miss converted: a
    # later compile misses outright and re-explores, same as no MQO
    assert cache.get(victim) is None
    assert cache.stats.fragment_misses == 1


# -- accounting surfaces --------------------------------------------------------


def test_cache_stats_mqo_counters_diff_sum_and_core_exclusion():
    a = CacheStats(mqo_preexplored=7, hits=2)
    b = CacheStats(mqo_preexplored=4, hits=1)
    assert (a - b).mqo_preexplored == 3
    assert (a + b).mqo_preexplored == 11
    # the fingerprint core excludes the MQO counter
    assert a.core() == dataclasses.replace(a, mqo_preexplored=0).core()
