"""Fragment-level plan caching: keys, identity, eviction.

The contract under test (the fragment cache's hard invariant): compilation
is fragment-structured *always* — each maximal join-rooted subtree is
explored in an isolated memo and its closure adopted by replay — and the
cache only memoizes those isolated searches.  Hit and miss adopt
bit-identical entries through identical code, so ``DayReport.fingerprint()``
is byte-identical with the fragment cache on, off, and at any worker or
shard count, while the store's keys bake in every input an entry depends
on (content digest, rule-configuration bits — which is where a SIS hint
lands — and catalog version) so a stale fragment is unreachable by
construction.
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
from repro.scope.cache import CacheStats, FragmentCache, PlanCache
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import RuleFlip
from repro.workload.generator import build_workload
from repro.workload.templates import TemplateShape


JOIN_BODY = """
r0 = EXTRACT uid:long, etype:int, val:double FROM "/shares/data/events.ss";
r1 = EXTRACT uid:long, age:int, region:int FROM "/shares/data/users.ss";
joined = SELECT a0.uid AS k0, a0.val AS m0, a1.age AS v1
         FROM r0 AS a0 JOIN r1 AS a1 ON a0.uid == a1.uid
         WHERE a0.etype == 3;
"""


def _script(suffix: str) -> str:
    """Scripts sharing one join body, differing only in output path."""
    return JOIN_BODY + f'OUTPUT joined TO "/out/frag_{suffix}.ss";\n'


@pytest.fixture()
def fresh_engine(small_catalog) -> ScopeEngine:
    return ScopeEngine(small_catalog.clone(), SimulationConfig(seed=101))


def _frag_delta(engine: ScopeEngine, script: str, config=None) -> CacheStats:
    service = engine.compilation.shards[0]
    before = service.stats.snapshot()
    service.compile_script(script, config or engine.default_config)
    return service.stats - before


# -- store keys and invalidation ----------------------------------------------


def test_shared_join_body_hits_across_scripts(fresh_engine):
    first = _frag_delta(fresh_engine, _script("a"))
    assert first.fragment_misses > 0
    assert first.fragment_inserts == first.fragment_misses
    assert first.fragment_hits == 0
    second = _frag_delta(fresh_engine, _script("b"))
    # different script, same join block: every fragment lookup hits
    assert second.fragment_hits == first.fragment_misses
    assert second.fragment_misses == 0
    assert second.fragment_inserts == 0


def test_catalog_version_bump_misses_the_fragment_cache(fresh_engine):
    catalog = fresh_engine.catalog
    first = _frag_delta(fresh_engine, _script("a"))
    assert first.fragment_inserts > 0
    catalog.replace_table(catalog.table("users"))  # version bump
    again = _frag_delta(fresh_engine, _script("a"))
    # the catalog version is baked into every fragment key: nothing hits
    assert again.fragment_hits == 0
    assert again.fragment_misses == first.fragment_misses


def test_catalog_bump_purges_the_fragment_store(fresh_engine):
    service = fresh_engine.compilation.shards[0]
    catalog = fresh_engine.catalog
    _frag_delta(fresh_engine, _script("a"))
    assert len(service.fragments) > 0
    catalog.replace_table(catalog.table("users"))  # the one thing that clears
    assert service.peek(_script("a"), fresh_engine.default_config) is None
    assert len(service.fragments) == 0 and len(service.cache) == 0
    assert service.stats.invalidations == 1
    again = _frag_delta(fresh_engine, _script("b"))
    assert again.fragment_hits == 0
    assert again.fragment_misses > 0


def test_rule_configuration_change_misses_the_fragment_cache(fresh_engine):
    first = _frag_delta(fresh_engine, _script("a"))
    assert first.fragment_inserts > 0
    rule = fresh_engine.registry.by_name("JoinCommute")
    flipped = RuleFlip(rule.rule_id, turn_on=False).apply_to(
        fresh_engine.default_config
    )
    again = _frag_delta(fresh_engine, _script("a"), flipped)
    # same subtree digest, different configuration bits: distinct keys
    assert again.fragment_hits == 0
    assert again.fragment_misses > 0


def test_fragment_disabled_still_compiles_identically(small_catalog):
    config = SimulationConfig(seed=101)
    on = ScopeEngine(small_catalog.clone(), config)
    off = ScopeEngine(
        small_catalog.clone(),
        dataclasses.replace(config, cache=CacheConfig(fragment_enabled=False)),
    )
    result_on, result_off = (
        engine.compilation.shards[0].compile_script(_script("a"), engine.default_config)
        for engine in (on, off)
    )
    assert result_on.est_cost == result_off.est_cost
    assert result_on.signature.rule_ids == result_off.signature.rule_ids
    assert off.compilation.stats.fragment_lookups == 0
    # the disabled path records no keys
    assert result_off.fragment_keys == ()


# -- the shared-subtree workload knob -----------------------------------------


def _pool_config(seed: int = 31, workers: int = 1, shards: int = 1, **cache) -> SimulationConfig:
    # seed 31 draws multiple same-shape templates onto one pool entry;
    # manual hints are off so pool-mates compile under identical
    # configuration bits (a manual hint is a legitimate fragment-key split)
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


def test_shared_subtree_knob_pools_join_designs():
    workload = build_workload(_pool_config())
    pooled = [t for t in workload.templates if t.shared_pool is not None]
    assert pooled, "expected some templates to adopt a pool design"
    assert all(
        t.shape in (TemplateShape.JOIN, TemplateShape.JOIN_AGGREGATE) for t in pooled
    )
    # pool-mates render the identical join block for the same day
    by_pool: dict[str, list[str]] = {}
    for template in pooled:
        script = template.script_for_day(2)
        joined = script.split("joined = ")[1].split(";")[0]
        by_pool.setdefault(template.shared_pool, []).append(joined)
    assert any(len(bodies) > 1 for bodies in by_pool.values())
    for bodies in by_pool.values():
        assert len(set(bodies)) == 1


def test_default_workload_is_untouched_by_the_knob():
    plain = build_workload(
        dataclasses.replace(
            SimulationConfig(seed=913),
            workload=WorkloadConfig(num_templates=12, num_tables=8),
        )
    )
    assert all(t.shared_pool is None for t in plain.templates)


def test_shared_pool_workload_produces_fragment_hits():
    config = _pool_config()
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    for job in workload.jobs_for_day(0):
        engine.compile_job(job)
    stats = engine.compilation.stats
    assert stats.fragment_hits > 0
    assert stats.fragment_hit_rate > 0.0


# -- byte-identity: on/off × workers × shards ---------------------------------


def test_fingerprint_identical_with_fragments_on_off_and_any_topology():
    baseline = QOAdvisor(_pool_config(fragment_enabled=True))
    report = baseline.run_day(0)
    fingerprint = report.fingerprint()
    core = report.cache_stats.core()
    assert report.cache_stats.fragment_hits > 0  # the cache actually engaged
    baseline.close()
    variants = [
        dict(workers=1, shards=1, fragment_enabled=False),
        dict(workers=4, shards=1, fragment_enabled=True),
        dict(workers=4, shards=1, fragment_enabled=False),
        dict(workers=4, shards=4, fragment_enabled=True),
        dict(workers=1, shards=4, fragment_enabled=False),
    ]
    for variant in variants:
        advisor = QOAdvisor(_pool_config(**variant))
        other = advisor.run_day(0)
        assert other.fingerprint() == fingerprint, variant
        # the whole-script cache accounting is part of the contract too
        assert other.cache_stats.core() == core, variant
        if variant == dict(workers=1, shards=1, fragment_enabled=False):
            # what the store buys on the same schedule: strictly less search
            assert (
                report.cache_stats.rule_applications
                < other.cache_stats.rule_applications
            )
        advisor.close()


def _outcome(result) -> tuple:
    """Everything a compile answers, as one comparable value."""
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return (
        result.plan.pretty(),
        result.est_cost,
        result.signature,
        result.bindable_mask,
        result.inert_mask,
        result.fatal_mask,
    )


def test_warm_cold_and_disabled_stores_compile_identically():
    """A fragment hit replays the logical closure only: implementation and
    costing run on every group of every compile, so each mask of a result
    is a function of (script, configuration), whatever the store holds.
    Every script of a shared-subtree day, under its default configuration
    and one single flip, compiles three ways — through a store its
    pool-mates warmed, through a cold store, and with the store off."""

    def service(**cache):
        # the plan cache is off: every compile below is a real search
        config = _pool_config(enabled=False, **cache)
        engine = ScopeEngine(workload.catalog, config, workload.registry)
        return engine.compilation.shards[0]

    workload = build_workload(_pool_config())
    warm, off = service(), service(fragment_enabled=False)
    default = warm.engine.default_config
    flippable = workload.registry.flippable_ids
    units = []
    for index, script in enumerate(sorted({j.script for j in workload.jobs_for_day(0)})):
        # a different rule per script, strided across the registry
        rule_id = flippable[index * 7 % len(flippable)]
        flip = RuleFlip(rule_id, turn_on=not default.is_enabled(rule_id)).apply_to(default)
        units += [(script, default), (script, flip)]
    # the first pass warms the store as it goes: pool-mates later in the
    # day hit what earlier ones explored
    first = [_outcome(warm.compile_entry(*unit)) for unit in units]
    assert warm.stats.fragment_hits > 0
    before = warm.stats.snapshot()
    for unit, warmed in zip(units, first):
        assert _outcome(warm.compile_entry(*unit)) == warmed, unit
        assert _outcome(service().compile_entry(*unit)) == warmed, unit
        assert _outcome(off.compile_entry(*unit)) == warmed, unit
    # the second pass ran on a fully warm store, and nothing looked for a winner
    delta = warm.stats - before
    assert delta.fragment_hits > 0 and delta.fragment_misses == 0
    assert (warm.stats.winner_hits, warm.stats.winner_misses) == (0, 0)
    assert off.stats.fragment_lookups == 0


def test_multi_day_fingerprints_survive_the_fragment_ablation():
    on = QOAdvisor(_pool_config(seed=77, workers=4, fragment_enabled=True))
    off = QOAdvisor(_pool_config(seed=77, workers=1, fragment_enabled=False))
    on_reports = on.simulate(start_day=0, days=2, learned_after=1)
    off_reports = off.simulate(start_day=0, days=2, learned_after=1)
    assert [r.fingerprint() for r in on_reports] == [
        r.fingerprint() for r in off_reports
    ]
    on.close()
    off.close()


# -- accounting ----------------------------------------------------------------


def test_cache_stats_fragment_counters_diff_and_sum():
    a = CacheStats(hits=2, fragment_hits=5, fragment_misses=3, fragment_inserts=3,
                   rule_applications=100)
    b = CacheStats(hits=1, fragment_hits=2, fragment_misses=1, fragment_inserts=1,
                   rule_applications=40)
    delta = a - b
    assert (delta.fragment_hits, delta.fragment_misses, delta.fragment_inserts) == (3, 2, 2)
    assert delta.rule_applications == 60
    total = a + b
    assert (total.fragment_hits, total.fragment_misses) == (7, 4)
    assert total.fragment_lookups == 11
    assert a.fragment_hit_rate == 5 / 8
    # the fingerprint core excludes every fragment/work counter
    assert a.core() == dataclasses.replace(
        a, fragment_hits=0, fragment_misses=0, fragment_inserts=0, rule_applications=0
    ).core()


def test_shard_stats_surface_fragment_counters():
    from repro.serving.stats import ShardStats

    stats = ShardStats(shard=0, fragment_hits=6, fragment_misses=2, fragment_inserts=2)
    assert stats.fragment_hit_rate == 0.75
    assert ShardStats(shard=1).fragment_hit_rate == 0.0


def test_script_digest_is_memoized_per_text(fresh_engine):
    service = fresh_engine.compilation.shards[0]
    script = _script("a")
    first = service._script_digest(script)
    assert first == PlanCache.script_hash(script)
    assert service._script_digest(script) is first  # memo, not recompute
    catalog = fresh_engine.catalog
    catalog.replace_table(catalog.table("users"))
    service.peek(script, fresh_engine.default_config)  # syncs to the bump
    # a catalog bump re-bounds the memo (peek re-derived this one text)
    assert set(service._digests) == {script}


# -- eviction determinism -------------------------------------------------------


def test_fragment_eviction_is_epoch_granular_and_deterministic():
    cache = FragmentCache(capacity=2)
    cache.put(("a",), "A")
    cache.put(("b",), "B")
    cache.checkpoint()  # epoch 0 -> 1, within capacity
    cache.put(("c",), "C")
    cache.get(("a",))  # refresh a's recency in epoch 1
    assert cache.checkpoint() == 1  # b is the (last_epoch, key) victim
    assert cache.get(("a",)) is not None
    assert cache.get(("c",)) is not None
    assert cache.get(("b",)) is None
    assert cache.stats.fragment_hits == 3
    assert cache.stats.fragment_misses == 1


def test_capacity_squeeze_keeps_runs_and_topologies_identical(monkeypatch):
    """capacity ≪ working set: eviction churn must not leak into results."""
    monkeypatch.setattr(cache_module, "_FRAGMENT_CAPACITY", 2)
    tight = dict(fragment_enabled=True)
    first = QOAdvisor(_pool_config(seed=31, **tight))
    report = first.run_day(0)
    fingerprint = report.fingerprint()
    resident = sorted(first.engine.compilation.service_for(
        first.workload.templates[0].template_id
    ).fragments._entries)
    first.close()
    again = QOAdvisor(_pool_config(seed=31, **tight))
    repeat = again.run_day(0)
    assert repeat.fingerprint() == fingerprint
    assert sorted(again.engine.compilation.service_for(
        again.workload.templates[0].template_id
    ).fragments._entries) == resident
    again.close()
    threaded = QOAdvisor(_pool_config(seed=31, workers=4, **tight))
    assert threaded.run_day(0).fingerprint() == fingerprint
    threaded.close()
