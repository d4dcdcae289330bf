"""The job-parallel backbone: determinism at any worker count.

Three contracts are locked here:

* :meth:`Executor.map_jobs` is order-preserving for every implementation;
* a pipeline day (and the bootstrap corpus) is **byte-identical** across
  ``workers=1``, ``workers=4`` and an explicit :class:`SerialExecutor` —
  all per-job randomness is keyed, so thread scheduling must never leak
  into a report;
* the compilation service is thread-safe: concurrent identical misses
  coalesce into one optimizer invocation, and the stats counters never
  lose updates under contention.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time

import pytest

from repro import QOAdvisor, SimulationConfig
from repro.config import ExecutionConfig, FlightingConfig, WorkloadConfig
from repro.parallel import SerialExecutor, ThreadedExecutor, build_executor
from repro.scope import cache as cache_module
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import RuleFlip


# -- the executor contract ----------------------------------------------------


def test_build_executor_selects_implementation():
    assert isinstance(build_executor(ExecutionConfig(workers=1)), SerialExecutor)
    threaded = build_executor(ExecutionConfig(workers=4, backend="thread"))
    assert isinstance(threaded, ThreadedExecutor)
    assert threaded.workers == 4
    threaded.close()
    # "thread" is the only backend; anything else is refused at any
    # worker count, not silently run serial
    for workers in (1, 4):
        with pytest.raises(ValueError, match="backend"):
            build_executor(ExecutionConfig(workers=workers, backend="quantum"))


def test_threaded_executor_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        ThreadedExecutor(0)


def test_map_jobs_preserves_order_under_scheduling_jitter():
    def jittered(i: int) -> int:
        time.sleep(0.002 * ((i * 7) % 5))  # later items often finish first
        return i * i

    items = list(range(24))
    expected = [i * i for i in items]
    assert SerialExecutor().map_jobs(jittered, items) == expected
    with ThreadedExecutor(6) as executor:
        assert executor.map_jobs(jittered, items) == expected


def test_map_jobs_propagates_exceptions():
    def boom(i: int) -> int:
        if i == 3:
            raise RuntimeError("job 3 failed")
        return i

    with ThreadedExecutor(4) as executor:
        with pytest.raises(RuntimeError, match="job 3"):
            executor.map_jobs(boom, range(8))


def test_executor_close_is_idempotent():
    executor = ThreadedExecutor(2)
    assert executor.map_jobs(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
    executor.close()
    executor.close()
    # a closed executor lazily re-creates its pool on the next map
    assert executor.map_jobs(lambda x: x + 1, [4, 5]) == [5, 6]
    executor.close()


# -- pipeline determinism -----------------------------------------------------


def _tiny_config(workers: int, seed: int = 555) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers),
    )


def test_run_day_byte_identical_across_worker_counts():
    fingerprints = []
    for advisor in (
        QOAdvisor(_tiny_config(workers=1)),
        QOAdvisor(_tiny_config(workers=4)),
        QOAdvisor(_tiny_config(workers=4), executor=SerialExecutor()),
    ):
        report = advisor.run_day(0)
        fingerprints.append(report.fingerprint())
        # cache accounting is part of the contract: the parallel schedule
        # must issue exactly the compilations the serial one does
        assert report.cache_stats is not None
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def test_run_day_byte_identical_under_evictions(monkeypatch):
    """The eviction stress lock: recency is epoch-granular and capacity is
    enforced at stage barriers, so even a cache far too small for the day's
    working set evicts the same victims — and issues the same compiles — at
    any worker count."""
    monkeypatch.setattr(cache_module, "_PLAN_CAPACITY", 8)
    monkeypatch.setattr(cache_module, "_SCRIPT_CAPACITY", 4)
    reports = []
    for workers in (1, 4):
        with QOAdvisor(_tiny_config(workers)) as advisor:
            reports.append(advisor.run_day(0))
    serial, parallel = reports
    assert serial.cache_stats.evictions > 0  # the stress is real
    assert serial.cache_stats == parallel.cache_stats
    assert serial.fingerprint() == parallel.fingerprint()


def _corpus_trace(results) -> list[tuple]:
    return [
        (
            r.job.job_id,
            r.status.value,
            round(r.flight_seconds, 9),
            r.day,
            repr(r.baseline),
            repr(r.treatment),
        )
        for r in results
    ]


def test_bootstrap_corpus_byte_identical_across_worker_counts():
    traces = []
    stats = []
    for workers in (1, 4):
        advisor = QOAdvisor(_tiny_config(workers, seed=91))
        corpus = advisor.pipeline.bootstrap_validation_model(
            start_day=0, days=4, flights_per_day=8
        )
        traces.append(_corpus_trace(corpus))
        stats.append(advisor.engine.compilation.stats)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 0
    # speculative batch evaluation is position-based, so even the cumulative
    # compile accounting matches the serial schedule
    assert stats[0] == stats[1]


# -- cache thread safety ------------------------------------------------------


@pytest.fixture()
def stress_engine(small_catalog) -> ScopeEngine:
    return ScopeEngine(small_catalog, SimulationConfig(seed=101))


def test_concurrent_identical_compiles_invoke_optimizer_once(
    stress_engine, join_agg_job
):
    threads = 8
    barrier = threading.Barrier(threads)
    results = [None] * threads

    def hammer(slot: int) -> None:
        barrier.wait()
        results[slot] = stress_engine.compile_job(join_agg_job)

    workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    stats = stress_engine.compilation.stats
    # concurrent-miss dedup: one leader compiled, everyone shares its plan
    assert stats.optimizer_invocations == 1
    assert stats.misses == 1
    assert stats.hits == threads - 1
    assert all(result is results[0] for result in results)


def test_concurrent_mixed_compiles_lose_no_stat_updates(
    stress_engine, join_agg_job, simple_job, copy_job
):
    jobs = [join_agg_job, simple_job, copy_job]
    flips = [None, RuleFlip(stress_engine.registry.by_name("LocalGlobalAggregation").rule_id, True)]
    rounds = 6
    threads = 6
    barrier = threading.Barrier(threads)

    def hammer(slot: int) -> None:
        barrier.wait()
        for i in range(rounds):
            job = jobs[(slot + i) % len(jobs)]
            flip = flips[(slot * rounds + i) % len(flips)]
            stress_engine.compile_job(job, flip)

    workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    stats = stress_engine.compilation.stats
    distinct_keys = len({(job.script, flip is not None) for job in jobs for flip in flips})
    total_lookups = threads * rounds
    # the leader of each single-flip miss looks its script's default plan up
    # once, counted; the flip is then answered from it where it proves the
    # rule inert — here the two scripts with no aggregate to split
    flip_keys, inert_keys = len(jobs), 2
    # no lost updates: every lookup is accounted exactly once, and the
    # optimizer ran exactly once per distinct (script, configuration) key
    # it had to
    assert stats.hits + stats.misses == total_lookups + flip_keys
    assert stats.misses == distinct_keys
    assert stats.optimizer_invocations == distinct_keys - inert_keys
    assert len(stress_engine.compilation.shards[0].cache) == distinct_keys


def test_an_answered_flip_costs_the_same_whoever_asks_first(small_catalog, join_agg_job):
    """Two same-day instances of one script, one carrying a manual hint for a
    rule the default plan proves inert, plus explicit flips of that rule and
    of one that is not inert.  Whether the hinted compile meets a resident
    default plan depends on who got there first; what is counted must not —
    the rule is a function of the key, never of residency."""
    registry = ScopeEngine(small_catalog, SimulationConfig(seed=101)).registry
    inert = RuleFlip(registry.by_name("GroupByBelowUnion").rule_id, True)
    live = RuleFlip(registry.by_name("LocalGlobalAggregation").rule_id, True)
    hinted = dataclasses.replace(join_agg_job, job_id="j-hinted", manual_hint=inert)
    units = [(join_agg_job, None), (hinted, None), (join_agg_job, inert), (join_agg_job, live)]
    threads = 6

    def core_of(schedules: list[list[tuple]]) -> tuple:
        engine = ScopeEngine(small_catalog, SimulationConfig(seed=101))
        barrier = threading.Barrier(len(schedules))

        def hammer(schedule: list[tuple]) -> None:
            barrier.wait()
            for job, flip in schedule:
                engine.compile_job(job, flip)

        workers = [threading.Thread(target=hammer, args=(s,)) for s in schedules]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        return engine.compilation.stats.core()

    serial = units * threads
    # three keys miss, the inert one without an optimizer run; everything
    # else — the two default lookups of the flips' leaders included — hits
    expected = (len(serial) + 2 - 3, 3, 0, 0, 2, 1, 0)
    assert core_of([serial]) == expected
    assert core_of([serial[::-1]]) == expected
    for seed in range(50):
        rng = random.Random(seed)
        assert core_of([rng.sample(units, len(units)) for _ in range(threads)]) == expected
