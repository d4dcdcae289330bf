"""Runtime lock-order race detector: unit tests + serving stress harness.

The unit half proves the tracer's mechanics on synthetic locks: edge
recording, reentrant-RLock transparency, cycle detection across threads,
and the locks-held-across-``map_jobs`` hazard hook.

The stress half is the acceptance harness: a 2-shard serving fleet with
obs enabled, instrumented end to end via
:func:`repro.qa.auto_instrument_constructors`, driven through threaded
submission in three drained chunks, a maintenance window, and a
journal crash-recovery replay — asserting the global lock-order graph
stays acyclic, no lock is ever held across a fan-out, and
``DayReport.fingerprint()`` / ``CacheStats.core()`` are byte-identical
with instrumentation on and off.
"""

from __future__ import annotations

import dataclasses
import os
import threading

import pytest

from repro import QOAdvisor, QOAdvisorServer, ServingConfig, SimulationConfig
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    ObsConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.parallel import ThreadedExecutor
from repro.qa import (
    LockRegistry,
    TracedLock,
    auto_instrument_constructors,
    instrument_locks,
)

# -- unit: TracedLock + LockRegistry ------------------------------------------


class _Box:
    """Minimal lock-bearing object for instrument_locks's fallback path."""

    def __init__(self) -> None:
        self._lock = threading.Lock()


def test_traced_lock_records_acquisitions_and_nesting_edges():
    registry = LockRegistry()
    a = TracedLock(threading.Lock(), registry, "A")
    b = TracedLock(threading.Lock(), registry, "B")
    with a:
        with b:
            pass
    assert registry.acquisitions == 2
    edges = registry.edges()
    assert [(e.held, e.acquired) for e in edges] == [("A", "B")]
    assert "test_qa_runtime" in edges[0].stack
    assert registry.cycles() == []
    registry.assert_clean()


def test_reentrant_rlock_adds_no_self_edge():
    registry = LockRegistry()
    lock = TracedLock(threading.RLock(), registry, "R")
    with lock:
        with lock:  # re-entry: legal, must not create R -> R
            pass
    assert registry.acquisitions == 1
    assert registry.edges() == []
    registry.assert_clean()


def test_cycle_detected_across_threads():
    registry = LockRegistry()
    a = TracedLock(threading.Lock(), registry, "A")
    b = TracedLock(threading.Lock(), registry, "B")

    def ab():
        with a:
            with b:
                pass

    def ba():
        with b:
            with a:
                pass

    # run serially on two threads: the *order* conflict is what matters,
    # no interleaving needed to prove the hazard
    for fn in (ab, ba):
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join()
    cycles = registry.cycles()
    assert cycles and set(cycles[0]) == {"A", "B"}
    with pytest.raises(AssertionError, match="lock-order cycle"):
        registry.assert_clean()


def test_same_display_name_on_two_instances_shares_a_node():
    # two shards' service locks in mirrored order must still collide
    registry = LockRegistry()
    a1 = TracedLock(threading.Lock(), registry, "Svc._lock")
    a2 = TracedLock(threading.Lock(), registry, "Svc._lock")
    other = TracedLock(threading.Lock(), registry, "Reg._lock")
    with a1:
        with other:
            pass
    with other:
        with a2:
            pass
    assert len(registry.cycles()) == 1


def test_map_jobs_hazard_flagged_only_when_shared_lock_held():
    registry = LockRegistry()
    box = _Box()
    instrument_locks(box, registry=registry)
    assert isinstance(box._lock, TracedLock)
    # another thread uses the lock too: holding it across a fan-out is a
    # genuine deadlock hazard
    def touch():
        with box._lock:
            pass

    toucher = threading.Thread(target=touch)
    toucher.start()
    toucher.join()
    executor = ThreadedExecutor(workers=2)
    try:
        executor.map_jobs(lambda x: x + 1, [1, 2, 3])
        assert registry.fanout_events() == []  # no lock held: clean
        with box._lock:
            executor.map_jobs(lambda x: x + 1, [1, 2, 3])
        hazards = registry.hazards()
        assert len(hazards) == 1
        assert hazards[0].locks == ("_Box._lock",)
        assert hazards[0].backend == "thread"
        with pytest.raises(AssertionError, match="held across"):
            registry.assert_clean()
    finally:
        executor.close()
        registry.unwatch_map_jobs()


def test_map_jobs_event_with_coordinator_private_lock_is_not_a_hazard():
    # a lock only the fanning-out thread ever touches (the maintenance
    # window lock pattern) is recorded as an event but not reported
    registry = LockRegistry()
    box = _Box()
    instrument_locks(box, registry=registry)
    executor = ThreadedExecutor(workers=2)
    try:
        with box._lock:
            executor.map_jobs(lambda x: x + 1, [1, 2, 3])
        assert len(registry.fanout_events()) == 1
        assert registry.hazards() == []
        registry.assert_clean()
    finally:
        executor.close()
        registry.unwatch_map_jobs()


def test_instrument_locks_is_idempotent():
    registry = LockRegistry()
    box = _Box()
    instrument_locks(box, registry=registry)
    wrapped = box._lock
    instrument_locks(box, registry=registry)
    assert box._lock is wrapped  # not double-wrapped
    registry.unwatch_map_jobs()


def test_a_lock_added_to_a_known_class_is_traced():
    """Every plain lock on the object is wrapped, not only a listed few: a
    lock a known class gains is traced without any table to update."""
    server = QOAdvisorServer(config=_config(workers=1, shards=1))
    server._added_lock = threading.Lock()
    registry = instrument_locks(server, registry=LockRegistry())
    try:
        assert isinstance(server._added_lock, TracedLock)
        assert isinstance(server._seq_lock, TracedLock)
    finally:
        registry.unwatch_map_jobs()
        server.shutdown()


# -- stress: instrumented 2-shard fleet ---------------------------------------


def _config(workers: int = 2, shards: int = 2, seed: int = 555) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers, backend="thread"),
        sharding=ShardingConfig(shards=shards),
        obs=ObsConfig(enabled=True),
    )


def _submit_threaded(server: QOAdvisorServer, chunk) -> None:
    threads = [
        threading.Thread(target=server.submit, args=(job,)) for job in chunk
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


@pytest.mark.skipif(
    os.environ.get("REPRO_QA_LOCKS") == "1",
    reason="the session-wide conftest tracer already owns the constructor "
    "patch; this test's private registry would observe nothing through it",
)
def test_stress_fleet_acyclic_lock_order_and_fingerprint_parity(tmp_path):
    """Submit / maintenance / journal replay under full lock
    instrumentation: acyclic order graph, zero fan-out hazards, and
    byte-identical reports versus the uninstrumented run."""
    # the uninstrumented references
    batch = QOAdvisor(_config())
    baseline = batch.run_day(0)
    batch.close()

    served = dataclasses.replace(_config(), serving=ServingConfig(workers_per_shard=2))
    registry = LockRegistry()
    undo = auto_instrument_constructors(registry)
    try:
        server = QOAdvisorServer(config=served, journal=tmp_path / "wal.jsonl")
        # constructor patching reached the whole object graph
        assert isinstance(server._seq_lock, TracedLock)
        assert isinstance(server.scheduler._lock, TracedLock)
        server.start()
        jobs = server.advisor.workload.jobs_for_day(0)
        third = max(1, len(jobs) // 3)

        _submit_threaded(server, jobs[:third])
        server.drain(timeout=120.0)
        _submit_threaded(server, jobs[third : 2 * third])
        server.drain(timeout=120.0)
        _submit_threaded(server, jobs[2 * third :])
        server.drain(timeout=120.0)
        report = server.run_maintenance(0)
        server.shutdown()

        # crash-recovery replay on a fresh (also instrumented) server
        revived = QOAdvisorServer(config=served, journal=tmp_path / "wal.jsonl")
        recovery = revived.recover()
        assert recovery.fingerprints_verified == 1
        revived.shutdown()
    finally:
        undo()

    # the detector saw real traffic and found nothing
    assert registry.acquisitions > 1000
    assert registry.cycles() == []
    assert registry.hazards() == []
    registry.assert_clean()

    # instrumentation is observationally transparent: byte-identical
    # fingerprint and core cache accounting versus the uninstrumented
    # batch day (mqo_preexplored is schedule-shaped: the lanes compile each
    # job as it arrives, with no batch to pre-explore)
    assert report.fingerprint() == baseline.fingerprint()
    assert dataclasses.replace(
        report.cache_stats, mqo_preexplored=0
    ).core() == dataclasses.replace(baseline.cache_stats, mqo_preexplored=0).core()


@pytest.mark.skipif(
    os.environ.get("REPRO_QA_LOCKS") == "1",
    reason="the session-wide conftest tracer keeps constructors patched",
)
def test_auto_instrument_undo_restores_constructors():
    registry = LockRegistry()
    undo = auto_instrument_constructors(registry)
    undo()
    advisor = QOAdvisor(_config(workers=1, shards=1))
    assert not isinstance(
        advisor.engine.compilation.shards[0]._lock, TracedLock
    )
    advisor.close()
