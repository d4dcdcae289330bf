"""The ledger's four workloads: inputs, set-up, and the timed section of each.

Every workload drives the program through its public API only
(``QOAdvisor``, ``QOAdvisorServer``) and returns, besides the per-unit
timings, what the run needs to check its own outputs: the chain of
``DayReport.fingerprint()`` values, the ``CacheStats`` delta and the gc
collection counts.  The table of *why* each workload exists is
``WORKLOADS`` below; README.md carries the longer version.

Inputs and ``--seed``.  The seed goes to the workload generator and nowhere
else: it draws each day's submissions (which templates submit twice, which
jobs carry a manual hint) and the day-over-day table growth.  The tenant
(catalog and job templates: what the scripts look like and how much they
share) and the program's own randomness (bootstrap flips, policy
exploration, cluster noise) are pinned to ``PINNED_SEED``, so the program
receives nothing from the benchmark but generated jobs.  With ``--seed
20220613`` the inputs are exactly ``SimulationConfig()``'s.  Even so, one
seed's stream differs from another's by 3-5 % in optimizer invocations:
which plans are cached when a job arrives is chaotic in the stream.
"""

from __future__ import annotations

import gc
import hashlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator

from repro import QOAdvisor, QOAdvisorServer, SimulationConfig, build_workload
from repro.config import (
    ExecutionConfig,
    ObsConfig,
    ServingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.workload.generator import Workload

from replay import gc_collections, peak_rss_mb

__all__ = [
    "PINNED_SEED",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "FULL_SECONDS",
    "WorkloadSpec",
    "WORKLOADS",
    "State",
    "set_up",
    "run_section",
    "run_recovery",
]

#: seed of the tenant (catalog, templates) and of the program under test
PINNED_SEED = 20220613
#: the seed numbers are developed against
DEFAULT_SEED = 20220613
#: never used while a change is written; a gain must also hold here
HELD_OUT_SEED = 20240907
#: ``--seconds`` at which a workload runs its full number of units
#: (``run_seconds`` in BENCHMARK.json)
FULL_SECONDS = 20

_SERIAL = ExecutionConfig(workers=1, backend="thread")
_SHARED = WorkloadConfig(
    num_templates=40, shared_subtree_fraction=0.7, shared_subtree_pool=3
)
_SHARED_SERIAL = SimulationConfig(seed=PINNED_SEED, workload=_SHARED, execution=_SERIAL)
_SERVING = SimulationConfig(
    seed=PINNED_SEED,
    execution=_SERIAL,
    sharding=ShardingConfig(shards=2),
    serving=ServingConfig(workers_per_shard=1),
    obs=ObsConfig(enabled=True),
)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: "bootstrap": one ``bootstrap`` call; "days": ``run_day`` per unit;
    #: "serve": ``submit_day``+``drain`` and ``run_maintenance`` per day,
    #: then journal recovery
    kind: str
    #: days in the timed section at ``--seconds == FULL_SECONDS``
    full_days: int
    #: days of ``bootstrap`` in set-up (unused by "bootstrap")
    boot_days: int
    config: SimulationConfig
    #: no program thread besides the load generator: gc counts and
    #: ``rule_applications`` repeat exactly and cProfile sees every call
    single_threaded: bool
    #: the same inputs under another configuration, run beside every traced
    #: run: a "reference" twin must produce the same chain and ``core()``
    #: (and gives ``sharding.fleet_vs_serial_ratio``); an "obs_off" twin
    #: gives ``obs.tax_pct``
    twin: SimulationConfig | None = None
    twin_role: str = ""


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="cold_bootstrap",
            why="onboarding: nearly every compile is a new (script, flip) key, so the "
            "optimizer, span probes and GC do the work; caches insert, nothing is shared",
            kind="bootstrap",
            full_days=6,
            boot_days=0,
            config=SimulationConfig(seed=PINNED_SEED, execution=_SERIAL),
            single_threaded=True,
        ),
        WorkloadSpec(
            name="shared_days",
            why="steady daily pipeline on 40 templates sharing join subtrees: fragment, "
            "winner and plan caches hit, every stage runs; serial, so counts are exact",
            kind="days",
            full_days=13,
            boot_days=4,
            config=_SHARED_SERIAL,
            single_threaded=True,
        ),
        WorkloadSpec(
            name="fleet_days",
            why="byte-identical inputs to shared_days through 2 shards and 2 workers: "
            "only sharding, the executor and the service locks differ",
            kind="days",
            full_days=13,
            boot_days=4,
            config=replace(
                _SHARED_SERIAL,
                execution=ExecutionConfig(workers=2, backend="thread"),
                sharding=ShardingConfig(shards=2),
            ),
            single_threaded=False,
            twin=_SHARED_SERIAL,
            twin_role="reference",
        ),
        WorkloadSpec(
            name="serve_recover",
            why="arrival path: jobs steered one at a time on 2 lanes with queues, journal "
            "and obs on, a window per day, then journal recovery; nothing else uses these",
            kind="serve",
            full_days=6,
            boot_days=4,
            config=_SERVING,
            single_threaded=False,
            twin=replace(_SERVING, obs=ObsConfig(enabled=False)),
            twin_role="obs_off",
        ),
    )
}


@dataclass
class State:
    """What set-up hands to every replay (copied by ``fork``, never pickled)."""

    spec: WorkloadSpec
    advisor: QOAdvisor
    first_day: int
    days: int


def scaled_days(spec: WorkloadSpec, seconds: float) -> int:
    """Units for a ``--seconds`` budget: a fixed function of the budget, never
    of the clock, so the same command line always does the same work."""
    return max(2, round(spec.full_days * seconds / FULL_SECONDS))


def set_up(
    spec: WorkloadSpec, seed: int, seconds: float, config: SimulationConfig | None = None
) -> State:
    """Build the system and bring it to the state the timed section starts from.

    ``config`` overrides the spec's (a traced run passes ``spec.twin``).
    """
    config = config or spec.config
    tenant = build_workload(config)
    workload = Workload(
        catalog=tenant.catalog,
        templates=tenant.templates,
        config=replace(config, seed=seed),  # the generator's streams only
        registry=tenant.registry,
    )
    advisor = QOAdvisor(config, workload=workload)
    first_day = 0
    if spec.kind != "bootstrap":
        advisor.bootstrap(0, days=spec.boot_days)
        advisor.enable_learned_mode()
        first_day = spec.boot_days
        if spec.kind == "days":
            # one warm day: the first learned-mode day re-derives every
            # span and plan the bootstrap's hint-free compiles did not cover
            advisor.run_day(first_day)
            first_day += 1
    # no thread may cross a fork: the pool is rebuilt lazily in each child
    advisor.executor.close()
    return State(spec, advisor, first_day, scaled_days(spec, seconds))


class Units:
    """Wall and CPU time of each unit of the section, in order."""

    def __init__(self, tracer=None) -> None:
        self.rows: list[tuple[str, float, float]] = []
        self._tracer = tracer

    @contextmanager
    def unit(self, name: str) -> Iterator[None]:
        span = self._tracer.open("harness.unit", name) if self._tracer else None
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.rows.append(
                (name, time.perf_counter() - wall, time.process_time() - cpu)
            )
            if span is not None:
                self._tracer.close(span)


def _digest(*parts: object) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()


def _bootstrap_body(state: State, units: Units) -> dict:
    advisor = state.advisor
    with units.unit("bootstrap"):
        advisor.bootstrap(0, days=state.days)
    model = advisor.pipeline.validation_model
    events = advisor.policy.event_log
    # bootstrap returns nothing, so its outputs are read where it left them:
    # the fitted regression guard and the logged warm-up decisions
    chain = [
        _digest(
            model.training_samples,
            model.model.intercept_,
            [float(c) for c in model.model.coef_],
            [(e.chosen, e.probability, e.reward) for e in events],
        )
    ]
    return {"chain": chain, "attempted": len(events), "failed": 0}


def _days_body(state: State, units: Units) -> dict:
    advisor = state.advisor
    chain, attempted, failed = [], 0, 0
    for day in range(state.first_day, state.first_day + state.days):
        with units.unit(f"day:{day}"):
            report = advisor.run_day(day)
        chain.append(report.fingerprint())
        attempted += len(report.production_runs) + len(report.failed_jobs)
        failed += len(report.failed_jobs)
    return {"chain": chain, "attempted": attempted, "failed": failed}


def _serve_body(state: State, units: Units, journal: Path) -> dict:
    """The live phase: a day is one burst into the lane queues (capacity 256,
    a day is ~55 jobs, so ``submit`` never blocks), drained, then its window —
    the shape of ``QOAdvisorServer.stream_day``, one closed-loop client."""
    server = QOAdvisorServer(state.advisor, journal=journal)
    server.start()
    chain, compile_s, hint_versions, breaches = [], [], [], []
    try:
        for day in range(state.first_day, state.first_day + state.days):
            with units.unit(f"serve:{day}"):
                tickets = server.submit_day(day)
                server.drain()
            with units.unit(f"window:{day}"):
                report = server.run_maintenance(day)
            chain.append(report.fingerprint())
            compile_s.extend(ticket.compile_s for ticket in tickets)
            hint_versions.append(server.sis.current_version)
            lost = [t.job.job_id for t in tickets if not t.done]
            if lost:
                breaches.append(f"day {day}: tickets never completed: {lost}")
        stats = server.stats()
    finally:
        server.shutdown()
    if stats.jobs_submitted != stats.jobs_completed + stats.jobs_failed:
        breaches.append(
            f"admitted {stats.jobs_submitted} != completed {stats.jobs_completed}"
            f" + failed {stats.jobs_failed}"
        )
    if stats.jobs_in_flight or stats.jobs_shed:
        breaches.append(f"{stats.jobs_in_flight} in flight, {stats.jobs_shed} shed")
    if hint_versions != sorted(hint_versions):
        breaches.append(f"hint versions not monotone: {hint_versions}")
    return {
        "chain": chain,
        "attempted": stats.jobs_submitted,
        "failed": stats.jobs_failed,
        "breaches": breaches,
        "compile_s": compile_s,
        "max_queue_depth": max(s.max_queue_depth for s in stats.shards),
        "journal_records": sum(1 for _ in journal.open(encoding="utf-8")),
        "journal_bytes": journal.stat().st_size,
    }


def run_section(state: State, journal: Path | None = None, tracer=None) -> dict:
    """One replay of the timed section; call it in a forked child.

    Returns a picklable record: per-unit timings, the fingerprint chain, the
    ``CacheStats`` delta, gc collection deltas, peak RSS, and operation
    counts.  Verification breaches are *returned* (``breaches``), not
    raised, so the parent can report all of them next to the numbers.
    """
    pipeline = state.advisor.pipeline
    units = Units(tracer)
    before, shards_before = pipeline.snapshot_stats()
    ring = getattr(state.advisor.obs, "ring", None)  # absent on the null plane
    obs_before = ring.total if ring else 0
    gc_before = gc_collections()
    if state.spec.kind == "bootstrap":
        record = _bootstrap_body(state, units)
    elif state.spec.kind == "days":
        record = _days_body(state, units)
    else:
        record = _serve_body(state, units, journal)
    after, shards_after = pipeline.snapshot_stats()
    delta = after - before
    record.setdefault("breaches", [])
    record.update(
        units=units.rows,
        stats=asdict(delta),
        core=delta.core(),
        shard_invocations=[
            shards_after[shard].optimizer_invocations
            - shards_before[shard].optimizer_invocations
            for shard in sorted(shards_after)
        ],
        obs_spans=(ring.total if ring else 0) - obs_before,
        gc=tuple(b - a for a, b in zip(gc_before, gc_collections())),
        gc_enabled=gc.isenabled(),
        rss_mb=peak_rss_mb(),
    )
    return record


def run_recovery(state: State, journal: Path, tracer=None) -> dict:
    """Recover ``journal`` into a fresh server on the untouched pre-stream
    state (the forked child *is* that state) and verify what it rebuilt."""
    units = Units(tracer)
    server = QOAdvisorServer(state.advisor, journal=journal)
    try:
        with units.unit("recover"):
            report = server.recover()
        chain = [r.fingerprint() for r in state.advisor.reports]
    finally:
        server.shutdown()
    breaches = []
    if report.fingerprints_verified != report.windows or report.windows != state.days:
        breaches.append(
            f"recover verified {report.fingerprints_verified} of {report.windows} "
            f"windows, expected {state.days}"
        )
    if report.in_flight or report.admitted != report.completed:
        breaches.append(
            f"recover left {report.in_flight} in flight "
            f"({report.admitted} admitted, {report.completed} completed)"
        )
    return {
        "units": units.rows,
        "chain": chain,
        "admitted": report.admitted,
        "breaches": breaches,
        "rss_mb": peak_rss_mb(),
    }
