"""Sharded multi-cluster scale-out (paper §2, §4.4).

The production QO-Advisor steers SCOPE across *many* clusters: hints flow
through one SIS deployment, while compilation and flighting happen on the
cluster a job's virtual-cluster path maps to.  This module reproduces that
topology:

* :class:`ShardRouter` — stable-hash partitioning of jobs by template id
  (the unit SIS keys hints by, so a template's production runs, span
  probes, recompiles and flights all land on the same shard and share its
  plan cache);
* :class:`ShardedScopeCluster` — N :class:`~repro.scope.engine.ScopeEngine`
  shards, each with its **own plan cache**, counters and lock, all reading
  the workload's **one catalog**, behind the facade the pipeline talks to
  (``QOAdvisor`` always builds one; ``shards=1`` is a cluster of one);
* :class:`ShardedCompilationService` — the cluster-wide compile front-end:
  routes requests to the owning shard, aggregates per-shard
  :class:`~repro.scope.cache.CacheStats`, and broadcasts checkpoints.

SIS stays the **single shared hint store**: ``SISService.attach(cluster)``
installs its lookup on every shard through the cluster's ``hint_provider``
property.  An upload or rollback rebinds the active hint set, which every
shard's next lookup sees; nothing is broadcast and no shard drops an entry.

Parallelism composes with the PR-2 executor at the *job* level: pipeline
stages keep mapping per-job closures through one
:class:`~repro.parallel.Executor`, and each closure routes to its shard —
so a single fan-out naturally spreads across every shard's cache and
engine without nested pools.  *Batch* compiles make the shard the unit of
work: the cluster routes each request to its owning shard and hands that
shard's own ``compile_many`` / ``preexplore_batch`` its slice, so there is
one batch-compile implementation and two calls cross the shard boundary.

The determinism contract extends across topologies: a sharded run's
``DayReport.fingerprint()`` is byte-identical to the single-shard serial
run (locked by ``tests/test_sharding.py``).  Decisions are identical
because every per-job quantity is keyed, not sequential; the aggregated
cache accounting is identical because routing is per template — each
(script, configuration, catalog-version) key lives on exactly one shard,
so the per-key hit/miss pattern matches the single cache's.  Cache *eviction*
accounting is shard-local, so cross-topology equality additionally needs
the working set to fit the per-shard capacity (worker-count invariance
needs nothing: eviction itself is schedule-independent, see
:mod:`repro.scope.cache`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from repro.config import SimulationConfig
from repro.obs.trace import NULL_TRACER
from repro.rng import stable_hash
from repro.scope.cache import CacheStats, CompileRequest
from repro.scope.engine import JobRun, ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.rules.base import (
    RuleConfiguration,
    RuleFlip,
    RuleRegistry,
    default_registry,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.errors import ScopeError
    from repro.parallel import Executor
    from repro.scope.optimizer.engine import OptimizationResult
    from repro.scope.runtime.metrics import JobMetrics
    from repro.workload.generator import Workload

__all__ = ["ShardRouter", "ShardedCompilationService", "ShardedScopeCluster"]


class ShardRouter:
    """Stable-hash partitioning of templates (and their jobs) onto shards.

    Routing must be a pure function of the template id and the membership
    state: it decides which shard's plan cache a template's compilations
    share, and it has to agree across processes and runs (``stable_hash``,
    not the salted builtin).

    Membership is elastic.  The router's keyspace is ``num_shards`` *slots*;
    a slot may be **offline** (pre-provisioned growth headroom, a retired
    shard, a failed shard awaiting rejoin).  A template whose primary slot
    is online stays put (its plan cache stays warm); a template whose
    primary is offline — or excluded by the caller, the serving layer's
    transient-failure path — falls over by *rendezvous hashing* over the
    live slots.  Rendezvous placement moves the minimum possible set on any
    membership change: bringing a slot online moves only the templates whose
    primary or highest rendezvous weight is the joining slot, and taking one
    offline moves only the templates it was serving.
    """

    def __init__(self, num_shards: int, *, slots: int | None = None) -> None:
        if num_shards < 1:
            raise ValueError(f"a cluster needs at least 1 shard, got {num_shards}")
        #: total routing slots (the primary-hash modulus); grows monotonically
        self.num_shards = max(num_shards, slots or num_shards)
        #: slots with no live engine behind them: pre-provisioned headroom
        #: beyond the initial shard count, plus retired/failed shards
        self.offline: set[int] = set(range(num_shards, self.num_shards))

    @property
    def alive_slots(self) -> list[int]:
        return [slot for slot in range(self.num_shards) if slot not in self.offline]

    def shard_for(
        self, template_id: str, exclude: "frozenset[int] | set[int]" = frozenset()
    ) -> int:
        primary = stable_hash("shard-route", template_id) % self.num_shards
        if primary not in exclude and primary not in self.offline:
            # live shards keep their whole keyspace (and warm caches):
            # only offline/excluded slots' templates are rehashed
            return primary
        best_slot = -1
        best_weight = -1
        for slot in range(self.num_shards):
            if slot in exclude or slot in self.offline:
                continue
            weight = stable_hash("shard-route-failover", template_id, slot)
            if weight > best_weight:
                best_weight, best_slot = weight, slot
        if best_slot < 0:
            raise ValueError(
                f"all {self.num_shards} shard slot(s) are offline or excluded; "
                "nowhere to route"
            )
        return best_slot

    def shard_for_job(
        self, job: JobInstance, exclude: "frozenset[int] | set[int]" = frozenset()
    ) -> int:
        return self.shard_for(job.template_id, exclude)

    def partition(self, jobs: Iterable[JobInstance]) -> dict[int, list[JobInstance]]:
        """Jobs grouped by owning shard (input order preserved per group)."""
        groups: dict[int, list[JobInstance]] = {}
        for job in jobs:
            groups.setdefault(self.shard_for_job(job), []).append(job)
        return groups

    # -- elastic membership ---------------------------------------------------

    def bring_online(self, slot: int) -> None:
        """Put ``slot`` into rotation, extending the keyspace if needed.

        Extending the keyspace (onlining a slot at/after ``num_shards``)
        changes the primary hash of a fraction of all templates; with
        pre-provisioned headroom (``ShardingConfig.provisioned_shards``)
        the modulus never changes and only the joining slot's templates
        move.  Either way :meth:`preview` names the moved set exactly, so
        warm-up migration stays complete.
        """
        if slot < 0:
            raise ValueError(f"slot must be non-negative, got {slot}")
        if slot >= self.num_shards:
            for fresh in range(self.num_shards, slot + 1):
                self.offline.add(fresh)
            self.num_shards = slot + 1
        self.offline.discard(slot)

    def take_offline(self, slot: int) -> None:
        """Remove ``slot`` from rotation (retire/shrink); keyspace is kept."""
        if not 0 <= slot < self.num_shards:
            raise ValueError(f"slot {slot} outside keyspace 0..{self.num_shards - 1}")
        remaining = [s for s in self.alive_slots if s != slot]
        if not remaining:
            raise ValueError(f"cannot take slot {slot} offline: it is the last one")
        self.offline.add(slot)

    def preview(
        self,
        *,
        online: "frozenset[int] | set[int]" = frozenset(),
        offline: "frozenset[int] | set[int]" = frozenset(),
    ) -> "ShardRouter":
        """A hypothetical router after a membership change (nothing mutated).

        Used to compute, *before* a resize lands, exactly which templates
        change owner — the set whose cached plans migrate during warm-up.
        """
        clone = ShardRouter.__new__(ShardRouter)
        clone.num_shards = max(self.num_shards, *(s + 1 for s in online)) if online else self.num_shards
        clone.offline = set(self.offline)
        for slot in range(self.num_shards, clone.num_shards):
            clone.offline.add(slot)
        clone.offline |= set(offline)
        clone.offline -= set(online)
        return clone


class ShardedCompilationService:
    """The cluster-wide compile front-end: route, aggregate, broadcast.

    Presents the job-keyed surface of a single shard's
    :class:`~repro.scope.cache.CompilationService` (``stats``,
    ``compile_job``, ``compile_many``, ``preexplore_batch``,
    ``checkpoint``) to the pipeline tasks and the Flighting Service; callers
    that compile a raw script (the span computer) resolve the owning shard
    through ``engine_for_template`` and use its service.
    """

    def __init__(self, cluster: "ShardedScopeCluster") -> None:
        self.cluster = cluster
        #: tracer for routing events and the batch fan-out span (null by
        #: default; ``ShardedScopeCluster.install_obs`` swaps it)
        self.tracer = NULL_TRACER

    @property
    def stats(self) -> CacheStats:
        """Cluster-wide counters: the sum of every shard's stats.

        Returns a fresh aggregate each call — take ``.snapshot()`` deltas
        exactly as with a single service.
        """
        total = CacheStats()
        for shard in self.cluster.shards:
            total = total + shard.compilation.stats
        return total

    def per_shard_stats(self) -> dict[int, CacheStats]:
        """Snapshot of each shard's cumulative counters, keyed by shard id."""
        return {
            index: shard.compilation.stats.snapshot()
            for index, shard in enumerate(self.cluster.shards)
        }

    def compile_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> "OptimizationResult":
        shard = self.cluster.router.shard_for_job(job)
        if self.tracer.enabled:
            # annotate the current trace with the routing decision
            self.tracer.event("route", shard=shard)
        service = self.cluster.shards[shard].compilation
        return service.compile_job(job, flip, use_hints=use_hints)

    def _slices(self, requests: "list[CompileRequest]") -> "list[tuple[int, list[int]]]":
        """Request positions grouped by owning shard, ascending slot."""
        by_shard: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            shard = self.cluster.router.shard_for_job(request.job)
            by_shard.setdefault(shard, []).append(position)
        return sorted(by_shard.items())

    def preexplore_batch(
        self,
        requests: Iterable[CompileRequest],
        executor: "Executor | None" = None,
    ) -> int:
        """Cluster-wide MQO pre-exploration: each owning shard's own
        ``preexplore_batch`` on its routed slice; returns the fragments
        explored across shards."""
        ordered = list(requests)
        return sum(
            self.cluster.shards[shard].compilation.preexplore_batch(
                [ordered[position] for position in positions], executor
            )
            for shard, positions in self._slices(ordered)
        )

    def compile_many(
        self,
        requests: Iterable[CompileRequest],
        executor: "Executor | None" = None,
    ) -> "list[OptimizationResult | ScopeError]":
        """Batch compile across shards; results align with ``requests``.

        Route, then delegate: each owning shard's own ``compile_many`` gets
        its slice — pre-exploration, dedup and fan-out included — and the
        outcomes scatter back into request order.  Duplicates share a
        template, hence a shard, so per-shard dedup folds exactly what a
        single service's global dedup would.  Routing is stateless, so this
        is as thread-safe as the services; it and :meth:`preexplore_batch`
        are all that crosses the shard boundary (no shard's batch state is
        visible here — the seam a process-per-shard executor needs).
        """
        ordered = list(requests)
        results: list = [None] * len(ordered)
        with self.tracer.child_span("shard_fanout", requests=len(ordered)):
            for shard, positions in self._slices(ordered):
                outcomes = self.cluster.shards[shard].compilation.compile_many(
                    [ordered[position] for position in positions], executor
                )
                for position, outcome in zip(positions, outcomes):
                    results[position] = outcome
        return results

    def checkpoint(self) -> None:
        """Broadcast the epoch barrier to every shard's caches."""
        for shard in self.cluster.shards:
            shard.compilation.checkpoint()


class ShardedScopeCluster:
    """N ScopeEngine shards behind the single-engine facade.

    Owns the router and the shard engines; implements every member the
    pipeline, the Flighting Service, the span computer and SIS use on a
    plain :class:`ScopeEngine` (``run_job``, ``compile_job``, ``execute``,
    ``compilation``, ``registry``, ``default_config``, ``config``,
    ``hint_provider``, ``engine_for_template``).  ``QOAdvisor.engine`` is
    always one of these; a single-engine deployment is a cluster of one.

    A shard owns its **compilation service** — plan and fragment caches,
    counters, lock — so cross-shard cache interference is impossible by
    construction, and reads the workload's **one catalog**, which only
    ``Workload.advance_to_day`` writes (on whichever thread asks for a new
    day's jobs).  Execution noise, gate draws and data reality factors are
    all keyed by the shared experiment seed, so which shard runs a job
    never shows in its metrics.
    """

    def __init__(
        self,
        workload: "Workload",
        config: SimulationConfig | None = None,
        registry: RuleRegistry | None = None,
        num_shards: int | None = None,
    ) -> None:
        self.config = config or workload.config
        self.registry = registry or default_registry()
        shards = num_shards if num_shards is not None else self.config.sharding.shards
        self.router = ShardRouter(
            shards, slots=self.config.sharding.provisioned_shards or None
        )
        self.workload = workload
        self.shards: list[ScopeEngine] = []
        from repro.obs.plane import NULL_PLANE

        #: observability plane (null by default; ``install_obs`` swaps it)
        #: and the shared SIS lookup — every engine built here, at
        #: construction or by ``provision_shard``, inherits both
        self.obs = NULL_PLANE
        self._hint_provider: Callable[[str], RuleFlip | None] | None = None
        for _ in range(shards):
            self.shards.append(self._build_engine())
        self.compilation = ShardedCompilationService(self)

    def _build_engine(self) -> ScopeEngine:
        """A shard: its own caches and counters over the workload's catalog."""
        engine = ScopeEngine(self.workload.catalog, self.config, self.registry)
        engine.hint_provider = self._hint_provider
        engine.install_obs(self.obs)
        return engine

    def install_obs(self, plane) -> None:
        """Wire an observability plane into every shard's compile path."""
        self.obs = plane
        self.compilation.tracer = plane.tracer
        for shard in self.shards:
            shard.install_obs(plane)

    # -- elastic membership ---------------------------------------------------

    def provision_shard(self) -> int:
        """Build the next slot's engine without routing to it yet.

        The new shard gets empty caches, the one catalog and the shared SIS
        hint lookup.  It stays *offline* until :meth:`activate_shard` — the
        serving layer warms its plan cache with the moved templates'
        entries in between, so the shard enters rotation hot.
        """
        self.shards.append(self._build_engine())
        return len(self.shards) - 1

    def activate_shard(self, slot: int) -> None:
        """Put a provisioned slot into routing rotation."""
        if not 0 <= slot < len(self.shards):
            raise ValueError(f"slot {slot} has no engine (shards: {len(self.shards)})")
        self.router.bring_online(slot)

    # -- routing -------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shard engines (in rotation or not); slot indices are dense."""
        return len(self.shards)

    def engine_for_template(self, template_id: str) -> ScopeEngine:
        return self.shards[self.router.shard_for(template_id)]

    def engine_for(self, job: JobInstance) -> ScopeEngine:
        return self.shards[self.router.shard_for_job(job)]

    # -- single-engine facade ------------------------------------------------

    @property
    def default_config(self) -> RuleConfiguration:
        return self.shards[0].default_config

    @property
    def hint_provider(self) -> Callable[[str], RuleFlip | None] | None:
        return self._hint_provider

    @hint_provider.setter
    def hint_provider(self, provider: Callable[[str], RuleFlip | None] | None) -> None:
        # SIS attaches once to the cluster; the lookup reaches every shard
        self._hint_provider = provider
        for shard in self.shards:
            shard.hint_provider = provider

    def compile_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> "OptimizationResult":
        return self.engine_for(job).compile_job(job, flip, use_hints=use_hints)

    def peek_job_result(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> "OptimizationResult | None":
        """Counter-free cached-plan peek on the job's owning shard."""
        return self.engine_for(job).peek_job_result(job, flip, use_hints=use_hints)

    def compile(self, script: str):
        """Raw parse/bind/compile (no plan cache) — the analysis harnesses'
        entry point.  Every shard reads the same catalog, so any answers."""
        return self.shards[0].compile(script)

    def optimize(self, compiled, config: RuleConfiguration | None = None):
        """Raw optimization of a compiled script (no plan cache)."""
        return self.shards[0].optimize(compiled, config)

    def execute(self, result: "OptimizationResult", run_key: tuple) -> "JobMetrics":
        """Execute a plan; the simulator is stateless, never reads the
        catalog, and noise is keyed by the shared seed — so any engine's
        runtime gives the identical answer."""
        return self.shards[0].execute(result, run_key)

    def run_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        attempt: int = 0,
        use_hints: bool = True,
    ) -> JobRun:
        return self.engine_for(job).run_job(
            job, flip, attempt=attempt, use_hints=use_hints
        )
