"""Sharded multi-cluster scale-out (paper §2, §4.4).

The production QO-Advisor steers SCOPE across *many* clusters: hints flow
through one SIS deployment, while compilation and flighting happen on the
cluster a job's virtual-cluster path maps to.  This module reproduces that
topology as *routing* inside the one :class:`~repro.scope.engine.ScopeEngine`:

* :class:`ShardRouter` — stable-hash partitioning of jobs by template id
  (the unit SIS keys hints by, so a template's production runs, span
  probes, recompiles and flights all land on the same shard and share its
  plan cache).  The shard count is fixed at construction, and a
  template's shard never changes: the serving layer steers each job on
  its template's home shard's lane;
* :class:`ShardedCompilationService` — the engine's compile front-end
  (``ScopeEngine.compilation``): N shard
  :class:`~repro.scope.cache.CompilationService` instances, each with its
  **own plan cache**, counters and lock, all built over the one engine (one
  catalog, registry, data model, runtime and SIS lookup).  It routes
  requests to the owning shard, aggregates per-shard
  :class:`~repro.scope.cache.CacheStats`, and broadcasts checkpoints;
  ``shards=1`` is a service of one.

SIS stays the **single shared hint store**: ``SISService.attach(engine)``
sets the engine's ``hint_provider``, which every shard's compiles resolve
their configuration through.  An upload rebinds the active hint set,
which every shard's next lookup sees; nothing is broadcast and no shard
drops an entry.

Parallelism composes with the PR-2 executor at the *job* level: pipeline
stages keep mapping per-job closures through one
:class:`~repro.parallel.Executor`, and each closure routes to its shard —
so a single fan-out naturally spreads across every shard's cache without
nested pools.  *Batch* compiles make the shard the unit of work: the
service routes each request to its owning shard and hands that shard's own
``compile_many`` / ``preexplore_batch`` its slice, so there is one
batch-compile implementation and two calls cross the shard boundary.

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

from typing import TYPE_CHECKING, Iterable

from repro.obs.trace import NULL_TRACER
from repro.rng import stable_hash
from repro.scope.cache import CacheStats, CompilationService, CompileRequest
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.rules.base import RuleFlip

if TYPE_CHECKING:  # pragma: no cover
    from repro.errors import ScopeError
    from repro.parallel import Executor
    from repro.scope.engine import ScopeEngine
    from repro.scope.optimizer.engine import OptimizationResult

__all__ = ["ShardRouter", "ShardedCompilationService"]


class ShardRouter:
    """Stable-hash partitioning of templates (and their jobs) onto shards.

    Routing is a pure function of the template id: it decides which
    shard's plan cache a template's compilations share, and it has to
    agree across processes and runs (``stable_hash``, not the salted
    builtin).  A template's shard is its *home* for the engine's
    lifetime: its jobs are steered on that shard's serving lane and
    compile in that shard's service.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValueError(f"a cluster needs at least 1 shard, got {num_shards}")
        #: total shards (the hash modulus)
        self.num_shards = num_shards

    def shard_for(self, template_id: str) -> int:
        return stable_hash("shard-route", template_id) % self.num_shards

    def shard_for_job(self, job: JobInstance) -> int:
        return self.shard_for(job.template_id)


class ShardedCompilationService:
    """The engine's compile front-end: route, aggregate, broadcast.

    Holds one :class:`~repro.scope.cache.CompilationService` per shard
    (``shards``, built once), every one over the same
    engine.  Presents the job-keyed surface of a single service
    (``stats``, ``compile_job``, ``compile_many``, ``preexplore_batch``,
    ``checkpoint``) to the pipeline tasks and the Flighting Service;
    callers that compile a raw script (the span computer) resolve the
    owning shard through :meth:`service_for` and use it directly.
    """

    def __init__(self, engine: "ScopeEngine") -> None:
        self.engine = engine
        self.router = engine.router
        #: tracer for routing events and the batch fan-out span (null by
        #: default; ``ScopeEngine.install_obs`` swaps it, here and on every
        #: shard)
        self.tracer = NULL_TRACER
        self.shards: list[CompilationService] = [
            CompilationService(engine, engine.config.cache)
            for _ in range(self.router.num_shards)
        ]

    def service_for(self, template_id: str) -> CompilationService:
        """The shard service ``template_id``'s compiles land on."""
        return self.shards[self.router.shard_for(template_id)]

    @property
    def stats(self) -> CacheStats:
        """Engine-wide counters: the sum of every shard's stats.

        Returns a fresh aggregate each call — take ``.snapshot()`` deltas
        exactly as with a single service.
        """
        total = CacheStats()
        for service in self.shards:
            total = total + service.stats
        return total

    def per_shard_stats(self) -> dict[int, CacheStats]:
        """Snapshot of each shard's cumulative counters, keyed by shard id."""
        return {
            index: service.stats.snapshot() for index, service in enumerate(self.shards)
        }

    def compile_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> "OptimizationResult":
        shard = self.router.shard_for_job(job)
        if self.tracer.enabled:
            # annotate the current trace with the routing decision
            self.tracer.event("route", shard=shard)
        return self.shards[shard].compile_job(job, flip, use_hints=use_hints)

    def _slices(self, requests: "list[CompileRequest]") -> "list[tuple[int, list[int]]]":
        """Request positions grouped by owning shard, ascending shard."""
        by_shard: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            shard = self.router.shard_for_job(request.job)
            by_shard.setdefault(shard, []).append(position)
        return sorted(by_shard.items())

    def preexplore_batch(
        self,
        requests: Iterable[CompileRequest],
        executor: "Executor | None" = None,
    ) -> int:
        """Engine-wide MQO pre-exploration: each owning shard's own
        ``preexplore_batch`` on its routed slice; returns the fragments
        explored across shards."""
        ordered = list(requests)
        return sum(
            self.shards[shard].preexplore_batch(
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
                outcomes = self.shards[shard].compile_many(
                    [ordered[position] for position in positions], executor
                )
                for position, outcome in zip(positions, outcomes):
                    results[position] = outcome
        return results

    def checkpoint(self) -> None:
        """Broadcast the epoch barrier to every shard's caches."""
        for service in self.shards:
            service.checkpoint()
