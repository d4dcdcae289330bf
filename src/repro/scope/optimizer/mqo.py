"""Batch-aware multi-query compilation: fragment pre-exploration.

The paper's production setting compiles ~100k recurring jobs a day whose
templates overlap heavily; PR 6's fragment substrate already shares each
join block's exploration *lazily* — the first compile to reach a fragment
explores it, everyone later hits.  The :class:`BatchPlanner` turns that
into classic MQO: given a batch's job list it digests every distinct
unit's normalized plan up front, ranks the distinct fragments by
(frequency × subtree size — the exploration-cost proxy), and explores them
in one fan-out through the caller's executor (an isolated fragment search
never reads the fragment store, so no task waits on another), warming the
fragment store before the per-script fan-out.  The compiles then run
exactly as today, now mostly pure fragment hits.

Determinism contract: pre-exploration is observationally transparent.
Every explored entry is the identical pure function of (subtree,
transformation bits, catalog version) the compile-time miss path would
build, plan-resident units are skipped through counter-free peeks, parse
failures are memoized exactly as the compile path memoizes them, and the
planner keeps its own dedup table instead of touching ``dedup_hits`` — so
all schedule-independent counters, and therefore ``DayReport.fingerprint()``,
are byte-identical with MQO on, off, sharded or threaded.  Even the
fragment hit/miss/insert telemetry is prefetch-invariant: a pre-explored
slot is inserted ``prefetch``-marked and its first demand lookup counts as
the miss that compile would have taken anyway.  Only ``mqo_preexplored``
(and the wall-clock shape of where exploration work runs) is
schedule-dependent telemetry.

This module is deliberately coupled to
:class:`~repro.scope.cache.CompilationService` internals (its lock, its
parse memo): the planner is *one* service's batch mode, not a public layer
— the sharded service routes each shard its slice and every shard plans alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ScopeError
from repro.scope.optimizer.engine import Optimizer
from repro.scope.optimizer.fragments import fragment_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import Executor
    from repro.scope.cache import CompilationService, CompileRequest

__all__ = ["BatchPlanner"]


@dataclass
class _FragmentTask:
    """One distinct fragment to pre-explore, with its batch statistics."""

    optimizer: Optimizer
    node: object
    digest: bytes
    origins: object
    #: operator count of the subtree — the exploration-cost proxy
    size: int
    #: request occurrences whose plans contain this fragment
    frequency: int = 0

    @property
    def priority(self) -> int:
        return self.frequency * self.size


@dataclass
class BatchPlanner:
    """Frequency-ordered fragment pre-exploration for one batch.

    Usage: :meth:`add_batch` with the service's batch, then one
    :meth:`preexplore` fanning the tasks through the executor.
    """

    service: "CompilationService"
    _tasks: dict = field(default_factory=dict)
    _optimizers: dict = field(default_factory=dict)

    def add_batch(self, requests: "Iterable[CompileRequest]") -> int:
        """Register the batch's requests; returns distinct fragments added.

        Resolves each request's configuration, skips units the plan cache
        would serve outright (counter-free peek — pre-exploring them would
        be pure waste), parses/normalizes the survivors through the same
        memos the compile path uses, and folds their fragment sites into
        the planner's task table keyed by fragment-store key — the exact
        identity of a slot.
        """
        service = self.service
        engine = service.engine
        added = 0
        for request in requests:
            config = engine.configuration_for(
                request.job, request.flip, use_hints=request.use_hints
            )
            script = request.job.script
            if service.config.enabled and service.peek(script, config) is not None:
                continue
            try:
                compiled = service._compiled_script(script)
            except ScopeError:
                continue  # the failure is memoized; the compile path reports it
            optimizer = self._optimizers.get(config.bits)
            if optimizer is None:
                optimizer = Optimizer(
                    engine.registry,
                    config,
                    engine.data_model,
                    budget=engine.budget,
                )
                self._optimizers[config.bits] = optimizer
            root = optimizer._normalize(compiled, set())
            view = service.fragment_view(config)
            for site in fragment_profile(compiled, root):
                key = view.key(site.digest)
                task = self._tasks.get(key)
                if task is None:
                    task = self._tasks[key] = _FragmentTask(
                        optimizer=optimizer,
                        node=site.node,
                        digest=site.digest,
                        origins=compiled.origins,
                        size=site.size,
                    )
                    added += 1
                task.frequency += 1
        return added

    def preexplore(self, executor: "Executor | None" = None) -> int:
        """Explore every registered fragment; returns how many ran.

        Tasks order by (priority descending, digest) — a deterministic
        total order, so the serial and fanned-out schedules insert the
        same entries (entries are pure values; insertion order only shapes
        which thread pays for overlapping work).  Already-resident
        fragments (warmed by an earlier batch or a concurrent compile) are
        skipped via counter-free peeks.
        """
        tasks = sorted(self._tasks.values(), key=lambda t: (-t.priority, t.digest))
        if executor is None or len(tasks) <= 1:
            return sum(self._explore_one(task) for task in tasks)
        # propagate the caller's span (the mqo_preexplore span) so
        # fragment-lookup events land identically at any worker count
        return sum(
            executor.map_jobs_propagated(
                self._explore_one, tasks, tracer=self.service.tracer
            )
        )

    def _explore_one(self, task: _FragmentTask) -> int:
        service = self.service
        view = service.fragment_view(task.optimizer.config)
        if view.peek(task.digest):
            return 0
        entry = task.optimizer.explore_fragment_entry(task.node, task.origins)
        with service._lock:
            # the isolated sub-search ran here instead of inside the first
            # compile to reach the fragment; its applications are real work,
            # but the demand miss is deferred to that first compile's ``get``
            # (the slot is inserted ``prefetch``-marked), keeping the fragment
            # hit/miss counters identical whether a batch warmed the store up
            # front or the lanes explored inline on first demand
            service.stats.rule_applications += entry.applications
            service.stats.mqo_preexplored += 1
        view.put(task.digest, entry, prefetch=True)
        return 1


def preexplore(
    service: "CompilationService",
    requests: "Iterable[CompileRequest]",
    executor: "Executor | None",
) -> int:
    """One pre-exploration pass over a service's batch.

    What :meth:`CompilationService.preexplore_batch` runs: one planner, one
    priority-ordered fan-out, under one ``mqo_preexplore`` span.  Returns the
    number of fragments explored.
    """
    planner = BatchPlanner(service)
    planner.add_batch(requests)
    with service.tracer.child_span("mqo_preexplore") as span:
        explored = planner.preexplore(executor)
        span.set(fragments=explored)
        return explored
