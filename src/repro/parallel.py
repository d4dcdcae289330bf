"""Deterministic job-parallel execution backbone.

The paper's daily loop is embarrassingly parallel across jobs: production
runs, recompilations, flights, span probes and the bootstrap corpus are all
independent per-job units of work (§2.5 runs them over hundreds of
thousands of recurring jobs per day).  Every per-job hot path in this
reproduction therefore maps over jobs through one :class:`Executor`.

Two implementations share the contract:

* :class:`SerialExecutor` — a plain in-order loop (the reference schedule);
* :class:`ThreadedExecutor` — a ``concurrent.futures.ThreadPoolExecutor``
  fan-out with ``workers`` threads.

The contract that makes parallelism safe to adopt everywhere is
**order-preserving determinism**: :meth:`Executor.map_jobs` returns results
aligned with the input order, and because all per-job randomness flows
through :func:`repro.rng.keyed_rng` (never a shared sequential stream),
pipeline reports are byte-identical at any worker count.  Shared mutable
state on the mapped paths is confined to the compilation service, which is
thread-safe and deduplicates concurrent identical misses
(:mod:`repro.scope.cache`).

Nested fan-out is deliberately avoided: stages call ``map_jobs`` only from
the coordinating thread, so a single bounded pool can never deadlock on
itself.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor as _PoolImpl
from typing import Callable, Iterable, TypeVar

from repro.config import ExecutionConfig

__all__ = [
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "build_executor",
]

T = TypeVar("T")
R = TypeVar("R")

#: QA hook (:mod:`repro.qa.lockgraph`): callables invoked right before a
#: fan-out actually dispatches to other threads.  A registered
#: lock tracer uses this to flag locks held across ``map_jobs`` — the
#: coordinating thread blocking on workers while holding a lock the
#: workers may need is the classic self-deadlock this codebase's
#: "coordinator-only fan-out" rule exists to prevent.  Empty (zero
#: overhead beyond a truthiness check) unless instrumentation is on.
_MAP_JOBS_WATCHERS: list[Callable[[str], None]] = []


def _notify_map_jobs(backend: str) -> None:
    for watcher in _MAP_JOBS_WATCHERS:
        watcher(backend)


class Executor(ABC):
    """Order-preserving map over independent per-job units of work."""

    #: degree of parallelism this executor offers
    workers: int = 1

    @abstractmethod
    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item; results align with the input order.

        The first exception raised by ``fn`` propagates to the caller.
        Implementations may evaluate items concurrently, so ``fn`` must not
        depend on evaluation order — per-item randomness has to come from
        ``keyed_rng``, never from a shared sequential stream.
        """

    def map_jobs_propagated(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        tracer,
        parent=None,
    ) -> list[R]:
        """``map_jobs`` that carries the current span to workers without
        creating per-item spans.

        Makes span attachment schedule-independent: inner ``child_span``
        probes (plan compiles, fragment lookups) see the same parent
        whether an item ran inline on the coordinating thread or on a
        pool worker.  No parent, or a disabled tracer, degrades to plain
        ``map_jobs``.
        """
        if not tracer.enabled:
            return self.map_jobs(fn, items)
        if parent is None:
            parent = tracer.current()
            if parent is None:
                return self.map_jobs(fn, items)

        def propagated(item: T) -> R:
            with tracer.attach(parent):
                return fn(item)

        return self.map_jobs(propagated, items)

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The reference schedule: one item at a time, in order."""

    workers = 1

    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ThreadedExecutor(Executor):
    """Thread-pool fan-out; the pool is created lazily and reused."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"executor needs at least 1 worker, got {workers}")
        self.workers = workers
        self._pool: _PoolImpl | None = None

    def map_jobs(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        work = list(items)
        if len(work) <= 1:
            # nothing to overlap: skip the pool round-trip
            return [fn(item) for item in work]
        if _MAP_JOBS_WATCHERS:
            _notify_map_jobs("thread")
        if self._pool is None:
            self._pool = _PoolImpl(
                max_workers=self.workers, thread_name_prefix="repro-exec"
            )
        return list(self._pool.map(fn, work))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def build_executor(config: ExecutionConfig | None = None) -> Executor:
    """The executor for ``config``: serial at ``workers <= 1``, else the
    thread pool — the one backend, since every mapped closure shares its
    shard's plan cache and stats counters with the caller."""
    config = config or ExecutionConfig()
    if config.backend != "thread":
        raise ValueError(
            f"unknown executor backend {config.backend!r} (expected 'thread')"
        )
    if config.workers <= 1:
        return SerialExecutor()
    return ThreadedExecutor(config.workers)
