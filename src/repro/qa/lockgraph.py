"""Runtime lock-order race detector.

The static checker (:mod:`repro.qa.locks`) proves per-class discipline;
this module watches the *cross-object* protocol at runtime.  A
:class:`TracedLock` wraps a real ``threading.Lock``/``RLock`` and reports
every acquisition to a :class:`LockRegistry`, which maintains:

* per-thread **held stacks** (the nesting order each thread actually
  used);
* the global **lock-order graph** — a directed edge ``A -> B`` whenever
  some thread acquired ``B`` while holding ``A``, with the first
  offending stack sampled for the report;
* **cycles** in that graph (``A -> B`` on one thread and ``B -> A`` on
  another is a potential deadlock even if the test run never interleaved
  badly enough to hang);
* **fan-out hazards** — a lock held while ``Executor.map_jobs``
  dispatches to worker threads/processes, caught through
  :data:`repro.parallel._MAP_JOBS_WATCHERS`.  The coordinating thread
  blocking on workers while holding a lock the workers may need is the
  self-deadlock the codebase's coordinator-only fan-out rule forbids.
  A hazard is only *reported* when some other thread also acquired that
  lock during the run: a lock provably private to the coordinating
  thread (the maintenance window lock, held across every stage's
  fan-out precisely to serialize windows) cannot deadlock a pool whose
  workers never touch it.

Edges are keyed by **display name** (``ClassName._attr``), not instance,
so two shards acquiring their own service locks in mirrored order still
collapse onto one graph node pair and surface the ordering violation;
reentrant re-acquisition of an RLock the thread already holds adds no
edge (it cannot deadlock).

Instrumentation is explicit and reversible: :func:`instrument_locks`
swaps the lock attributes of live objects, and
:func:`auto_instrument_constructors` patches the known lock-bearing
classes so every instance built inside the patch window self-instruments
(this is what ``tests/conftest.py`` installs under ``REPRO_QA_LOCKS=1``).
``ShardQueue`` is deliberately left alone: its ``Condition`` objects bind
their lock's ``acquire``/``release`` at construction, and ``wait()``
releases the lock behind any wrapper's back, which would corrupt the
held-stack model.

The wrapper adds two dict operations per acquisition and nothing to the
fingerprint-covered data flow — ``DayReport.fingerprint()`` and
``CacheStats.core()`` are byte-identical with instrumentation on and off
(asserted by ``tests/test_qa_runtime.py``).
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field

import repro.parallel as parallel

__all__ = [
    "TracedLock",
    "LockRegistry",
    "OrderEdge",
    "FanoutHazard",
    "instrument_locks",
    "auto_instrument_constructors",
]

_LOCK_TYPES = (type(threading.Lock()), type(threading.RLock()))


@dataclass(frozen=True)
class OrderEdge:
    """``held -> acquired`` observed on some thread, with a sample stack."""

    held: str
    acquired: str
    thread: str
    stack: str


@dataclass(frozen=True)
class FanoutHazard:
    """A lock held while ``map_jobs`` dispatched to workers."""

    locks: tuple[str, ...]
    backend: str
    thread: str
    stack: str


@dataclass
class _HeldLock:
    uid: int
    name: str
    count: int = 1


class LockRegistry:
    """Collects acquisition order across every :class:`TracedLock`.

    Thread-safe: the registry's own mutex is a leaf — it is only ever
    taken with the traced lock *not yet* acquired (edge recording happens
    before the real ``acquire`` call) or for read-side queries, so the
    instrumentation cannot itself introduce an ordering.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._local = threading.local()
        #: (held name, acquired name) -> first sample
        self._edges: dict[tuple[str, str], OrderEdge] = {}
        self._nodes: set[str] = set()
        #: lock name -> thread idents that ever acquired it
        self._threads_by_lock: dict[str, set[int]] = {}
        #: (hazard, fan-out thread ident) — filtered at query time
        self._hazards: list[tuple[FanoutHazard, int]] = []
        self._acquisitions = 0
        self._watching = False

    # -- held-stack bookkeeping (called from TracedLock) ----------------------

    def _stack(self) -> list[_HeldLock]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def note_acquire(self, uid: int, name: str) -> None:
        stack = self._stack()
        for held in stack:
            if held.uid == uid:  # reentrant RLock re-entry: no new ordering
                held.count += 1
                return
        if stack:
            edges = [
                (held.name, name) for held in stack if held.name != name
            ]
            if edges:
                sample = "".join(traceback.format_stack(limit=12)[:-2])
                thread = threading.current_thread().name
                with self._mutex:
                    for key in edges:
                        if key not in self._edges:
                            self._edges[key] = OrderEdge(
                                key[0], key[1], thread, sample
                            )
        with self._mutex:
            self._nodes.add(name)
            self._threads_by_lock.setdefault(name, set()).add(
                threading.get_ident()
            )
            self._acquisitions += 1
        stack.append(_HeldLock(uid, name))

    def note_release(self, uid: int) -> None:
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].uid == uid:
                stack[index].count -= 1
                if stack[index].count == 0:
                    del stack[index]
                return

    # -- map_jobs hazard watcher ----------------------------------------------

    def watch_map_jobs(self) -> None:
        """Register with :data:`repro.parallel._MAP_JOBS_WATCHERS`."""
        if not self._watching:
            parallel._MAP_JOBS_WATCHERS.append(self._on_map_jobs)
            self._watching = True

    def unwatch_map_jobs(self) -> None:
        if self._watching:
            try:
                parallel._MAP_JOBS_WATCHERS.remove(self._on_map_jobs)
            except ValueError:  # pragma: no cover — defensive
                pass
            self._watching = False

    def _on_map_jobs(self, backend: str) -> None:
        stack = self._stack()
        if not stack:
            return
        hazard = FanoutHazard(
            locks=tuple(held.name for held in stack),
            backend=backend,
            thread=threading.current_thread().name,
            stack="".join(traceback.format_stack(limit=12)[:-2]),
        )
        with self._mutex:
            self._hazards.append((hazard, threading.get_ident()))

    # -- queries ---------------------------------------------------------------

    @property
    def acquisitions(self) -> int:
        with self._mutex:
            return self._acquisitions

    def edges(self) -> list[OrderEdge]:
        with self._mutex:
            return sorted(
                self._edges.values(), key=lambda e: (e.held, e.acquired)
            )

    def hazards(self) -> list[FanoutHazard]:
        """Fan-out hazards where another thread also takes the held lock.

        Events whose every held lock is private to the fanning-out thread
        are dropped: the pool cannot block on a lock no worker acquires.
        """
        with self._mutex:
            return [
                hazard
                for hazard, ident in self._hazards
                if any(
                    self._threads_by_lock.get(name, set()) - {ident}
                    for name in hazard.locks
                )
            ]

    def fanout_events(self) -> list[FanoutHazard]:
        """Every lock-held-across-``map_jobs`` event, unfiltered."""
        with self._mutex:
            return [hazard for hazard, _ in self._hazards]

    def cycles(self) -> list[list[str]]:
        """Cycles in the lock-order graph (each a closed node path)."""
        with self._mutex:
            adjacency: dict[str, list[str]] = {}
            for held, acquired in self._edges:
                adjacency.setdefault(held, []).append(acquired)
            nodes = sorted(self._nodes | set(adjacency))
        for targets in adjacency.values():
            targets.sort()
        cycles: list[list[str]] = []
        seen_cycles: set[tuple[str, ...]] = set()
        WHITE, GRAY, BLACK = 0, 1, 2
        color = dict.fromkeys(nodes, WHITE)

        def dfs(node: str, path: list[str]) -> None:
            color[node] = GRAY
            path.append(node)
            for target in adjacency.get(node, ()):
                if color[target] == GRAY:
                    cycle = path[path.index(target) :] + [target]
                    # canonical rotation so A->B->A and B->A->B dedupe
                    body = cycle[:-1]
                    pivot = body.index(min(body))
                    canon = tuple(body[pivot:] + body[:pivot])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        cycles.append(cycle)
                elif color[target] == WHITE:
                    dfs(target, path)
            path.pop()
            color[node] = BLACK

        for node in nodes:
            if color[node] == WHITE:
                dfs(node, [])
        return cycles

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` on any cycle or fan-out hazard."""
        problems: list[str] = []
        for cycle in self.cycles():
            problems.append("lock-order cycle: " + " -> ".join(cycle))
        for hazard in self.hazards():
            problems.append(
                f"lock(s) {', '.join(hazard.locks)} held across "
                f"map_jobs[{hazard.backend}] on thread {hazard.thread}:\n"
                f"{hazard.stack}"
            )
        if problems:
            raise AssertionError(
                "lock discipline violations:\n" + "\n".join(problems)
            )


class TracedLock:
    """Drop-in wrapper around a ``Lock``/``RLock`` that reports to a registry.

    Supports the context-manager protocol and explicit
    ``acquire``/``release`` — the only lock API this codebase uses.  Do
    **not** hand a TracedLock to ``threading.Condition``: conditions
    capture the raw ``acquire``/``release`` methods and ``wait()``
    releases the lock without telling the wrapper.
    """

    __slots__ = ("_inner", "_registry", "name", "_uid")

    def __init__(self, inner, registry: LockRegistry, name: str) -> None:
        if isinstance(inner, TracedLock):  # idempotent double-instrumentation
            inner = inner._inner
        self._inner = inner
        self._registry = registry
        self.name = name
        self._uid = id(self)  # qa: id-ok per-instance token, never ordered or persisted

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # record the edge *before* blocking: if this acquisition deadlocks,
        # the registry already holds the evidence
        self._registry.note_acquire(self._uid, self.name)
        ok = self._inner.acquire(blocking, timeout)
        if not ok:  # pragma: no cover — nothing here acquires non-blocking
            self._registry.note_release(self._uid)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._registry.note_release(self._uid)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"TracedLock({self.name})"


# -- instrumentation entry points ---------------------------------------------


def instrument_locks(*objects, registry: LockRegistry | None = None) -> LockRegistry:
    """Swap every plain lock attribute of ``objects`` for a traced wrapper.

    Scans each object's ``vars(obj)`` for ``Lock``/``RLock`` values (an
    already-traced lock is neither, so a second call is a no-op), names
    each lock ``ClassName._attr``, and registers the ``map_jobs`` fan-out
    watcher.  Aliased locks (``CompilationService`` shares its RLock with
    per-compile fragment views created *after* instrumentation) pick the
    wrapper up automatically because the views capture the attribute, not
    the raw lock.
    """
    registry = registry or LockRegistry()
    for obj in objects:
        cls = type(obj).__name__
        for attr, inner in list(vars(obj).items()):
            if isinstance(inner, _LOCK_TYPES):
                setattr(obj, attr, TracedLock(inner, registry, f"{cls}.{attr}"))
    registry.watch_map_jobs()
    return registry


def _known_classes() -> dict[str, type]:
    """The lock-bearing classes :func:`auto_instrument_constructors`
    patches.  ``ShardQueue`` is intentionally absent: its locks are
    ``Condition``-bound (see the module docstring)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import JsonlSink, RingSink, Tracer
    from repro.scope.cache import CompilationService
    from repro.serving.journal import TicketJournal
    from repro.serving.maintenance import MaintenanceScheduler
    from repro.serving.server import QOAdvisorServer, _ShardLane

    return {
        "CompilationService": CompilationService,
        "MetricsRegistry": MetricsRegistry,
        "TicketJournal": TicketJournal,
        "Tracer": Tracer,
        "RingSink": RingSink,
        "JsonlSink": JsonlSink,
        "QOAdvisorServer": QOAdvisorServer,
        "_ShardLane": _ShardLane,
        "MaintenanceScheduler": MaintenanceScheduler,
    }


def auto_instrument_constructors(registry: LockRegistry):
    """Patch the lock-bearing classes to self-instrument on construction.

    Every instance created while the patch is active gets its locks
    wrapped into ``registry`` immediately after ``__init__`` returns.
    Returns an ``undo()`` callable restoring the original constructors
    (already-wrapped instances keep their traced locks — they are
    functionally transparent).
    """
    originals: list[tuple[type, object]] = []
    for name, cls in _known_classes().items():
        original = cls.__init__

        def patched(self, *args, __original=original, **kwargs):
            __original(self, *args, **kwargs)
            instrument_locks(self, registry=registry)

        patched.__name__ = original.__name__
        patched.__qualname__ = original.__qualname__
        cls.__init__ = patched
        originals.append((cls, original))
    registry.watch_map_jobs()

    def undo() -> None:
        for cls, original in originals:
            cls.__init__ = original
        registry.unwatch_map_jobs()

    return undo
