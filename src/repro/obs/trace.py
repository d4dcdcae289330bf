"""Hierarchical job tracing for the QO-Advisor reproduction.

The production QO Advisor is operated on per-job telemetry: every steering
decision, recompile and publication has to be attributable after the fact
(paper §2.5, §5 — the Table-1 workload view is *derived* from this
record).  This module is the substrate: a
:class:`Tracer` produces **spans** — named, timed, attributed intervals —
organized into **traces** keyed by the unit of work (one admitted job, one
pipeline day, one maintenance window), and closed spans are exported
through pluggable :class:`TraceSink`\\ s — the plane wires the in-memory
:class:`RingSink` (which also tallies finished spans by name) and, when
asked, a :class:`JsonlSink`.  Nothing is pushed anywhere else: whoever
wants the record reads the ring, the file or the metrics exposition.

Design constraints, inherited from the plan-cache work (PR 6–8):

* **fingerprint-free** — spans never touch :class:`~repro.scope.cache.CacheStats`
  or any field that feeds ``DayReport.fingerprint()``; tracing on vs. off
  is byte-identical in every report (locked by ``tests/test_obs.py``);
* **explicit context propagation** — worker threads do not inherit a
  parent's span automatically.  The fan-out boundary
  (:meth:`repro.parallel.Executor.map_jobs_propagated`, the serving
  ticket's ``trace`` field) carries the parent span across threads explicitly;
  *within* one thread, ``with tracer.span(...)`` maintains a thread-local
  stack so nested instrumentation (a compile inside a job) attaches
  without plumbing;
* **near-zero cost when off** — the disabled path is one attribute check
  (``tracer.enabled``) plus, at most, a shared no-op context manager
  (:data:`NULL_SPAN`); the perf ledger's ``obs.tax_pct`` and ``trace.*``
  rows measure the enabled overhead.

Span parenting rules:

* :meth:`Tracer.span` — starts a span under an explicit ``parent``, else
  under the calling thread's current span, else as a new trace root;
* :meth:`Tracer.child_span` — like ``span`` but *only* when a parent is
  available (explicit or current); otherwise it yields the no-op span.
  Hot shared paths (compiles, fragment lookups) use this so untraced
  callers never litter the sink with orphan roots;
* :meth:`Tracer.start` / :meth:`Tracer.finish` — manual span lifecycle
  for work that crosses threads (a serving ticket is admitted on the
  submitting thread and completed on a shard worker).
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from typing import Iterable

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "TraceSink",
    "RingSink",
    "JsonlSink",
]


class Span:
    """One named, timed interval of work inside a trace.

    Mutable while open (attributes and events may be added), immutable by
    convention once finished.  A span is only ever mutated by the thread
    that currently owns it — ownership transfers (submit thread → shard
    worker) are sequenced by the queue handoff.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "events",
        "start_s",
        "end_s",
        "status",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: int | None,
        name: str,
        start_s: float,
        attrs: dict | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs or {}
        self.events: list[tuple[str, dict]] = []
        self.start_s = start_s
        self.end_s: float | None = None
        self.status = "ok"

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point-in-time event on the span."""
        self.events.append((name, attrs))

    def to_dict(self) -> dict:
        """The JSONL trace schema (one object per closed span)."""
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "dur_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
            "events": [{"name": name, **attrs} for name, attrs in self.events],
        }

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id!r}, id={self.span_id}, "
            f"parent={self.parent_id}, status={self.status})"
        )


class _NullSpan:
    """Shared no-op span/context-manager (the disabled fast path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        return None


NULL_SPAN = _NullSpan()


class TraceSink:
    """Receives every finished span; implementations must be thread-safe."""

    def on_span(self, span: Span) -> None:  # pragma: no cover — interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (idempotent)."""


class RingSink(TraceSink):
    """Fixed-capacity in-memory ring of the most recent finished spans.

    Also the plane's span tally: ``total`` and :meth:`finished_by_name`
    cover every span ever finished, evicted ones included; the
    ``repro_spans_finished_total`` view reads the latter.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)
        #: spans ever finished (survives ring eviction; feeds spans/sec)
        self.total = 0
        #: spans ever finished, by span name
        self._finished: Counter[str] = Counter()

    def on_span(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)
            self.total += 1
            self._finished[span.name] += 1

    def spans(self) -> list[Span]:
        """The resident spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def finished_by_name(self) -> dict[str, int]:
        """Spans ever finished, by name (a copy)."""
        with self._lock:
            return dict(self._finished)


class JsonlSink(TraceSink):
    """Append-only JSONL exporter: one ``Span.to_dict()`` object per line.

    The file format is the hand-off to external tooling: stable keys, no
    framing beyond newlines, attributes restricted to JSON-representable
    values by convention (offenders are stringified rather than dropped).
    """

    def __init__(self, path) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def on_span(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), default=str, separators=(",", ":"))
        with self._lock:
            if self._file.closed:  # late span after close(); drop, not crash
                return
            self._file.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()


class _ActiveSpan:
    """Context manager binding a span to the calling thread's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self._span)
        self._tracer.finish(self._span, error=exc_type is not None)
        return False


class _AttachedSpan:
    """Context manager making an open span *current* without owning it.

    The propagation-only half of :class:`_ActiveSpan`: pushes an existing
    span onto the calling thread's stack so nested ``child_span`` calls
    parent under it, but never finishes it — the span's owner does that.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Produces spans and exports the finished ones to its sinks."""

    enabled = True

    def __init__(self, sinks: Iterable[TraceSink] = ()) -> None:
        self.sinks: list[TraceSink] = list(sinks)
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()

    # -- thread-local stack ---------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    # -- span lifecycle -------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def start(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attrs: object,
    ) -> Span:
        """Start a span without binding it to the calling thread.

        For work whose lifetime crosses threads (a serving ticket): the
        caller owns the handle and must :meth:`finish` it exactly once.
        """
        span_id = self._allocate_id()
        if parent is not None:
            trace = trace_id or parent.trace_id
            parent_id = parent.span_id
        else:
            trace = trace_id or f"trace:{span_id}"
            parent_id = None
        return Span(trace, span_id, parent_id, name, time.perf_counter(), attrs)

    def finish(self, span: Span, *, error: bool = False) -> None:
        """Close a span and export it (idempotent on double-finish)."""
        if span is NULL_SPAN or span.finished:  # type: ignore[comparison-overlap]
            return
        span.end_s = time.perf_counter()
        if error:
            span.status = "error"
        for sink in self.sinks:
            sink.on_span(span)

    def span(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        **attrs: object,
    ) -> _ActiveSpan:
        """An active span: parented to ``parent``, else the thread's current
        span, else opening a fresh trace.  Use as a context manager."""
        if parent is None:
            parent = self.current()
        return _ActiveSpan(self, self.start(name, parent, trace_id, **attrs))

    def child_span(
        self, name: str, parent: Span | None = None, **attrs: object
    ) -> "_ActiveSpan | _NullSpan":
        """An active span only when a parent exists; no-op span otherwise.

        The guard for hot shared paths (plan compiles, fragment lookups):
        traced callers get properly-parented children, untraced callers
        pay one stack peek and produce nothing.
        """
        if parent is None:
            parent = self.current()
            if parent is None:
                return NULL_SPAN
        return _ActiveSpan(self, self.start(name, parent, None, **attrs))

    def attach(self, span: "Span | None") -> "_AttachedSpan | _NullSpan":
        """Make ``span`` the calling thread's current span for a block.

        Cross-thread propagation without span creation: a worker thread
        attaches the coordinating thread's span so its ``child_span``
        probes parent identically to an inline schedule.  Never finishes
        the span; ``None`` (or the no-op span) yields the no-op manager.
        """
        if span is None or span is NULL_SPAN:  # type: ignore[comparison-overlap]
            return NULL_SPAN
        return _AttachedSpan(self, span)

    def event(self, name: str, **attrs: object) -> None:
        """Attach an event to the thread's current span (dropped if none)."""
        span = self.current()
        if span is not None:
            span.event(name, **attrs)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False

    def current(self) -> None:
        return None

    def start(self, name, parent=None, trace_id=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def finish(self, span, *, error: bool = False) -> None:
        return None

    def span(self, name, parent=None, trace_id=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def child_span(self, name, parent=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def attach(self, span) -> _NullSpan:
        return NULL_SPAN

    def event(self, name: str, **attrs) -> None:
        return None

    def close(self) -> None:
        return None


#: shared disabled tracer — the default wiring of every instrumented component
NULL_TRACER = NullTracer()
