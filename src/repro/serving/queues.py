"""Bounded per-shard job queues for the serving front-end.

Each shard of the cluster gets one :class:`ShardQueue`: a bounded FIFO
with two admission policies (``"block"`` waits for a slot under a
timeout, ``"reject"`` raises :class:`QueueFull` immediately) — the
backpressure surface of the online serving layer.  A :class:`JobTicket`
travels through the queue carrying the submission sequence number that
later orders the job inside its day's :class:`~repro.core.pipeline.DayReport`
(reports are ordered by submission, never by completion, which is what
keeps the serving trace comparable to batch ``run_day``).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.scope.engine import JobRun
from repro.scope.jobs import JobInstance

__all__ = ["JobTicket", "QueueFull", "QueueClosed", "ShardQueue"]


class QueueFull(RuntimeError):
    """Admission failed: the shard queue is at capacity."""


class QueueClosed(RuntimeError):
    """Admission failed: the shard queue no longer accepts jobs."""


@dataclass
class JobTicket:
    """One submitted job's journey through the server.

    Field order mirrors the lifecycle: routed at admission, stamped with
    the live hint version at steer time, and finally carrying the
    completed :class:`~repro.scope.engine.JobRun` (or the failure flag).
    """

    #: global submission sequence number; orders the job within its day
    seq: int
    job: JobInstance
    day: int
    #: shard the ticket is currently routed to (rewritten on failover)
    shard: int
    #: SIS hint-file version the job was compiled against (None until steered)
    hint_version: int | None = None
    #: True when a SIS hint was active for the job's template at compile time
    steered: bool = False
    #: wall-clock seconds spent in compilation (the steer latency)
    compile_s: float = 0.0
    #: the completed run; None while queued/in-flight or after a failure
    run: JobRun | None = None
    #: the job failed to compile (it still appears in the day report)
    failed: bool = False
    #: how many times the ticket was requeued off a failed shard
    requeues: int = 0
    #: shards that already failed while holding this ticket
    excluded_shards: set[int] = field(default_factory=set)
    #: the ticket's root trace span (an :class:`repro.obs.trace.Span`),
    #: opened at admission and finished at the ticket's terminal point;
    #: None when observability is disabled.  Untyped on purpose: the queue
    #: layer must not import the obs package.
    trace: object | None = None

    @property
    def done(self) -> bool:
        return self.failed or self.run is not None


class ShardQueue:
    """A bounded FIFO of :class:`JobTicket` with explicit admission.

    Thread-safe; producers are submitting clients, consumers are the
    shard's steering workers.  ``close()`` stops admission (failover or
    shutdown) — pending tickets stay readable through :meth:`drain` so a
    failed shard's backlog can be requeued with zero loss.
    """

    def __init__(self, capacity: int, admission: str = "block") -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if admission not in ("block", "reject"):
            raise ValueError(
                f"unknown admission policy {admission!r} (expected 'block' or 'reject')"
            )
        self.capacity = capacity
        self.admission = admission
        self._items: deque[JobTicket] = deque()
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: high-water mark of the queue depth (a health metric)
        self.max_depth = 0

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def put(
        self, ticket: JobTicket, timeout: float | None = None, *, force: bool = False
    ) -> None:
        """Admit a ticket, honouring the queue's admission policy.

        Raises :class:`QueueFull` when no slot frees up (immediately under
        ``"reject"``, after ``timeout`` seconds under ``"block"``) and
        :class:`QueueClosed` when the queue stopped accepting work.

        ``force=True`` bypasses the capacity bound (never the closed
        check): the failover path transplants a dead shard's backlog onto
        survivors, and losing tickets to backpressure there would break
        the zero-job-loss contract — the bound may overshoot momentarily.
        """
        with self._not_full:
            if self._closed:
                raise QueueClosed(f"queue is closed; cannot admit {ticket.job.job_id}")
            if not force and len(self._items) >= self.capacity:
                if self.admission == "reject":
                    raise QueueFull(
                        f"shard queue at capacity ({self.capacity}); "
                        f"rejected {ticket.job.job_id}"
                    )
                deadline_ok = self._not_full.wait_for(
                    lambda: self._closed or len(self._items) < self.capacity,
                    timeout=timeout,
                )
                if self._closed:
                    raise QueueClosed(
                        f"queue closed while {ticket.job.job_id} waited for admission"
                    )
                if not deadline_ok:
                    raise QueueFull(
                        f"shard queue stayed at capacity ({self.capacity}) for "
                        f"{timeout}s; rejected {ticket.job.job_id}"
                    )
            self._items.append(ticket)
            self.max_depth = max(self.max_depth, len(self._items))
            self._not_empty.notify()

    def get(self, timeout: float | None = None) -> JobTicket | None:
        """Pop the next ticket; None on timeout or when closed and empty."""
        with self._not_empty:
            self._not_empty.wait_for(
                lambda: self._closed or self._items, timeout=timeout
            )
            if not self._items:
                return None
            ticket = self._items.popleft()
            self._not_full.notify()
            return ticket

    def close(self) -> None:
        """Stop admission and wake every waiter (idempotent)."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()
            self._not_empty.notify_all()

    def drain(self) -> list[JobTicket]:
        """Remove and return every pending ticket (the failover path)."""
        with self._lock:
            pending = list(self._items)
            self._items.clear()
            self._not_full.notify_all()
            return pending
