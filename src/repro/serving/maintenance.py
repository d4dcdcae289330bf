"""Micro-batched maintenance windows between hint publications.

In batch mode one ``run_day`` call is a global barrier: production,
feature generation, recommendation, recompilation, flighting, validation
and hint generation all happen inside it.  The serving layer splits that:
production happens continuously on the shard lanes as jobs arrive, while
the :class:`MaintenanceScheduler` accumulates the completed tickets and,
when a window is opened, drains them through the *same*
:class:`~repro.core.pipeline.PipelineStage` objects the batch pipeline
runs (features → recommend → recompile → flight → validate → hintgen) and
atomically publishes the resulting hint-file version through SIS.

The determinism contract extends here: a window over exactly one day's
completed stream, driven on the serial (inline) schedule, produces a
:class:`~repro.core.pipeline.DayReport` whose ``fingerprint()`` is
byte-identical to batch ``run_day`` — same stage objects, same epoch
barriers (the post-production checkpoint runs at window open, exactly
where batch runs it), same finalize accounting.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.core.pipeline import (
    DayReport,
    QOAdvisorPipeline,
    StageContext,
    record_production,
)
from repro.scope.cache import CacheStats
from repro.serving.queues import JobTicket
from repro.sis.service import SISService

__all__ = ["MaintenanceScheduler"]


@dataclass
class _DayAccumulator:
    """Everything a day's stream has produced so far."""

    day: int
    #: cumulative cache counters at day open (the delta base)
    cache_before: CacheStats = field(default_factory=CacheStats)
    shards_before: dict[int, CacheStats] = field(default_factory=dict)
    #: completed tickets keyed by submission sequence number
    tickets: dict[int, JobTicket] = field(default_factory=dict)


class MaintenanceScheduler:
    """Accumulates completed tickets and drains them through the pipeline.

    ``on_window_start(day)`` and ``on_publish(report)`` are operational
    hooks: the first fires as a window opens (before any stage runs, and
    crucially *without* holding any submission-path lock — new jobs keep
    being admitted while maintenance runs, which is exactly the "days are
    no longer a global barrier" property), the second after a window that
    uploaded a new hint-file version.
    """

    def __init__(
        self,
        pipeline: QOAdvisorPipeline,
        sis: SISService,
        on_window_start: Callable[[int], None] | None = None,
        on_publish: Callable[[DayReport], None] | None = None,
    ) -> None:
        self.pipeline = pipeline
        self.sis = sis
        self.on_window_start = on_window_start
        self.on_publish = on_publish
        self._days: dict[int, _DayAccumulator] = {}
        self._lock = threading.Lock()
        #: windows are serialized: the Personalizer's exploration stream
        #: and the hint publications are strictly ordered
        self._window_lock = threading.Lock()
        self.windows = 0
        self.publications = 0

    def open_day(self, day: int) -> None:
        """Snapshot the delta base the first time a day appears.

        Must happen before any of the day's jobs compile, so the server
        calls it at admission; on the serial schedule that makes the cache
        delta span exactly what batch ``run_day`` measures.
        """
        with self._lock:
            if day not in self._days:
                cache_before, shards_before = self.pipeline.snapshot_stats()
                self._days[day] = _DayAccumulator(
                    day=day,
                    cache_before=cache_before,
                    shards_before=shards_before,
                )

    def record(self, ticket: JobTicket) -> None:
        """File a completed (or failed) ticket under its day."""
        with self._lock:
            accumulator = self._days.get(ticket.day)
            if accumulator is None:  # out-of-band completion; open in place
                cache_before, shards_before = self.pipeline.snapshot_stats()
                accumulator = self._days[ticket.day] = _DayAccumulator(
                    ticket.day, cache_before, shards_before
                )
            accumulator.tickets[ticket.seq] = ticket

    def pending(self, day: int) -> int:
        """Completed tickets accumulated for ``day`` and not yet drained."""
        with self._lock:
            accumulator = self._days.get(day)
            return len(accumulator.tickets) if accumulator else 0

    def run_window(self, day: int) -> DayReport:
        """Drain ``day``'s accumulated work and publish the next hint set.

        Runs the batch pipeline's own stage objects over the accumulated
        production results, then finalizes the report against the day-open
        counter snapshot.  The hint upload inside the ``hintgen`` stage is
        the atomic publication: SIS rebinds the full active set in one
        step, so a steering worker either sees the old hint file or the
        new one, never a mix.  With observability on, the window's root
        span records its duration, day, jobs, failed jobs and the hint
        version it published (None when validation held the release back).
        """
        obs = self.pipeline.obs
        with self._window_lock:
            # the window's root span: trace id = the window id, stage
            # spans parent under it via ``ctx.trace`` exactly like the
            # batch "day" root
            with obs.tracer.span("window", trace_id=f"window:{day}", day=day) as root:
                report = self._drain_window(day, trace=root)
                root.set(
                    hint_version=report.hint_version,
                    jobs=len(report.production_runs),
                    failed=len(report.failed_jobs),
                )
            return report

    def _drain_window(self, day: int, trace: object) -> DayReport:
        """The window body: drain, run the offline stages, finalize.

        Runs under ``_window_lock``; ``trace`` is the window's root span
        (the no-op span when observability is off), handed to the stage
        contexts so stage spans parent under it.
        """
        if self.on_window_start is not None:
            self.on_window_start(day)
        with self._lock:
            accumulator = self._days.pop(day, None)
        if accumulator is None:
            cache_before, shards_before = self.pipeline.snapshot_stats()
            accumulator = _DayAccumulator(day, cache_before, shards_before)

        report = DayReport(day=day)
        ctx = StageContext(day=day, report=report, trace=trace)
        # the window's production pass, in submission (seq) order
        record_production(
            ctx,
            (
                (ticket.job, None if ticket.failed else ticket.run)
                for _, ticket in sorted(accumulator.tickets.items())
            ),
        )
        # the post-production epoch barrier, at the same point batch
        # run_day places it (right after the production stage).  Note
        # the strict byte-parity contract assumes no compile is in
        # flight at the barrier (the drained schedules); jobs admitted
        # *during* the window stay correct, but their interleaving
        # with checkpoint eviction is schedule-shaped.
        self.pipeline.engine.compilation.checkpoint()
        for stage in self.pipeline.stages[1:]:
            self.pipeline.run_stage(stage, ctx)
        self.pipeline.finalize_report(
            report, accumulator.cache_before, accumulator.shards_before
        )
        self.windows += 1
        if report.hint_version is not None:
            self.publications += 1
            if self.on_publish is not None:
                self.on_publish(report)
        return report
