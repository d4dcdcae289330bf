"""QOAdvisorServer: the long-lived online serving front-end.

Wraps a :class:`~repro.core.advisor.QOAdvisor` (and with it its one
:class:`~repro.scope.engine.ScopeEngine`, one lane per shard of the
engine's compilation service) behind a job-stream API:

* :meth:`submit` queues a job on its template's home lane — the shard
  the engine's :class:`~repro.sharding.ShardRouter` hashes it to;
* each shard *lane* steers arrivals against the **live** SIS hint-file
  version — compile through the template's home
  :class:`~repro.scope.cache.CompilationService`, execute on the engine —
  on its worker threads (or inline on the submitting thread when
  ``ServingConfig.workers_per_shard == 0``, the serial replay schedule);
* completed work accumulates in the :class:`MaintenanceScheduler`, whose
  :meth:`~repro.serving.maintenance.MaintenanceScheduler.run_window`
  micro-batches the offline stages (features → recommend → recompile →
  flight → validate → hintgen) and atomically publishes the next hint
  version — day boundaries stop being a global barrier, because
  submissions keep flowing while a window runs;
* the fleet is fixed at construction, one lane per shard;
* admission is by capacity alone: a job enters its lane's bounded
  queue, and a full queue blocks the submit until a slot frees up or
  its timeout passes (``submit(timeout=0)`` refuses at once) — no
  admission decision reads the clock;
* a write-ahead :class:`~repro.serving.journal.TicketJournal` records
  admissions, completions and window publications, and :meth:`recover`
  replays it on a freshly-constructed server so a crash mid-day
  reconstructs the day accumulators and the pending maintenance window
  byte-identically (each journaled window fingerprint is re-verified
  during replay);
* :meth:`stats` reports per-shard health: queue depth, steer rate,
  compile-latency percentiles, hint version skew.

Determinism: replaying a day's job stream on the inline schedule
reproduces batch ``run_day``'s ``DayReport.fingerprint()`` byte for byte
(locked by ``tests/test_serving.py``).
The threaded schedule reproduces it too when each day is drained before
its maintenance window runs (the ``stream_day`` shape): every per-job
quantity is keyed and the compilation service's accounting is
schedule-independent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable

from repro.config import SimulationConfig
from repro.core.advisor import QOAdvisor
from repro.core.pipeline import DayReport
from repro.errors import ScopeError
from repro.obs.metrics import Sample
from repro.scope.cache import CompilationService
from repro.scope.engine import JobRun
from repro.scope.jobs import JobInstance
from repro.serving.journal import (
    RECORD_KINDS,
    JournalError,
    RecoveryReport,
    TicketJournal,
)
from repro.serving.maintenance import MaintenanceScheduler
from repro.serving.queues import JobTicket, QueueClosed, ShardQueue
from repro.serving.stats import (
    CACHE_FIELDS,
    LANE_COUNTERS,
    ServerStats,
    ShardStats,
    job_totals,
    percentile,
)

__all__ = ["QOAdvisorServer"]

#: bound on each lane's queue; a submit to a full queue waits for a slot
_QUEUE_CAPACITY = 256
#: how long a blocking submit waits for queue space before giving up, unless
#: ``submit(timeout=)`` says otherwise
_SUBMIT_TIMEOUT_S = 30.0
#: bound on each lane's compile-latency sample ring: p50/p95/p99 are
#: computed over the most recent this-many completions
_LATENCY_WINDOW = 1024


class _ShardLane:
    """One shard's serving lane: queue + shard service + workers + counters."""

    def __init__(self, index: int, service: CompilationService) -> None:
        self.index = index
        #: the shard's compilation service, whose stats this lane reports
        self.service = service
        self.queue = ShardQueue(_QUEUE_CAPACITY)
        self.lock = threading.Lock()
        #: one integer per name of the serving vocabulary, bumped under
        #: ``lock``; every stats surface is built from this container
        self.counts = dict.fromkeys(LANE_COUNTERS, 0)
        #: the most recent compile latencies (percentile source) and the
        #: lifetime count of them, both under ``lock``; a lifetime list
        #: would grow without bound on a long-lived server
        self.compile_latency: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.compile_observations = 0
        self.last_hint_version: int | None = None
        self.threads: list[threading.Thread] = []


class QOAdvisorServer:
    """A long-lived steering service over a QOAdvisor deployment."""

    def __init__(
        self,
        advisor: QOAdvisor | None = None,
        *,
        config: SimulationConfig | None = None,
        journal: "TicketJournal | str | Path | None" = None,
        on_window_start: Callable[[int], None] | None = None,
        on_publish: Callable[[DayReport], None] | None = None,
    ) -> None:
        if advisor is None:
            advisor = QOAdvisor(config or SimulationConfig())
            self._owns_advisor = True
        else:
            self._owns_advisor = False
        self.advisor = advisor
        self.serving = advisor.config.serving
        if self.serving.workers_per_shard < 0:
            raise ValueError(
                f"workers_per_shard must be >= 0, got {self.serving.workers_per_shard}"
            )
        self.sis = advisor.sis
        self.pipeline = advisor.pipeline
        self.scheduler = MaintenanceScheduler(
            advisor.pipeline,
            advisor.sis,
            on_window_start=on_window_start,
            on_publish=on_publish,
        )
        #: the advisor's one engine (every lane executes on it) and its
        #: router, which names each template's home shard
        self._engine = advisor.engine
        self.router = self._engine.router
        #: the advisor's observability plane (the shared null plane when
        #: ``ObsConfig.enabled`` is off) — serving spans and the serving
        #: metric views hang off it
        self.obs = advisor.obs
        #: one lane per shard, never rebound, so any thread reads it unlocked
        self._lanes = tuple(
            _ShardLane(index, service)
            for index, service in enumerate(self._engine.compilation.shards)
        )
        if isinstance(journal, (str, Path)):
            journal = TicketJournal(journal)
            self._owns_journal = True
        else:
            self._owns_journal = False
        self.journal: TicketJournal | None = journal
        self._recovering = False
        self._seq = 0
        self._seq_lock = threading.Lock()
        #: jobs admitted (rejected ones don't count)
        self._admitted = 0
        self._pending = 0
        self._done = threading.Condition()
        self._started = False
        self._stop = False
        self._install_serving_views()

    # -- lifecycle ----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def num_shards(self) -> int:
        return len(self._lanes)

    def start(self) -> "QOAdvisorServer":
        """Begin serving: spawn the shard lanes' steering workers.

        On the inline schedule (``workers_per_shard == 0``) no threads are
        spawned — jobs are processed on the submitting thread — but any
        backlog queued before ``start()`` is drained now.  A server that
        was shut down does not start again: its queues are closed.
        """
        if self._started:
            return self
        if self._stop:
            raise QueueClosed("the server is shut down; it does not start again")
        self._started = True
        for lane in self._lanes:
            self._kick(lane)
            for slot in range(self.serving.workers_per_shard):
                thread = threading.Thread(
                    target=self._worker,
                    args=(lane,),
                    name=f"qoserve-shard{lane.index}-{slot}",
                    daemon=True,
                )
                lane.threads.append(thread)
                thread.start()
        return self

    def drain(self, timeout: float | None = None) -> None:
        """Block until every submitted job has completed (or failed).

        Requires a started server: an unstarted one has nothing consuming
        the queues, so waiting would never return.
        """
        with self._done:
            if self._pending and not self._started:
                raise RuntimeError(
                    f"{self._pending} job(s) queued but the server is not "
                    "started; call start() before drain()"
                )
            if not self._done.wait_for(lambda: self._pending == 0, timeout=timeout):
                raise TimeoutError(
                    f"{self._pending} job(s) still pending after {timeout}s"
                )

    def shutdown(self, timeout: float | None = None) -> None:
        """Graceful stop: drain, retire the workers, close the queues.

        Jobs admitted before ``start()`` are served first, as a started
        server serves its backlog: no admitted ticket is dropped.
        Idempotent; an advisor the server constructed itself is closed
        too (its executor threads are released), as is a journal the
        server opened from a path.
        """
        with self._done:
            backlog = self._pending
        if backlog and not self._stop:
            self.start()
        if self._started:
            self.drain(timeout=timeout)
        self._stop = True
        for lane in self._lanes:
            lane.queue.close()
        for lane in self._lanes:
            for thread in lane.threads:
                thread.join(timeout=timeout)
            lane.threads = []
        self._started = False
        if self._owns_journal and self.journal is not None:
            self.journal.close()
        if self._owns_advisor:
            self.advisor.close()

    def __enter__(self) -> "QOAdvisorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- the job stream -----------------------------------------------------

    def submit(self, job: JobInstance, timeout: float | None = None) -> JobTicket:
        """Admit one job onto its shard's queue; returns its ticket.

        Raises :class:`~repro.serving.queues.QueueFull` when the shard's
        queue stays full for ``timeout`` seconds (30 s when None; 0
        refuses at once) and
        :class:`~repro.serving.queues.QueueClosed` after shutdown.
        """
        if self._stop:
            raise QueueClosed("the server is shut down; no new submissions")
        # the delta base for this day's report must exist before the job
        # can possibly compile
        self.scheduler.open_day(job.day)
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        lane = self._lanes[self.router.shard_for_job(job)]
        ticket = JobTicket(seq=seq, job=job, day=job.day, shard=lane.index)
        if self.obs.tracer.enabled:
            # the ticket's root span: one per admitted job, finished at the
            # ticket's one terminal (_complete).
            # The trace id embeds the submission seq so resubmissions of
            # the same job id stay distinct traces.
            ticket.trace = self.obs.tracer.start(
                "job",
                trace_id=f"job:{job.job_id}#{seq}",
                job_id=job.job_id,
                template=job.template_id,
                day=job.day,
                seq=seq,
            )
            # recorded before the put: once queued, the ticket and its root
            # belong to the lane, which may finish the root at any moment
            ticket.trace.event("admit", shard=lane.index)
        with self._done:
            self._pending += 1
        # write-ahead: the admit record lands *before* the ticket becomes
        # visible to any worker, so a worker's "done" record can never
        # precede its admit in the journal.  An admission that then fails
        # is compensated with a "reject" record, which replay pre-scans.
        self._journal_ticket("admit", ticket)
        try:
            self._enqueue(
                lane, ticket, timeout=_SUBMIT_TIMEOUT_S if timeout is None else timeout
            )
        except BaseException:
            self._journal({"t": "reject", "seq": ticket.seq, "day": ticket.day})
            with self._done:
                self._pending -= 1
                self._done.notify_all()
            if ticket.trace is not None:
                # a rejected submission is not an admitted job: its root
                # drops the admit event and closes, so no trace leaks open
                ticket.trace.events.clear()
                ticket.trace.set(rejected=True)
                self.obs.tracer.finish(ticket.trace, error=True)
            raise
        with self._seq_lock:
            self._admitted += 1
        self._kick(lane)
        return ticket

    def _journal_ticket(self, kind: str, ticket: JobTicket) -> None:
        """Journal a record that names the job (what replay rebuilds it from)."""
        self._journal(
            {
                "t": kind,
                "seq": ticket.seq,
                "day": ticket.day,
                "job": ticket.job.job_id,
                "template": ticket.job.template_id,
            }
        )

    def _enqueue(self, lane: _ShardLane, ticket: JobTicket, timeout: float) -> None:
        """Count ``ticket`` onto ``lane``, then put it on the lane's queue.

        Counted first, so the count never trails what a racing worker has
        already finished.  A put that raises (full past ``timeout``, queue
        closed by a racing shutdown) never reached the lane: the count is
        undone and the caller rejects.
        """
        with lane.lock:
            lane.counts["submitted"] += 1
        try:
            lane.queue.put(ticket, timeout=timeout)
        except BaseException:
            with lane.lock:
                lane.counts["submitted"] -= 1
            raise

    def submit_day(self, day: int) -> list[JobTicket]:
        """Generate and stream the workload's whole day, in submission order."""
        return [self.submit(job) for job in self.advisor.workload.jobs_for_day(day)]

    def stream_day(self, day: int) -> DayReport:
        """Submit a full day, drain it, and run its maintenance window.

        On the inline schedule this is the serial replay of batch
        ``run_day`` — the fingerprint-parity contract's subject.
        """
        if not self._started:
            self.start()
        self.submit_day(day)
        self.drain()
        return self.run_maintenance(day)

    def enable_learned_mode(self) -> None:
        """Switch the Personalizer to the learned policy (journaled)."""
        self.advisor.enable_learned_mode()
        self._journal({"t": "mode", "mode": "learned"})

    def run_maintenance(self, day: int) -> DayReport:
        """Drain in-flight work, then run ``day``'s maintenance window."""
        self.drain()
        report = self.scheduler.run_window(day)
        self.advisor.reports.append(report)
        self._journal(
            {
                "t": "window",
                "day": day,
                "hint_version": report.hint_version,
                "fingerprint": report.fingerprint(),
            }
        )
        return report

    # -- steering (the per-job hot path) ------------------------------------

    def _kick(self, lane: _ShardLane) -> None:
        """Drain ``lane``'s queue on the calling thread when no worker will:
        on the inline schedule once started, and during recovery replay
        (which re-drives admissions before ``start()``)."""
        inline = self._started and self.serving.workers_per_shard == 0
        if not (inline or self._recovering):
            return
        while True:
            ticket = lane.queue.get(timeout=0)
            if ticket is None:
                return
            self._process(lane, ticket)

    def _worker(self, lane: _ShardLane) -> None:
        while True:
            # blocks until a ticket arrives; None only once the queue is
            # closed and empty (shutdown)
            ticket = lane.queue.get()
            if ticket is None:
                return
            self._process(lane, ticket)

    def _process(self, lane: _ShardLane, ticket: JobTicket) -> None:
        """Steer one job against the live hint version, then execute it.

        Mirrors ``ScopeEngine.run_job`` exactly (compile with hints on the
        template's home shard, the lane's own, then execute under the job's
        keyed run key), but times the compile separately — that
        wall-clock, ``ticket.compile_s``, is the lane's steer latency — and
        stamps the ticket with the SIS version it compiled against.
        """
        job = ticket.job
        service = lane.service
        tracer = self.obs.tracer
        hint_version = self.sis.current_version
        steered = self.sis.lookup(job.template_id) is not None
        started = time.perf_counter()  # qa: wallclock-ok ticket.compile_s is the steer latency, fingerprint-excluded
        try:
            # "steer" wraps the hint-steered compile and pushes onto this
            # worker's span stack, so the compilation service's
            # compile/optimize child spans parent under it; "execute"
            # covers the runtime.  Both are no-ops when obs is off
            with tracer.span("steer", parent=ticket.trace, shard=lane.index):
                try:
                    result = service.compile_job(job)
                finally:
                    ticket.compile_s = time.perf_counter() - started  # qa: wallclock-ok ticket.compile_s is the steer latency, fingerprint-excluded
            with tracer.span("execute", parent=ticket.trace):
                metrics = self._engine.execute(result, job.run_key(0))
            ticket.run = JobRun(job=job, result=result, metrics=metrics)
        except ScopeError:
            ticket.failed = True
        ticket.hint_version = hint_version
        ticket.steered = steered and not ticket.failed
        with lane.lock:
            if ticket.failed:
                lane.counts["failed"] += 1
            else:
                lane.counts["completed"] += 1
                if ticket.steered:
                    lane.counts["steered"] += 1
            lane.last_hint_version = hint_version
            lane.compile_latency.append(ticket.compile_s)
            lane.compile_observations += 1
        if ticket.trace is not None:
            ticket.trace.set(
                steered=ticket.steered,
                hint_version=hint_version,
                compile_s=ticket.compile_s,
            )
        self._complete(ticket)

    def _complete(self, ticket: JobTicket) -> None:
        """The one terminal of a steered ticket, ok or not.

        Ordering contract: close the root span, **record** the ticket under
        its day, **journal** its ``done``, and only then **release** the
        pending count — so a ``drain()`` that returns finds every finished
        ticket already in its day's window and in the journal.
        """
        if ticket.trace is not None:
            self.obs.tracer.finish(ticket.trace, error=ticket.failed)
        self.scheduler.record(ticket)
        self._journal(
            {
                "t": "done",
                "seq": ticket.seq,
                "day": ticket.day,
                "failed": ticket.failed,
            }
        )
        with self._done:
            self._pending -= 1
            self._done.notify_all()

    # -- journal recovery -----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Replay the write-ahead journal into this (fresh) server.

        Call on a newly-constructed server — same config and seed, same
        bootstrap sequence as the original deployment — before ``start()``
        or any submission.  Admissions are re-driven through the normal
        steering path (inline, in journal order: determinism makes the
        recomputed plans, metrics and bandit draws byte-identical to the
        lost originals), windows are re-run and their fingerprints checked
        against the journaled ones, and mode switches are re-applied.
        Every record's kind is checked before anything replays: a kind
        this server does not write raises :class:`JournalError`.
        Afterwards the day accumulators and the pending maintenance window
        match the pre-crash state byte for byte, and the server can resume
        serving where the dead one stopped.
        """
        if self.journal is None:
            raise ValueError("recover() needs a journal (journal=...)")
        if self._started or self._seq or self.scheduler.windows:  # qa: unlocked-ok fresh-server precondition; recover() is single-threaded by contract
            raise RuntimeError(
                "recover() must run on a fresh server, before start() or submit()"
            )
        records = self.journal.records()
        report = RecoveryReport()
        jobs_by_day: dict[int, dict[str, JobInstance]] = {}
        replayed: dict[int, JobTicket] = {}
        # admissions that failed after their write-ahead record landed;
        # their admit records replay as no-ops.  The same pass refuses a
        # kind this server does not write (an older server's ``shed``, a
        # foreign line) before anything replays: skipping it would lose
        # the job it names and surface later as a misleading divergence
        rejected: set[int] = set()
        for position, record in enumerate(records, 1):
            kind = record["t"]
            if kind not in RECORD_KINDS:
                raise JournalError(
                    f"journal record {position} of {len(records)} has unknown "
                    f"kind {kind!r} (expected one of {', '.join(RECORD_KINDS)})"
                )
            if kind == "reject":
                rejected.add(record["seq"])
        # concurrent submitters can journal admits slightly out of seq
        # order; track the high-water mark so post-recovery submissions
        # never reuse a replayed sequence number
        high_water = 0
        self._recovering = True
        try:
            for record in records:
                kind = record["t"]
                if kind == "admit":
                    if record["seq"] in rejected:
                        # the seq was consumed even though admission bounced
                        high_water = max(high_water, record["seq"])
                        with self._seq_lock:
                            self._seq = max(self._seq, record["seq"])
                        continue
                    job = self._recovery_job(jobs_by_day, record)
                    high_water = max(high_water, record["seq"])
                    with self._seq_lock:
                        self._seq = record["seq"] - 1
                    ticket = self.submit(job)
                    replayed[ticket.seq] = ticket
                    with self._seq_lock:
                        self._seq = max(self._seq, high_water)
                    report.admitted += 1
                elif kind == "done":
                    ticket = replayed.get(record["seq"])
                    if ticket is None or not ticket.done:
                        raise JournalError(
                            f"journal completion for seq {record['seq']} has no "
                            "replayed ticket; the journal is out of order"
                        )
                    if bool(record.get("failed")) != ticket.failed:
                        raise JournalError(
                            f"replay diverged at seq {record['seq']}: journaled "
                            f"failed={record.get('failed')}, replayed "
                            f"failed={ticket.failed}"
                        )
                    report.completed += 1
                elif kind == "window":
                    day_report = self.run_maintenance(record["day"])
                    expected = record.get("fingerprint")
                    if expected:
                        if day_report.fingerprint() != expected:
                            raise JournalError(
                                f"replayed window for day {record['day']} diverged "
                                "from the journaled fingerprint — the server was "
                                "not reconstructed like the original (config, "
                                "seed or bootstrap differ)"
                            )
                        report.fingerprints_verified += 1
                    report.windows += 1
                elif kind == "mode":
                    if record.get("mode") == "learned":
                        self.advisor.enable_learned_mode()
                    report.mode_switches += 1
        finally:
            self._recovering = False
        report.in_flight = report.admitted - report.completed
        return report

    def _recovery_job(
        self, cache: dict[int, dict[str, JobInstance]], record: dict
    ) -> JobInstance:
        day = record["day"]
        if day not in cache:
            cache[day] = {
                job.job_id: job for job in self.advisor.workload.jobs_for_day(day)
            }
        job = cache[day].get(record["job"])
        if job is None:
            raise JournalError(
                f"journaled job {record['job']!r} (day {day}) is not reproducible "
                "from the workload generator; recovery only covers "
                "workload-derived submissions"
            )
        return job

    def _journal(self, record: dict) -> None:
        if self.journal is not None and not self._recovering:
            self.journal.append(record)

    # -- health --------------------------------------------------------------

    def _install_serving_views(self) -> None:
        """Register the serving layer's pull-mode metric views.

        The lane counters stay the single source of truth: each view
        projects one :meth:`stats` snapshot at collect/exposition time.
        Registration is by name, so a recovered or rebuilt server replaces
        the previous server's views instead of double-reporting.
        """
        if not self.obs.enabled:
            return
        registry = self.obs.metrics

        def lane_samples():
            samples = []
            for shard in self.stats().shards:
                labels = {"shard": str(shard.shard)}
                for name in LANE_COUNTERS:
                    samples.append(
                        Sample(f"repro_serving_{name}_total", labels, getattr(shard, name))
                    )
                samples += [
                    Sample("repro_serving_queue_depth", labels, shard.queue_depth),
                    Sample("repro_serving_queue_depth_max", labels, shard.max_queue_depth),
                ]
            return samples

        registry.register_view(
            "repro_serving_lanes",
            lane_samples,
            help="per-shard serving lane counters and queue depths",
            kind="counter",
        )

        def latency_samples():
            samples = []
            for shard in self.stats().shards:
                labels = {"shard": str(shard.shard)}
                for q in (50, 95, 99):
                    value = getattr(shard, f"compile_p{q}_s")
                    if value is not None:
                        samples.append(
                            Sample(
                                "repro_serving_compile_latency_seconds",
                                {**labels, "quantile": f"0.{q}"},
                                value,
                            )
                        )
                samples.append(
                    Sample(
                        "repro_serving_compile_observations_total",
                        labels,
                        shard.compile_observations,
                    )
                )
            return samples

        registry.register_view(
            "repro_serving_latency",
            latency_samples,
            help="per-shard compile latency percentiles over the bounded "
            "recent window (absent until a lane has samples)",
            kind="gauge",
        )

        def server_samples():
            stats = self.stats()
            return [
                Sample("repro_serving_jobs_admitted_total", {}, stats.jobs_submitted),
                Sample("repro_serving_jobs_in_flight", {}, stats.jobs_in_flight),
                Sample("repro_serving_windows_total", {}, stats.maintenance_windows),
                Sample("repro_serving_publications_total", {}, stats.publications),
            ]

        registry.register_view(
            "repro_serving_server",
            server_samples,
            help="whole-server serving totals",
            kind="counter",
        )

    def stats(self) -> ServerStats:
        """An immutable health snapshot across every lane."""
        current_version = self.sis.current_version
        shards: list[ShardStats] = []
        for lane in self._lanes:
            cache = lane.service.stats
            with lane.lock:
                samples = list(lane.compile_latency)
                last = lane.last_hint_version
                shards.append(
                    ShardStats(
                        shard=lane.index,
                        queue_depth=lane.queue.depth,
                        max_queue_depth=lane.queue.max_depth,
                        **lane.counts,
                        compile_p50_s=percentile(samples, 50),
                        compile_p95_s=percentile(samples, 95),
                        compile_p99_s=percentile(samples, 99),
                        compile_observations=lane.compile_observations,
                        last_hint_version=last,
                        # read after ``last``: versions only rise, so skew >= 0
                        hint_version_skew=(
                            None if last is None else self.sis.current_version - last
                        ),
                        **{name: getattr(cache, name) for name in CACHE_FIELDS},
                    )
                )
        totals = job_totals(shards)
        with self._done:
            in_flight = self._pending
        with self._seq_lock:
            admitted = self._admitted
        return ServerStats(
            shards=shards,
            jobs_submitted=admitted,
            jobs_in_flight=in_flight,
            **totals,
            hint_version=current_version,
            maintenance_windows=self.scheduler.windows,
            publications=self.scheduler.publications,
            policy_version=self.advisor.policy.model_version,
        )
