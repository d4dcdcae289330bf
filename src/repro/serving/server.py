"""QOAdvisorServer: the long-lived online serving front-end.

Wraps a :class:`~repro.core.advisor.QOAdvisor` (and with it its one
:class:`~repro.scope.engine.ScopeEngine`, one lane per shard of the
engine's compilation service) behind a job-stream API:

* :meth:`submit` routes a job to its shard's bounded queue through the
  engine's :class:`~repro.sharding.ShardRouter` (failed and retired
  shards are held in its offline set — the one membership state);
* each shard *lane* steers arrivals against the **live** SIS hint-file
  version — compile through the shard's
  :class:`~repro.scope.cache.CompilationService`, execute on the engine —
  on its worker threads (or inline on the submitting thread when
  ``ServingConfig.workers_per_shard == 0``, the serial replay schedule);
* completed work accumulates in the :class:`MaintenanceScheduler`, whose
  :meth:`~repro.serving.maintenance.MaintenanceScheduler.run_window`
  micro-batches the offline stages (features → recommend → recompile →
  flight → validate → hintgen) and atomically publishes the next hint
  version — day boundaries stop being a global barrier, because
  submissions keep flowing while a window runs;
* the topology is **elastic**: :meth:`add_shard` grows the fleet
  mid-stream (the moved templates' cached plans migrate to the new owner
  before it enters rotation, so it starts hot), :meth:`retire_shard`
  shrinks it gracefully, :meth:`fail_shard` kills a lane and requeues its
  backlog onto the survivors with zero job loss, and :meth:`unfail_shard`
  rejoins a failed or retired lane (either keeps its shard service and is
  simply offline in the router meanwhile) — routing determinism is revalidated
  by construction, because placement is always a pure function of
  (template id, membership state);
* admission is by capacity alone: a job enters its lane's bounded
  queue, and a full queue blocks or rejects per
  ``ServingConfig.admission`` — no admission decision reads the clock;
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
schedule-independent.  Elastic resizes preserve the same contract when
they land at a quiesced instant (``drain()`` then resize): the warm-up
migration moves cache entries without touching any counter, so the
drained-window fingerprint matches the static-topology run.  A resize
racing in-flight compiles stays correct and lossless, but its cache
accounting is schedule-shaped, exactly like mid-window admissions.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Callable

from repro.config import ServingConfig, SimulationConfig
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
    LatencyRing,
    ServerStats,
    ShardStats,
    job_totals,
    percentile,
)

__all__ = ["QOAdvisorServer"]

#: how long a blocking submit waits for queue space before giving up, unless
#: ``submit(timeout=)`` says otherwise
_SUBMIT_TIMEOUT_S = 30.0
#: bound on each lane's compile-latency sample ring: p50/p95/p99 are
#: computed over the most recent this-many completions
_LATENCY_WINDOW = 1024


class _ShardLane:
    """One shard's serving lane: queue + shard service + workers + counters."""

    def __init__(
        self, index: int, service: CompilationService, serving: ServingConfig
    ) -> None:
        self.index = index
        #: the shard's compilation service, bound once: a failed or retired
        #: lane is only offline in the router
        self.service = service
        self.queue = ShardQueue(serving.queue_capacity, serving.admission)
        self.alive = True
        self.retired = False
        self.lock = threading.Lock()
        #: one integer per name of the serving vocabulary, bumped under
        #: ``lock``; every stats surface is built from this container
        self.counts = dict.fromkeys(LANE_COUNTERS, 0)
        #: bounded recent compile latencies (percentile source); a lifetime
        #: list here would grow without bound on a long-lived server
        self.compile_latency = LatencyRing(_LATENCY_WINDOW)
        self.last_hint_version: int | None = None
        self.threads: list[threading.Thread] = []


class QOAdvisorServer:
    """A long-lived steering service over a QOAdvisor deployment."""

    def __init__(
        self,
        advisor: QOAdvisor | None = None,
        *,
        config: SimulationConfig | None = None,
        serving: ServingConfig | None = None,
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
        self.serving = serving or advisor.config.serving
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
        #: router — the one membership state
        self._engine = advisor.engine
        self.router = self._engine.router
        #: the advisor's observability plane (the shared null plane when
        #: ``ObsConfig.enabled`` is off) — serving spans and the serving
        #: metric views hang off it
        self.obs = advisor.obs
        #: copy-on-write: a tuple only ever *rebound* (under
        #: ``_failover_lock``), so any thread reads a consistent fleet unlocked
        self._lanes = tuple(
            _ShardLane(index, service, self.serving)
            for index, service in enumerate(self._engine.compilation.shards)
        )
        #: last script seen per template — the "hot script" warm-up
        #: migration follows on an elastic resize
        self._hot_scripts: dict[str, str] = {}
        self._hot_lock = threading.Lock()
        if isinstance(journal, (str, Path)):
            journal = TicketJournal(journal)
            self._owns_journal = True
        else:
            self._owns_journal = False
        self.journal: TicketJournal | None = journal
        self._recovering = False
        self._seq = 0
        self._seq_lock = threading.Lock()
        #: unique jobs admitted (requeues do not re-count; rejected don't count)
        self._admitted = 0
        self._pending = 0
        self._done = threading.Condition()
        self._started = False
        self._stop = False
        self._failover_lock = threading.Lock()
        self._first_submit_at: float | None = None
        self._last_done_at: float | None = None
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
        backlog queued before ``start()`` is drained now.
        """
        if self._started:
            return self
        self._stop = False
        self._started = True
        for lane in self._lanes:
            self._kick(lane)
            if lane.alive:
                self._spawn_workers(lane)
        return self

    def _spawn_workers(self, lane: _ShardLane) -> None:
        """Start the lane's steering threads (none on the inline schedule)."""
        for slot in range(self.serving.workers_per_shard):
            thread = threading.Thread(
                target=self._worker,
                args=(lane,),
                name=f"qoserve-shard{lane.index}-{slot}",
                daemon=True,
            )
            lane.threads.append(thread)
            thread.start()

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

        Idempotent; an advisor the server constructed itself is closed
        too (its executor threads are released), as is a journal the
        server opened from a path.
        """
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

        Raises :class:`~repro.serving.queues.QueueFull` under backpressure
        (per the admission policy) and
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
        ticket = JobTicket(seq=seq, job=job, day=job.day, shard=0)
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
        with self._done:
            self._pending += 1
        if self._first_submit_at is None:
            self._first_submit_at = time.perf_counter()  # qa: wallclock-ok throughput telemetry only, never in fingerprints
        # write-ahead: the admit record lands *before* the ticket becomes
        # visible to any worker, so a worker's "done" record can never
        # precede its admit in the journal.  An admission that then fails
        # is compensated with a "reject" record, which replay pre-scans.
        self._journal_ticket("admit", ticket)
        try:
            lane = self._admit(ticket, timeout)
        except BaseException:
            self._journal({"t": "reject", "seq": ticket.seq, "day": ticket.day})
            with self._done:
                self._pending -= 1
                self._done.notify_all()
            if ticket.trace is not None:
                # a rejected submission is not an admitted job; close its
                # root so no trace leaks open
                ticket.trace.set(rejected=True)
                self.obs.tracer.finish(ticket.trace, error=True)
            raise
        if ticket.trace is not None:
            ticket.trace.event("admit", shard=ticket.shard)
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

    def _enqueue(self, lane: _ShardLane, ticket: JobTicket, **put_args: object) -> None:
        """Count ``ticket`` onto ``lane``, then put it on the lane's queue.

        Counted first, so the count never trails what a racing worker has
        already finished.  A put that raises (queue closed by a racing
        failover, full, timed out) never reached the lane: the count is
        undone and the caller re-routes, requeues or rejects.
        """
        with lane.lock:
            lane.counts["submitted"] += 1
        try:
            lane.queue.put(ticket, **put_args)
        except BaseException:
            with lane.lock:
                lane.counts["submitted"] -= 1
            raise

    def _admit(self, ticket: JobTicket, timeout: float | None) -> _ShardLane:
        """Route and enqueue a fresh ticket, re-routing if its shard dies
        or retires between routing and admission (the router's offline
        set grows *before* the queue closes, so one retry sees the
        update)."""
        for _ in range(len(self._lanes) + 1):
            shard = self.router.shard_for_job(ticket.job)
            lane = self._lanes[shard]
            ticket.shard = shard
            try:
                self._enqueue(
                    lane, ticket, timeout=_SUBMIT_TIMEOUT_S if timeout is None else timeout
                )
                return lane
            except QueueClosed:
                if self._stop or shard not in self.router.offline:
                    raise
                continue  # the lane failed over/retired under us; route again
        raise QueueClosed(f"no alive shard accepted {ticket.job.job_id}")

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

    def serve_days(
        self, start_day: int, days: int, *, learned_after: int = 3
    ) -> list[DayReport]:
        """Stream consecutive days, mirroring ``QOAdvisor.simulate``'s
        staged rollout (uniform logging first, learned policy after)."""
        reports = []
        for offset in range(days):
            if offset == learned_after:
                self.enable_learned_mode()
            reports.append(self.stream_day(start_day + offset))
        return reports

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
            # closed and empty (shutdown, failover, retirement)
            ticket = lane.queue.get()
            if ticket is None:
                return
            if not lane.alive:
                # popped after the lane died: hand it to the survivors
                self._requeue([ticket], lane)
                continue
            self._process(lane, ticket)

    def _process(self, lane: _ShardLane, ticket: JobTicket) -> None:
        """Steer one job against the live hint version, then execute it.

        Mirrors ``ScopeEngine.run_job`` exactly (compile with hints, then
        execute under the job's keyed run key), but times the compile
        separately — that wall-clock is the lane's steer latency — and
        stamps the ticket with the SIS version it compiled against.
        """
        job = ticket.job
        tracer = self.obs.tracer
        traced = tracer.enabled and ticket.trace is not None
        hint_version = self.sis.current_version
        steered = self.sis.lookup(job.template_id) is not None
        started = time.perf_counter()  # qa: wallclock-ok compile latency feeds the lane's LatencyRing and ticket.compile_s, fingerprint-excluded
        try:
            if traced:
                # "steer" wraps the hint-steered compile (its wall-clock is
                # the lane's steer latency) and pushes onto this worker's
                # span stack, so the compilation service's compile/optimize
                # child spans parent under it; "execute" covers the runtime
                with tracer.span("steer", parent=ticket.trace, shard=lane.index):
                    result = lane.service.compile_job(job)
                compile_s = time.perf_counter() - started  # qa: wallclock-ok compile latency feeds the lane's LatencyRing and ticket.compile_s, fingerprint-excluded
                with tracer.span("execute", parent=ticket.trace):
                    metrics = self._engine.execute(result, job.run_key(0))
            else:
                result = lane.service.compile_job(job)
                compile_s = time.perf_counter() - started  # qa: wallclock-ok compile latency feeds the lane's LatencyRing and ticket.compile_s, fingerprint-excluded
                metrics = self._engine.execute(result, job.run_key(0))
            ticket.run = JobRun(job=job, result=result, metrics=metrics)
        except ScopeError:
            ticket.failed = True
            compile_s = time.perf_counter() - started  # qa: wallclock-ok compile latency feeds the lane's LatencyRing and ticket.compile_s, fingerprint-excluded
        ticket.compile_s = compile_s
        ticket.hint_version = hint_version
        ticket.steered = steered and not ticket.failed
        with self._hot_lock:
            self._hot_scripts[job.template_id] = job.script
        with lane.lock:
            if ticket.failed:
                lane.counts["failed"] += 1
            else:
                lane.counts["completed"] += 1
                if ticket.steered:
                    lane.counts["steered"] += 1
            lane.last_hint_version = hint_version
        lane.compile_latency.append(compile_s)
        if traced:
            ticket.trace.set(
                steered=ticket.steered,
                hint_version=hint_version,
                compile_s=compile_s,
            )
        self._complete(ticket)

    def _complete(self, ticket: JobTicket) -> None:
        """The one terminal of a ticket: steered (ok or not), or out of
        shards to requeue onto.

        Ordering contract, the same for both: close the root span,
        **record** the ticket under its day, **journal** its ``done``, and
        only then **release** the pending count — so a ``drain()`` that
        returns finds every finished ticket already in its day's window
        and in the journal.
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
            self._last_done_at = time.perf_counter()  # qa: wallclock-ok throughput telemetry only, never in fingerprints
            self._done.notify_all()

    # -- failover ------------------------------------------------------------

    def fail_shard(self, shard: int) -> int:
        """Kill one shard lane and requeue its backlog onto the survivors.

        The lane stops admitting and consuming; every ticket still in its
        queue (plus any a worker popped but had not started) is
        re-routed through the router, which no longer offers the failed
        slot.  A job the lane was actively steering when the kill
        lands completes there — nothing is ever lost.  The slot also
        leaves the *router's* rotation, so maintenance-window compiles
        follow the steering traffic onto the survivors, and once the lane
        has quiesced its cached plans migrate with its templates (the
        process is still alive — a lane failure cordons the lane, it does
        not erase the shard's memory), which is what keeps the accounting
        of a fail→rejoin cycle byte-identical to a never-failed run.  The
        shard stays eligible for :meth:`unfail_shard` later.  Returns the
        number of requeued jobs.
        """
        with self._failover_lock:
            lane = self._lanes[shard]
            if not lane.alive:
                return 0
            moves = self._moves(offline={shard})
            # the router refuses (ValueError) to lose its last live slot,
            # before anything here has changed
            self.router.take_offline(shard)
            lane.alive = False
            backlog = self._quiesce(lane)
            self._migrate_entries(moves)
            self._journal({"t": "topology", "op": "fail", "shard": shard})
            return self._requeue(backlog, lane)

    def _quiesce(self, lane: _ShardLane) -> list[JobTicket]:
        """Stop a lane that has left the router's rotation; returns its
        queued backlog.  Admission re-routes on the closed queue, and a job
        a worker was steering completes here before the join returns —
        after which nothing compiles on this lane and its cache can
        migrate."""
        lane.queue.close()
        backlog = lane.queue.drain()
        for thread in lane.threads:
            thread.join()
        lane.threads = []
        return backlog

    def _requeue(self, tickets: list[JobTicket], from_lane: _ShardLane) -> int:
        """Transplant tickets off a dead lane; every ticket is accounted for.

        The forced put bypasses the capacity bound (backpressure must not
        lose failover backlog), and a survivor that closes concurrently is
        excluded and routing retried.  A ticket with nowhere left to go is
        recorded as a *failed job* — it still appears in its day's report,
        so the stream's accounting never leaks.
        """
        moved = 0
        for ticket in tickets:
            ticket.requeues += 1
            ticket.excluded_shards.add(from_lane.index)
            with from_lane.lock:
                from_lane.counts["requeued"] += 1
            exclude = set(ticket.excluded_shards)
            while True:
                try:
                    target_index = self.router.shard_for_job(ticket.job, exclude=exclude)
                except ValueError:
                    # terminal: every shard excluded, nowhere left to run the job
                    ticket.failed = True
                    if ticket.trace is not None:
                        ticket.trace.set(requeue_exhausted=True)
                    with from_lane.lock:
                        from_lane.counts["failed"] += 1
                    self._complete(ticket)
                    break
                target = self._lanes[target_index]
                try:
                    self._enqueue(target, ticket, force=True)
                except QueueClosed:
                    exclude.add(target_index)
                    continue
                ticket.shard = target_index
                if ticket.trace is not None:
                    ticket.trace.event(
                        "requeue", from_shard=from_lane.index, to_shard=target_index
                    )
                moved += 1
                self._kick(target)
                break
        return moved

    # -- elastic topology -----------------------------------------------------

    def add_shard(self) -> int:
        """Grow the fleet by one shard, mid-stream.

        The new shard service is built offline, the templates that will
        move to it have their hot scripts' cached plans migrated over
        (cache warm-up — the shard enters rotation hot), queued tickets
        are rebalanced, and only then does the slot join routing.  For
        strict drained-window accounting parity with a static topology,
        call :meth:`drain` first; a resize racing in-flight compiles stays
        correct and lossless but schedule-shaped.  Returns the new shard
        index.
        """
        with self._failover_lock:
            compilation = self._engine.compilation
            slot = compilation.add_shard()
            lane = _ShardLane(slot, compilation.shards[slot], self.serving)
            moves = self._moves(online={slot})
            self._migrate_entries(moves)
            # publish-before-route: the lane is in the tuple before the
            # router can name its slot, so whoever routes to ``slot`` —
            # holding whichever snapshot — finds ``_lanes[slot]``
            self._lanes = (*self._lanes, lane)
            self.router.bring_online(slot)
            self._rebalance_queues()
            if self._started:
                self._spawn_workers(lane)
            self._journal({"t": "topology", "op": "add", "shard": slot})
            return slot

    def retire_shard(self, shard: int) -> int:
        """Gracefully shrink the fleet: take one lane out of rotation.

        Unlike :meth:`fail_shard` this is planned: the slot leaves routing
        first (new arrivals go straight to the survivors), the lane
        quiesces, the moved templates' cached plans migrate to their new
        owners, and only then is the backlog requeued — so the survivors
        serve the moved templates hot.  The lane keeps its service, exactly
        as a failed one does; :meth:`unfail_shard` can rejoin it later.
        Returns the number of requeued jobs.
        """
        with self._failover_lock:
            lane = self._lanes[shard]
            if not lane.alive:
                raise ValueError(f"shard {shard} is already out of service")
            moves = self._moves(offline={shard})
            self.router.take_offline(shard)  # ValueError on the last live slot
            backlog = self._quiesce(lane)
            self._migrate_entries(moves)
            lane.alive = False
            lane.retired = True
            self._journal({"t": "topology", "op": "retire", "shard": shard})
            return self._requeue(backlog, lane)

    def unfail_shard(self, shard: int) -> int:
        """Rejoin a failed (or retired) shard lane.

        The inverse of :meth:`fail_shard` and :meth:`retire_shard`: the
        lane still holds its service (every shard reads the one catalog, so
        whatever its caches kept is keyed validly), the templates
        returning to it have their cached plans migrated back from the
        survivors, the lane gets a fresh queue and workers, and queued
        tickets everywhere are rebalanced onto the restored routing.
        Routing determinism is revalidated by construction: after rejoin,
        placement is again a pure function of the template id over the
        full membership, identical to a fleet that never failed.  Returns
        the number of tickets rebalanced across lanes.
        """
        with self._failover_lock:
            lane = self._lanes[shard]
            if lane.alive:
                return 0
            moves = self._moves(online={shard})
            self._migrate_entries(moves)
            lane.queue = ShardQueue(self.serving.queue_capacity, self.serving.admission)
            lane.alive = True
            lane.retired = False
            self.router.bring_online(shard)
            moved = self._rebalance_queues()
            if self._started:
                self._spawn_workers(lane)
            self._journal({"t": "topology", "op": "rejoin", "shard": shard})
            return moved

    def _moves(
        self,
        online: "set[int]" = frozenset(),
        offline: "set[int]" = frozenset(),
    ) -> dict[str, tuple[int, int]]:
        """(old owner, new owner) per tracked template whose owner changes
        under the hypothetical membership update."""
        preview = self.router.preview(online=online, offline=offline)
        with self._hot_lock:
            tracked = list(self._hot_scripts)
        moves: dict[str, tuple[int, int]] = {}
        for template_id in tracked:
            try:
                before = self.router.shard_for(template_id)
                after = preview.shard_for(template_id)
            except ValueError:
                continue
            if before != after:
                moves[template_id] = (before, after)
        return moves

    def _migrate_entries(self, moves: dict[str, tuple[int, int]]) -> int:
        """Move the hot scripts' cached plans to each moved template's new
        owner (the warm-up path: migration, never recompilation, so no
        cache counter moves and accounting parity survives the resize)."""
        migrated = 0
        with self._hot_lock:
            scripts = {tid: self._hot_scripts.get(tid) for tid in moves}
        # fragment payloads dedup per destination: two moved templates
        # sharing a join block ship its fragment entry once per dest shard
        sent_fragments: dict[int, set[tuple]] = {}
        shards = self._engine.compilation.shards
        for template_id, (source, dest) in sorted(moves.items()):
            script = scripts.get(template_id)
            if script is None or source == dest:
                continue
            source_service = shards[source]
            dest_service = shards[dest]
            plans, parsed, fragments = source_service.export_script_state(
                script, skip_fragments=sent_fragments.setdefault(dest, set())
            )
            if not plans and not parsed and not fragments:
                continue
            adopted, rejected = dest_service.import_script_state(
                plans, parsed, fragments
            )
            migrated += adopted
            if rejected:
                # the destination already compiled these keys (a racing
                # arrival); hand residency back rather than dropping it
                source_service.import_script_state(rejected, {})
        return migrated

    def _rebalance_queues(self) -> int:
        """Re-route every queued ticket after a membership change.

        Tickets whose template now belongs to a different lane are moved
        there (forced put: rebalancing must not bounce on capacity), so a
        moved template's work follows its migrated cache entries.
        In-flight tickets finish where they started — correct either way,
        since every per-job quantity is keyed.
        """
        moved = 0
        # snapshot every lane first, then place: a ticket moved to a later
        # lane must not be drained and routed a second time in this pass
        batches = [
            (lane, lane.queue.drain()) for lane in self._lanes if lane.alive
        ]
        for lane, pending in batches:
            for ticket in pending:
                target = self._lanes[self._route_or_stay(ticket, lane)]
                ticket.shard = target.index
                if target is not lane:
                    with lane.lock:
                        lane.counts["requeued"] += 1
                    moved += 1
                    self._enqueue(target, ticket, force=True)
                else:  # back onto the queue it came off: already counted
                    lane.queue.put(ticket, force=True)
        for lane in self._lanes:
            if lane.alive:
                self._kick(lane)
        return moved

    def _route_or_stay(self, ticket: JobTicket, lane: _ShardLane) -> int:
        try:
            return self.router.shard_for_job(ticket.job)
        except ValueError:
            return lane.index

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
                # "topology" records are breadcrumbs: replay runs on this
                # server's own topology (placement never enters a fingerprint)
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
        """An immutable health/throughput snapshot across every lane."""
        current_version = self.sis.current_version
        shards: list[ShardStats] = []
        for lane in self._lanes:
            samples = lane.compile_latency.snapshot()
            cache = lane.service.stats
            with lane.lock:
                last = lane.last_hint_version
                shards.append(
                    ShardStats(
                        shard=lane.index,
                        alive=lane.alive,
                        retired=lane.retired,
                        queue_depth=lane.queue.depth,
                        max_queue_depth=lane.queue.max_depth,
                        **lane.counts,
                        compile_p50_s=percentile(samples, 50),
                        compile_p95_s=percentile(samples, 95),
                        compile_p99_s=percentile(samples, 99),
                        compile_observations=lane.compile_latency.total,
                        last_hint_version=last,
                        hint_version_skew=(
                            max(current_version - last, 0)
                            if last is not None
                            else None
                        ),
                        **{name: getattr(cache, name) for name in CACHE_FIELDS},
                    )
                )
        totals = job_totals(shards)
        if self._first_submit_at is not None and self._last_done_at is not None:  # qa: unlocked-ok stale throughput read is harmless telemetry
            elapsed = max(self._last_done_at - self._first_submit_at, 1e-9)  # qa: unlocked-ok stale throughput read is harmless telemetry
            throughput = totals["jobs_completed"] / elapsed
        else:
            throughput = 0.0
        with self._done:
            in_flight = self._pending
        with self._seq_lock:
            admitted = self._admitted
        return ServerStats(
            shards=shards,
            jobs_submitted=admitted,
            jobs_in_flight=in_flight,
            **totals,
            throughput_jobs_per_s=throughput,
            hint_version=current_version,
            maintenance_windows=self.scheduler.windows,
            publications=self.scheduler.publications,
            policy_version=self.advisor.policy.model_version,
            last_window=self.scheduler.last_window,
        )
