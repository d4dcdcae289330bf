"""Flighting Service simulator (paper §2.1, §4.3).

Re-runs jobs in a pre-production environment under alternative engine
configurations and compares them with the default.  Mirrors the paper's
operational constraints:

* a fixed-size queue of concurrently flighted jobs,
* a per-job flighting timeout (24 h in production),
* a total machine-time budget per pipeline run — requests are served in
  ascending estimated-cost order so the most promising flips are evaluated
  before the budget runs out,
* outcome classes {success, failure, timeout, filtered}.
"""

from __future__ import annotations

import heapq
import threading

from repro.config import FlightingConfig
from repro.errors import OptimizationError, ScopeError
from repro.flighting.results import FlightRequest, FlightResult, FlightStatus
from repro.parallel import Executor, SerialExecutor
from repro.rng import keyed_rng
from repro.scope.cache import CompileRequest
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.runtime.metrics import JobMetrics

__all__ = ["FlightingService"]

#: per-job flighting timeout (paper: 24 hours); each arm is killed at it
_PER_JOB_TIMEOUT_S = 24 * 3600.0


class FlightingService:
    """Pre-production A/B (and A/A) testing against a ScopeEngine.

    Individual flights are independent A/B pairs, so :meth:`run_queue`
    executes them in parallel waves through the ``executor`` while keeping
    the budget accounting (and all run keys) deterministic.
    """

    def __init__(
        self,
        engine: ScopeEngine,
        config: FlightingConfig | None = None,
        executor: Executor | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or FlightingConfig()
        if self.config.queue_size < 1:
            raise ValueError(
                f"flighting queue_size must be >= 1, got {self.config.queue_size}"
            )
        self.executor = executor or SerialExecutor()
        self._flight_counter = 0
        # standalone flight() calls may come from arbitrary threads; the
        # counter is the only shared mutable state they touch
        self._counter_lock = threading.Lock()

    def _reserve_flight_ids(self, count: int) -> int:
        """Atomically claim ``count`` consecutive ids; returns the first."""
        with self._counter_lock:
            first = self._flight_counter + 1
            self._flight_counter += count
            return first

    # -- single flights ------------------------------------------------------

    def flight(
        self, request: FlightRequest, day: int, flight_id: int | None = None
    ) -> FlightResult:
        """Run one A/B test: default configuration vs. the requested flip.

        ``flight_id`` seeds the run keys; when None (standalone use) it is
        drawn from the service counter.  :meth:`run_queue` pre-assigns ids
        in queue order so concurrent flights stay deterministic.
        """
        if flight_id is None:
            flight_id = self._reserve_flight_ids(1)
        job = request.job
        gate_rng = keyed_rng(self.engine.config.seed, "flight-gate", job.job_id, day)
        if gate_rng.random() < self.config.filtered_prob:
            return FlightResult(request, FlightStatus.FILTERED, day=day)
        if gate_rng.random() < self.config.failure_prob:
            return FlightResult(request, FlightStatus.FAILURE, day=day)
        # one deduplicated batch through the compilation service: the A/B
        # pair shares the parsed script, and an A/A request (flip=None)
        # collapses to a single compilation
        compiled = self.engine.compilation.compile_many(
            [
                CompileRequest(job, use_hints=False),
                CompileRequest(job, request.flip, use_hints=False),
            ]
        )
        if any(isinstance(result, ScopeError) for result in compiled):
            return FlightResult(request, FlightStatus.FAILURE, day=day)
        baseline_result, treatment_result = compiled
        baseline = self.engine.execute(
            baseline_result, ("flight-a", job.job_id, day, flight_id)
        )
        treatment = self.engine.execute(
            treatment_result, ("flight-b", job.job_id, day, flight_id)
        )
        flight_seconds = baseline.latency_s + treatment.latency_s
        status = FlightStatus.SUCCESS
        if max(baseline.latency_s, treatment.latency_s) > _PER_JOB_TIMEOUT_S:
            status = FlightStatus.TIMEOUT
            # each arm is killed at the limit, so the machine time the
            # flight consumed is capped per run in the result itself —
            # every consumer (budget admission, analysis, reports) sees
            # the same number
            flight_seconds = min(baseline.latency_s, _PER_JOB_TIMEOUT_S) + min(
                treatment.latency_s, _PER_JOB_TIMEOUT_S
            )
        return FlightResult(
            request,
            status,
            baseline=baseline,
            treatment=treatment,
            flight_seconds=flight_seconds,
            day=day,
        )

    def aa_runs(self, job: JobInstance, runs: int, day: int) -> list[JobMetrics]:
        """A/A testing: execute the default plan ``runs`` times (§5.1).

        The single compilation goes through the shared plan cache, so A/A
        batteries after a production run never re-optimize.  The runs are
        keyed by their index, so they execute in parallel and come back in
        order.
        """
        result = self.engine.compilation.compile_job(job, use_hints=False)
        return self.executor.map_jobs_propagated(
            lambda i: self.engine.execute(result, ("aa", job.job_id, day, i)),
            range(runs),
            tracer=self.engine.obs.tracer,
        )

    # -- budgeted queue ---------------------------------------------------------

    def run_queue(self, requests: list[FlightRequest], day: int) -> list[FlightResult]:
        """Serve requests through the fixed-size queue under the time budget.

        Requests are served in ascending ``est_cost_delta`` order (most
        promising first, §4.3).  The queue admits ``queue_size`` concurrent
        flights — one *wave* — and each wave's A/B pairs execute in
        parallel through the executor.  Budget admission is checked as the
        queue refills: a wave is admitted only while the simulated clock
        (the earliest slot about to free up) is still inside the machine
        budget, and everything after the cutoff is returned NOT_RUN.  Wave
        membership and flight ids depend only on queue order, never on
        thread timing, so results are identical at any worker count.
        """
        ordered = sorted(requests, key=lambda r: (r.est_cost_delta, r.job.job_id))
        results: list[FlightResult] = []
        # (finish_time) min-heap of busy slots
        slots: list[float] = []
        clock = 0.0
        budget = self.config.total_budget_s
        wave_size = self.config.queue_size
        for start in range(0, len(ordered), wave_size):
            # the clock the wave's first request would be admitted at: the
            # earliest finish among busy slots once the queue is full
            admission_clock = slots[0] if len(slots) >= wave_size else clock
            if admission_clock >= budget:
                results.extend(
                    FlightResult(request, FlightStatus.NOT_RUN, day=day)
                    for request in ordered[start:]
                )
                break
            wave = ordered[start : start + wave_size]
            first_id = self._reserve_flight_ids(len(wave))
            # span *propagation* only: the flight stage's span reaches the
            # worker threads, so compile child spans attach identically
            # at any worker count
            flown = self.executor.map_jobs_propagated(
                lambda pair: self.flight(pair[0], day, flight_id=pair[1]),
                zip(wave, range(first_id, first_id + len(wave))),
                tracer=self.engine.obs.tracer,
            )
            for result in flown:
                if len(slots) >= wave_size:
                    clock = heapq.heappop(slots)
                # flight_seconds is already timeout-capped (per arm) in the
                # result, so budget admission and downstream consumers agree
                heapq.heappush(slots, clock + max(1.0, result.flight_seconds))
                results.append(result)
        # epoch barrier: the queue is drained, no compiles in flight — keeps
        # the plan-cache capacity bound live for standalone service use too
        self.engine.compilation.checkpoint()
        return results
