"""The QO-Advisor daily pipeline (paper Figure 1, §2.5).

One call to :meth:`QOAdvisorPipeline.run_day` performs the full offline
loop for a given day, decomposed into named :class:`PipelineStage` objects
that share a :class:`StageContext`:

1. ``production`` — execute the day's jobs (SIS hints active) and build the
   denormalized workload view;
2. ``features`` — spans + Table 1 features;
3. ``recommend`` — the contextual bandit picks ≤1 rule flip per job;
4. ``recompile`` — evaluate flips on estimated cost, feed rewards back
   to the Personalizer, prune non-improving flips;
5. ``flight`` — one representative job per template, best estimates
   first, under the machine-time budget;
6. ``validate`` — the regression guard accepts only flips with predicted
   PNhours delta below the threshold;
7. ``hintgen`` — upload the merged hint file to SIS; future instances of
   the validated templates compile with the flip applied.

Every per-job stage fans out through the pipeline's
:class:`~repro.parallel.Executor` (``ExecutionConfig.workers``); per-stage
wall-clock timings land in :attr:`DayReport.stage_timings`.  Stages that do
not run on a given day (validation before the model is fitted) report 0.0,
so downstream analysis can always key into the full stage list.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.config import SimulationConfig
from repro.core.features import FeatureGenerationTask, JobFeatures
from repro.core.recommend import Recommendation, RecommendationTask
from repro.core.recompile import (
    CostOutcome,
    RecompilationTask,
    RecompileOutcome,
    flight_candidates,
)
from repro.core.spans import SpanComputer
from repro.core.validate import (
    VALIDATION_TRAINING_DAYS,
    ValidatedFlip,
    ValidationModel,
    ValidationTask,
)
from repro.core.hintgen import HintGenerationTask
from repro.errors import ScopeError
from repro.flighting.results import FlightRequest, FlightResult
from repro.obs.plane import NULL_PLANE, ObservabilityPlane
from repro.flighting.service import FlightingService
from repro.parallel import Executor, build_executor
from repro.policies.bandit import BanditSteeringPolicy
from repro.rng import keyed_rng
from repro.scope.cache import CacheStats, CompileRequest
from repro.scope.engine import JobRun, ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.rules.base import RuleFlip
from repro.scope.telemetry.view import WorkloadView, build_view_row
from repro.sis.service import SISService
from repro.workload.generator import Workload

__all__ = [
    "DayReport",
    "PipelineStage",
    "StageContext",
    "STAGE_NAMES",
    "QOAdvisorPipeline",
]

#: canonical stage order; ``DayReport.stage_timings`` always carries every name
STAGE_NAMES = (
    "production",
    "features",
    "recommend",
    "recompile",
    "flight",
    "validate",
    "hintgen",
)


def _feed(hasher, *parts: object) -> None:
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")


@dataclass
class DayReport:
    """Everything one pipeline day produced (analysis harnesses feed on it)."""

    day: int
    production_runs: list[JobRun] = field(default_factory=list)
    failed_jobs: list[str] = field(default_factory=list)
    view: WorkloadView | None = None
    features: list[JobFeatures] = field(default_factory=list)
    recommendations: list[Recommendation] = field(default_factory=list)
    outcomes: list[RecompileOutcome] = field(default_factory=list)
    flight_results: list[FlightResult] = field(default_factory=list)
    validated: list[ValidatedFlip] = field(default_factory=list)
    hint_version: int | None = None
    active_hint_count: int = 0
    #: this day's plan-cache activity (delta of the engine's cumulative
    #: counters across the run_day call, summed over shards); None for
    #: hand-built reports
    cache_stats: CacheStats | None = None
    #: per-shard cache/compile deltas for the day, keyed by shard index;
    #: a cluster of one reports one shard 0 entry.  Topology-dependent by
    #: nature, so excluded from :meth:`fingerprint` (the aggregate
    #: ``cache_stats`` is the cross-topology contract)
    shard_cache_stats: dict[int, CacheStats] | None = None
    #: wall-clock seconds per pipeline stage; stages that did not run on
    #: this day (e.g. validation before the model is fitted) report 0.0
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: the steering policy's published model version at day close —
    #: deployment telemetry, excluded from :meth:`fingerprint` (like stage
    #: timings)
    policy_version: int = 0

    @property
    def steerable_fraction(self) -> float:
        if not self.features:
            return 0.0
        return sum(1 for f in self.features if f.steerable) / len(self.features)

    def outcome_counts(self) -> dict[CostOutcome, int]:
        counts: dict[CostOutcome, int] = {outcome: 0 for outcome in CostOutcome}
        for item in self.outcomes:
            counts[item.outcome] += 1
        return counts

    def _decisions_hasher(self):
        hasher = hashlib.blake2b(digest_size=16)
        _feed(hasher, self.day, self.failed_jobs, self.hint_version, self.active_hint_count)
        for run in self.production_runs:
            _feed(
                hasher,
                run.job.job_id,
                run.result.est_cost,
                sorted(run.result.signature.rule_ids),
                run.metrics,
            )
        for features in self.features:
            _feed(hasher, features.job.job_id, sorted(features.span))
        for rec in self.recommendations:
            _feed(hasher, rec.event_id, rec.flip, rec.probability)
        for outcome in self.outcomes:
            _feed(
                hasher,
                outcome.outcome.value,
                outcome.default_cost,
                outcome.new_cost,
                outcome.reward,
            )
        for flight in self.flight_results:
            _feed(
                hasher,
                flight.job.job_id,
                flight.flip,
                flight.status.value,
                flight.baseline,
                flight.treatment,
                flight.flight_seconds,
                flight.day,
            )
        for validated in self.validated:
            _feed(
                hasher,
                validated.template_id,
                validated.flip,
                validated.predicted_pnhours_delta,
            )
        return hasher

    def decisions_digest(self) -> str:
        """Digest of every decision the day produced, minus wall-clock and
        minus the work counters.

        Two runs of the same configured day must produce the same digest at
        any executor worker count **and any shard count**, and — unlike
        :meth:`fingerprint` — across changes that only move *how much work*
        the day cost (compiles saved, probes skipped): it is the half of
        the contract a work-cutting change has to hold still.
        """
        return self._decisions_hasher().hexdigest()

    def fingerprint(self) -> str:
        """:meth:`decisions_digest` plus the day's ``cache_stats.core()``.

        The determinism contract the parallel backbone and the sharded
        compilation service are tested against: equal at any worker and
        shard count.  Stage timings (wall-clock) and per-shard stat
        breakdowns (topology-shaped, though their sum is covered via
        ``cache_stats``) are excluded.
        """
        hasher = self._decisions_hasher()
        # only the schedule-independent core counters: the fragment-store
        # hit/miss/insert and rule-application counters are work telemetry
        # that legitimately differs with the fragment cache on vs off (and
        # under concurrent first-touches), so they stay out of the contract
        _feed(hasher, self.cache_stats.core() if self.cache_stats else self.cache_stats)
        return hasher.hexdigest()


@dataclass
class StageContext:
    """Shared state the stages of one ``run_day`` call hand to each other.

    Stages reach the executor through their pipeline
    (``self.pipeline.executor``), which also wires it into the span,
    recompilation and flighting tasks.
    """

    day: int
    report: DayReport
    #: production runs keyed by job id (set by the production stage)
    jobs_by_id: dict[str, JobInstance] = field(default_factory=dict)
    #: the day's (or window's) root trace span, when observability is on —
    #: stages parent their spans under it; None leaves them unparented
    trace: object | None = None


class PipelineStage:
    """One named step of the daily loop, operating on a :class:`StageContext`."""

    name: str = "?"

    def __init__(self, pipeline: "QOAdvisorPipeline") -> None:
        self.pipeline = pipeline

    def should_run(self, ctx: StageContext) -> bool:
        """Whether the stage runs today; skipped stages keep a 0.0 timing."""
        return True

    def run(self, ctx: StageContext) -> None:
        raise NotImplementedError


class ProductionStage(PipelineStage):
    """Execute the day's jobs with active hints; build the view file."""

    name = "production"

    def run(self, ctx: StageContext) -> None:
        runs, failed, view = self.pipeline.run_production(ctx.day)
        ctx.report.production_runs = runs
        ctx.report.failed_jobs = failed
        ctx.report.view = view
        ctx.jobs_by_id = {run.job.job_id: run.job for run in runs}


class FeatureStage(PipelineStage):
    """View → per-job features (spans probe in parallel per template)."""

    name = "features"

    def run(self, ctx: StageContext) -> None:
        ctx.report.features = self.pipeline.feature_task.run(
            ctx.report.view, ctx.jobs_by_id
        )


class RecommendStage(PipelineStage):
    """Steering-policy ranking (the CB).

    Stays serial: the policy draws exploration randomness from one
    sequential stream, so rank order is part of the deterministic trace.
    """

    name = "recommend"

    def run(self, ctx: StageContext) -> None:
        ctx.report.recommendations = self.pipeline.recommend_task.run(
            ctx.report.features
        )


class RecompileStage(PipelineStage):
    """Flip recompilation (parallel) + reward feedback (serial, in order)."""

    name = "recompile"

    def run(self, ctx: StageContext) -> None:
        ctx.report.outcomes = self.pipeline.recompile_task.run(
            ctx.report.recommendations
        )
        for outcome in ctx.report.outcomes:
            self.pipeline.policy.observe(
                outcome.recommendation.event_id, outcome.reward
            )


class FlightStage(PipelineStage):
    """Representative selection + the budgeted flighting queue."""

    name = "flight"

    def run(self, ctx: StageContext) -> None:
        candidates = flight_candidates(ctx.report.outcomes)
        requests = self.pipeline._representative_requests(candidates, ctx.day)
        ctx.report.flight_results = self.pipeline.flighting.run_queue(
            requests, ctx.day
        )


class ValidateStage(PipelineStage):
    """The regression guard; runs only once the validation model is fitted."""

    name = "validate"

    def should_run(self, ctx: StageContext) -> bool:
        return self.pipeline.validation_model.is_fitted

    def run(self, ctx: StageContext) -> None:
        task = ValidationTask(self.pipeline.validation_model)
        ctx.report.validated = task.run(ctx.report.flight_results)


class HintGenStage(PipelineStage):
    """Validated flips → SIS hint file upload."""

    name = "hintgen"

    def should_run(self, ctx: StageContext) -> bool:
        return self.pipeline.validation_model.is_fitted

    def run(self, ctx: StageContext) -> None:
        version = self.pipeline.hint_task.run(ctx.report.validated, ctx.day)
        ctx.report.hint_version = version.version if version else None


class QOAdvisorPipeline:
    """The daily offline loop next to a ScopeEngine."""

    def __init__(
        self,
        engine: ScopeEngine,
        workload: Workload,
        sis: SISService,
        flighting: FlightingService | None = None,
        config: SimulationConfig | None = None,
        executor: Executor | None = None,
        obs: ObservabilityPlane | None = None,
    ) -> None:
        self.engine = engine
        self.workload = workload
        self.sis = sis
        self.flighting = flighting
        self.config = config or engine.config
        #: observability plane; the null plane keeps every probe a no-op
        self.obs = obs or NULL_PLANE
        #: the most recently finalized DayReport (feeds the stage-timing
        #: metrics view); never read by the pipeline itself
        self.last_report: DayReport | None = None
        #: the steering policy: the paper's CB
        self.policy = BanditSteeringPolicy(self.config.bandit, seed=self.config.seed)
        self.executor = executor or build_executor(self.config.execution)
        self.spans = SpanComputer(engine, executor=self.executor)
        self.feature_task = FeatureGenerationTask(self.spans)
        self.recommend_task = RecommendationTask(self.policy, engine.registry)
        self.recompile_task = RecompilationTask(engine, executor=self.executor)
        self.validation_model = ValidationModel()
        self.hint_task = HintGenerationTask(
            sis, engine.registry, self.config.advisor.max_hints_per_day
        )
        self.stages: list[PipelineStage] = [
            ProductionStage(self),
            FeatureStage(self),
            RecommendStage(self),
            RecompileStage(self),
            FlightStage(self),
            ValidateStage(self),
            HintGenStage(self),
        ]
        sis.attach(engine)

    # -- production + view ---------------------------------------------------

    def run_production(self, day: int) -> tuple[list[JobRun], list[str], WorkloadView]:
        """Execute the day's jobs with active hints; build the view file.

        Jobs run in parallel through the executor (plan compilation shares
        the engine's thread-safe cache; execution noise is keyed per job),
        and the view is assembled in submission order afterwards.
        """
        jobs = self.workload.jobs_for_day(day)
        # batch MQO: warm the fragment store for the day's distinct join
        # blocks (frequency-ordered) before the per-job fan-out,
        # so production compiles run against pre-explored fragments
        self.engine.compilation.preexplore_batch(
            [CompileRequest(job) for job in jobs], self.executor
        )

        def attempt(job: JobInstance) -> JobRun | None:
            try:
                return self.engine.run_job(job)
            except ScopeError:
                return None

        # the cross-thread tracing boundary: each job gets a "job" span
        # parented to the coordinating thread's current span (the
        # production stage), carried into the worker explicitly
        outcomes = self.executor.map_jobs_traced(
            attempt,
            jobs,
            tracer=self.obs.tracer,
            name="job",
            attr=lambda job: {"job_id": job.job_id, "template": job.template_id},
        )
        runs: list[JobRun] = []
        failed: list[str] = []
        view = WorkloadView(day=day)
        for job, run in zip(jobs, outcomes):
            if run is None:
                failed.append(job.job_id)
                continue
            runs.append(run)
            view.add(build_view_row(job, run.result, run.metrics))
        return runs, failed, view

    # -- validation-model bootstrap -----------------------------------------------

    def bootstrap_validation_model(
        self, start_day: int, days: int = VALIDATION_TRAINING_DAYS, flights_per_day: int = 12
    ) -> list[FlightResult]:
        """Gather the 14-day random-flip corpus and fit the validation model.

        Mirrors §4.3: random flips are flighted over a period of days; the
        corpus is split by date (earlier week trains, later week tests).
        Returns the full corpus so callers can evaluate generalization.
        """
        corpus: list[FlightResult] = []
        for day in range(start_day, start_day + days):
            corpus.extend(self.flight_corpus_day(day, flights_per_day))
        self.fit_validation_model(corpus, start_day, days)
        return corpus

    def flight_corpus_day(self, day: int, flights_per_day: int = 12) -> list[FlightResult]:
        """One day of the random-flip corpus: pick flips, flight them.

        Candidates are evaluated in submission order and the walk stops the
        moment the quota fills, so no candidate past it compiles a flip.
        Each job draws its own ``keyed_rng`` stream, so a kept request is a
        function of its job alone and the corpus is byte-identical at any
        worker count.
        """
        jobs = self.workload.jobs_for_day(day)
        requests: list[FlightRequest] = []
        # spans (the expensive per-template probes) are computed a
        # positional window at a time, cut by position (not worker count),
        # and only for windows reached before the quota fills — which
        # fixes, at any worker count, which job first computes a
        # template's span
        window = max(1, flights_per_day)
        for start in range(0, len(jobs), window):
            if len(requests) >= flights_per_day:
                break
            batch: list[tuple[JobInstance, frozenset[int]]] = []
            for job in jobs[start : start + window]:
                span = self.spans.span_for_template(job.template_id, job.script)
                if span:
                    batch.append((job, span))
            for job, span in batch:
                if len(requests) == flights_per_day:
                    break
                rng = keyed_rng(self.config.seed, "bootstrap", day, job.job_id)
                request = self._corpus_flip(job, span, rng)
                if request is not None:
                    requests.append(request)
        # run_queue ends with the day's epoch barrier (it checkpoints
        # after draining), covering the span/candidate compiles above
        return self.flighting.run_queue(requests, day)

    def fit_validation_model(
        self, corpus: list[FlightResult], start_day: int, days: int
    ) -> None:
        """Fit the regression guard on the earlier half of a ``days``-day
        corpus that began on ``start_day`` (the date split of §4.3)."""
        midpoint = start_day + days // 2
        self.validation_model.fit([r for r in corpus if r.day < midpoint])

    def _corpus_flip(self, job, span: frozenset[int], rng) -> FlightRequest | None:
        ordered = sorted(span)
        picks = list(rng.permutation(len(ordered))[:4])
        try:
            # invariant across picks: compile the job's default plan once
            default_cost = self.engine.compile_job(job, use_hints=False).est_cost
        except ScopeError:
            return None
        fallback: FlightRequest | None = None
        for pick in picks:
            rule_id = ordered[int(pick)]
            flip = RuleFlip(rule_id, not self.engine.default_config.is_enabled(rule_id))
            try:
                new_cost = self.engine.compile_job(job, flip, use_hints=False).est_cost
            except ScopeError:
                continue
            delta = new_cost / default_cost - 1.0 if default_cost else 0.0
            request = FlightRequest(job, flip, est_cost_delta=delta)
            if delta < 0.0:
                return request
            if fallback is None:
                fallback = request
        # keep some non-improving flips: the model must see regressions too
        if fallback is not None and rng.random() < 0.35:
            return fallback
        return None

    # -- the daily loop ----------------------------------------------------------

    # The daily loop is exposed in four reusable pieces so the online
    # serving layer (:mod:`repro.serving`) can drive the exact same stage
    # objects from its maintenance windows: snapshot counters at day open,
    # run a stage behind the epoch barrier, finalize the report.  Batch
    # ``run_day`` is the canonical composition of the four.

    def snapshot_stats(self) -> tuple[CacheStats, dict[int, CacheStats]]:
        """Cumulative (aggregate, per-shard) counters at a day boundary."""
        compilation = self.engine.compilation
        return compilation.stats.snapshot(), compilation.per_shard_stats()

    def open_report(self, day: int) -> DayReport:
        """A fresh report with every stage timing present (and zero)."""
        report = DayReport(day=day)
        report.stage_timings = {name: 0.0 for name in STAGE_NAMES}
        return report

    def run_stage(self, stage: PipelineStage, ctx: StageContext) -> None:
        """Run one stage (if due today) and close it with the epoch barrier.

        The checkpoint is the barrier that makes cache eviction (and with
        it the whole hit/miss accounting) schedule-independent: capacity is
        enforced here, from the coordinating thread, never mid-stage — and
        it runs even for skipped stages, so the barrier sequence is
        identical whether a day is driven by batch ``run_day`` or by a
        serving maintenance window.
        """
        if stage.should_run(ctx):
            started = time.perf_counter()  # qa: wallclock-ok stage_timings is fingerprint-excluded telemetry
            with self.obs.tracer.span(
                f"stage:{stage.name}", parent=ctx.trace, day=ctx.day
            ):
                stage.run(ctx)
            ctx.report.stage_timings[stage.name] = time.perf_counter() - started  # qa: wallclock-ok stage_timings is fingerprint-excluded telemetry
        self.engine.compilation.checkpoint()

    def finalize_report(
        self,
        report: DayReport,
        cache_before: CacheStats,
        shards_before: dict[int, CacheStats],
    ) -> DayReport:
        """Close a day: hint census, cache deltas, policy model publish."""
        report.active_hint_count = len(self.sis.active_hints())
        report.cache_stats = self.engine.compilation.stats - cache_before
        report.shard_cache_stats = {
            shard: stats - shards_before.get(shard, CacheStats())
            for shard, stats in self.engine.compilation.per_shard_stats().items()
        }
        report.policy_version = self.policy.publish_version()
        self.last_report = report
        return report

    def run_day(self, day: int) -> DayReport:
        cache_before, shards_before = self.snapshot_stats()
        report = self.open_report(day)
        ctx = StageContext(day=day, report=report)
        with self.obs.tracer.span("day", trace_id=f"day:{day}", day=day) as root:
            ctx.trace = root
            for stage in self.stages:
                self.run_stage(stage, ctx)
        return self.finalize_report(report, cache_before, shards_before)

    def _representative_requests(
        self, candidates: list[RecompileOutcome], day: int
    ) -> list[FlightRequest]:
        """One randomly-picked representative job per template (§4.3)."""
        by_template: dict[str, list[RecompileOutcome]] = {}
        for outcome in candidates:
            by_template.setdefault(
                outcome.recommendation.features.row.template_id, []
            ).append(outcome)
        rng = keyed_rng(self.config.seed, "representatives", day)
        requests: list[FlightRequest] = []
        for template_id in sorted(by_template):
            group = by_template[template_id]
            chosen = group[int(rng.integers(0, len(group)))]
            requests.append(
                FlightRequest(
                    job=chosen.recommendation.features.job,
                    flip=chosen.recommendation.flip,
                    est_cost_delta=chosen.est_cost_delta,
                )
            )
        return requests
