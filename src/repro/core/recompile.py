"""Recompilation: evaluate recommended flips on estimated cost (paper §4.2).

Each recommended flip is recompiled so we can (1) catch compilation errors
upfront and (2) obtain the new estimated cost.  The reward reported to the
policy, and kept in its event log, is the cost ratio ``default / new``
(higher is better), clipped at 2.0 to keep outliers from skewing the
model; the policy's model regresses that ratio minus the no-op's 1.0 (see
:mod:`repro.policies.base`).  Jobs whose flip
does not improve the estimate are pruned before flighting — the cost filter
whose removal the §5.2 ablation studies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.recommend import Recommendation
from repro.errors import ScopeError
from repro.parallel import Executor, SerialExecutor
from repro.policies.base import NOOP_REWARD
from repro.scope.cache import CompileRequest
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.engine import OptimizationResult

__all__ = ["CostOutcome", "RecompileOutcome", "RecompilationTask"]

_REL_TOLERANCE = 1e-9
#: reward clipping ratio (paper §4.2: clip anything over 2.0)
_REWARD_CLIP = 2.0
#: estimated-cost delta a flip must beat to be flighted at all
_COST_FILTER = 0.0


class CostOutcome(enum.Enum):
    """Effect of a flip on the optimizer's estimated cost (Table 3 rows)."""

    LOWER = "lower"
    EQUAL = "equal"
    HIGHER = "higher"
    FAILURE = "failure"
    NOOP = "noop"


@dataclass
class RecompileOutcome:
    """Result of recompiling one recommendation."""

    recommendation: Recommendation
    outcome: CostOutcome
    default_cost: float
    new_cost: float | None
    reward: float

    @property
    def est_cost_delta(self) -> float:
        """new/default − 1; negative is an improvement."""
        if self.new_cost is None or self.default_cost == 0.0:
            return float("inf")
        return self.new_cost / self.default_cost - 1.0


class RecompilationTask:
    """Recompiles recommendations and reports rewards to the Personalizer."""

    def __init__(
        self,
        engine: ScopeEngine,
        executor: Executor | None = None,
    ) -> None:
        self.engine = engine
        self.executor = executor or SerialExecutor()

    def evaluate(
        self,
        recommendation: Recommendation,
        default: OptimizationResult | ScopeError | None = None,
    ) -> RecompileOutcome:
        """Classify one flip; does not touch the Personalizer.

        ``default`` is the prefetched default-configuration compilation of
        the job (an :class:`OptimizationResult`, or the :class:`ScopeError`
        it failed with).  When None — standalone use — it is compiled here.
        """
        job = recommendation.features.job
        if recommendation.flip is None:
            return RecompileOutcome(
                recommendation, CostOutcome.NOOP, recommendation.features.row.estimated_cost,
                recommendation.features.row.estimated_cost, reward=NOOP_REWARD,
            )
        if default is None:
            try:
                default = self.engine.compile_job(job, use_hints=False)
            except ScopeError as exc:
                default = exc
        if isinstance(default, ScopeError):
            # the job itself no longer compiles: treat as failure, no signal
            return RecompileOutcome(recommendation, CostOutcome.FAILURE, 0.0, None, 0.0)
        default_cost = default.est_cost
        try:
            new_result = self.engine.compile_job(job, recommendation.flip, use_hints=False)
        except ScopeError:
            return RecompileOutcome(
                recommendation, CostOutcome.FAILURE, default_cost, None, reward=0.0
            )
        new_cost = new_result.est_cost
        if new_cost <= 0.0:
            ratio = _REWARD_CLIP
        else:
            ratio = min(default_cost / new_cost, _REWARD_CLIP)
        if abs(new_cost - default_cost) <= _REL_TOLERANCE * max(default_cost, 1.0):
            outcome = CostOutcome.EQUAL
        elif new_cost < default_cost:
            outcome = CostOutcome.LOWER
        else:
            outcome = CostOutcome.HIGHER
        return RecompileOutcome(recommendation, outcome, default_cost, new_cost, reward=ratio)

    def run(self, recommendations: list[Recommendation]) -> list[RecompileOutcome]:
        """Evaluate every recommendation (rewards are reported by the caller).

        The default-configuration plan is invariant per job, so it is
        fetched once per distinct job through the compilation service's
        deduplicating batch API instead of once per recommendation.  Flip
        evaluations are independent and fan out through the executor;
        outcomes come back aligned with the recommendation order.
        """
        defaults = self._prefetch_defaults(recommendations)

        def _evaluate(recommendation: Recommendation) -> RecompileOutcome:
            return self.evaluate(
                recommendation,
                default=defaults.get(recommendation.features.job.job_id),
            )

        # propagation only: the recompile stage's span follows the flip
        # evaluations to worker threads (trace shape is schedule-free)
        return self.executor.map_jobs_propagated(
            _evaluate, recommendations, tracer=self.engine.obs.tracer
        )

    def _prefetch_defaults(
        self, recommendations: list[Recommendation]
    ) -> dict[str, OptimizationResult | ScopeError]:
        """Compile each distinct job's default plan exactly once."""
        jobs = {}
        for recommendation in recommendations:
            if recommendation.flip is None:
                continue
            job = recommendation.features.job
            jobs.setdefault(job.job_id, job)
        if not jobs:
            return {}
        results = self.engine.compilation.compile_many(
            [CompileRequest(job, use_hints=False) for job in jobs.values()],
            executor=self.executor,
        )
        return dict(zip(jobs.keys(), results))


def flight_candidates(outcomes: list[RecompileOutcome]) -> list[RecompileOutcome]:
    """Keep flips whose estimated-cost delta beats the filter (§4.3)."""
    return [
        outcome
        for outcome in outcomes
        if outcome.outcome is CostOutcome.LOWER and outcome.est_cost_delta < _COST_FILTER
    ]
