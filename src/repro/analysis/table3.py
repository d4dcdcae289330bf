"""Random vs. learned rule flips (paper §5.6, Table 3).

For the same set of steerable jobs, flip one span rule (a) uniformly at
random and (b) by a trained steering policy, recompile, and classify the
estimated-cost outcome.  The paper's result (for the contextual bandit):
CB triples the lower-cost fraction, roughly halves the higher-cost
fraction, reduces recompile failures, and cuts the workload's total
estimated cost by >100×.

Both columns are scored by the pipeline's own code, against the
pipeline's baseline — the job's own compile without SIS hints (a manually
hinted job keeps its manual hint there).  The learned column is a fresh
:class:`BanditSteeringPolicy`, the paper's CB, trained off-policy on the
training days and then run through :func:`~repro.core.recommend.steer_job`
on each evaluation job; the random column recompiles
:class:`~repro.core.baselines.RandomFlipPolicy`'s flip of the same job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.baselines import RandomFlipPolicy
from repro.core.recommend import (
    Recommendation,
    RecommendationTask,
    steer_job,
    train_off_policy,
)
from repro.core.recompile import CostOutcome, RecompilationTask, RecompileOutcome
from repro.core.spans import SpanComputer
from repro.policies.bandit import BanditSteeringPolicy
from repro.rng import keyed_rng
from repro.scope.engine import ScopeEngine
from repro.workload.generator import Workload

__all__ = ["PolicyCounts", "Table3Result", "run_table3_experiment"]

#: the Table 3 row of each outcome; keeping the default plan is "equal"
_BUCKETS = {
    CostOutcome.LOWER: "lower",
    CostOutcome.EQUAL: "equal",
    CostOutcome.NOOP: "equal",
    CostOutcome.HIGHER: "higher",
    CostOutcome.FAILURE: "failures",
}


@dataclass
class PolicyCounts:
    """One Table 3 column."""

    lower: int = 0
    equal: int = 0
    higher: int = 0
    failures: int = 0
    total_est_cost: float = 0.0

    @property
    def jobs(self) -> int:
        return self.lower + self.equal + self.higher + self.failures

    def fraction(self, bucket: str) -> float:
        if self.jobs == 0:
            return 0.0
        return getattr(self, bucket) / self.jobs

    def add(self, outcome: RecompileOutcome, cost: float) -> None:
        """Count one job's outcome and charge it ``cost``."""
        bucket = _BUCKETS[outcome.outcome]
        setattr(self, bucket, getattr(self, bucket) + 1)
        self.total_est_cost += cost


@dataclass
class Table3Result:
    random: PolicyCounts = field(default_factory=PolicyCounts)
    #: the learned column: the paper's CB
    bandit: PolicyCounts = field(default_factory=PolicyCounts)
    jobs_evaluated: int = 0
    steerable_fraction: float = 0.0

    @property
    def cost_improvement_factor(self) -> float:
        """Total-est-cost ratio random/CB (paper: >100×)."""
        if self.bandit.total_est_cost <= 0:
            return float("inf")
        return self.random.total_est_cost / self.bandit.total_est_cost


def run_table3_experiment(
    engine: ScopeEngine,
    workload: Workload,
    *,
    training_days: range = range(0, 4),
    eval_days: range = range(4, 6),
) -> Table3Result:
    """Train a fresh CB off-policy, then face it off against random flips."""
    spans = SpanComputer(engine)
    policy = BanditSteeringPolicy(seed=engine.config.seed)
    train_off_policy(engine, workload, spans, policy, training_days)
    policy.switch_mode("learned")

    result = Table3Result()
    recommender = RecommendationTask(policy, engine.registry)
    recompiler = RecompilationTask(engine)
    random_policy = RandomFlipPolicy(engine, keyed_rng(engine.config.seed, "table3-random"))
    total = 0
    steerable = 0
    for day in eval_days:
        # per-day epoch barrier keeps the plan-cache capacity bound live
        # for this standalone serial harness
        engine.compilation.checkpoint()
        for job in workload.jobs_for_day(day):
            total += 1
            span = spans.span_for_template(job.template_id, job.script)
            if not span:
                continue
            steerable += 1
            steered = steer_job(recommender, recompiler, job, span)
            if steered is None:
                continue
            default, learned = steered
            # the paper recompiles the CB's pick and short-circuits when the
            # estimated cost does not improve: the job keeps its default plan
            lower = learned.outcome is CostOutcome.LOWER
            result.bandit.add(learned, learned.new_cost if lower else learned.default_cost)

            randomly = recompiler.evaluate(
                Recommendation(
                    learned.recommendation.features,
                    random_policy.choose(span),
                    event_id="random",
                    probability=1.0 / len(span),
                ),
                default=default,
            )
            failed = randomly.outcome is CostOutcome.FAILURE
            result.random.add(randomly, randomly.default_cost if failed else randomly.new_cost)
    result.jobs_evaluated = total
    result.steerable_fraction = steerable / total if total else 0.0
    return result
