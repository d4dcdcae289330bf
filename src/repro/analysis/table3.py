"""Random vs. learned rule flips (paper §5.6, Table 3).

For the same set of steerable jobs, flip one span rule (a) uniformly at
random and (b) by a trained steering policy, recompile, and classify the
estimated-cost outcome.  The paper's result (for the contextual bandit):
CB triples the lower-cost fraction, roughly halves the higher-cost
fraction, reduces recompile failures, and cuts the workload's total
estimated cost by >100×.

The learned column is a fresh :class:`BanditSteeringPolicy`, the paper's
CB, trained off-policy on the training days.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.features import JobFeatures
from repro.core.recommend import actions_for_span, train_off_policy
from repro.core.spans import SpanComputer
from repro.errors import ScopeError
from repro.policies.bandit import BanditSteeringPolicy
from repro.rng import keyed_rng
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import RuleFlip
from repro.scope.telemetry.view import build_view_row
from repro.workload.generator import Workload

__all__ = ["PolicyCounts", "Table3Result", "run_table3_experiment"]


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


def _classify(engine: ScopeEngine, compiled, default_cost: float, flip: RuleFlip):
    try:
        cost = engine.optimize(compiled, flip.apply_to(engine.default_config)).est_cost
    except ScopeError:
        return "failures", None
    if cost < default_cost * (1.0 - 1e-9):
        return "lower", cost
    if cost > default_cost * (1.0 + 1e-9):
        return "higher", cost
    return "equal", cost


def run_table3_experiment(
    engine: ScopeEngine,
    workload: Workload,
    *,
    training_days: range = range(0, 4),
    eval_days: range = range(4, 6),
    seed: int = 0,
) -> Table3Result:
    """Train a fresh CB off-policy, then face it off against random flips."""
    spans = SpanComputer(engine)
    policy = BanditSteeringPolicy(engine.config.bandit, seed=engine.config.seed)
    train_off_policy(
        engine, workload, spans, policy, training_days,
        engine.config.bandit.reward_clip,
    )
    policy.switch_mode("learned")

    result = Table3Result()
    rng = keyed_rng(seed or engine.config.seed, "table3-random")
    registry = engine.registry
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
            try:
                compiled = engine.compile(job.script)
                default_cost = engine.optimize(compiled).est_cost
            except ScopeError:
                continue
            ordered = sorted(span)

            # random policy
            random_rule = ordered[int(rng.integers(0, len(ordered)))]
            random_flip = RuleFlip(
                random_rule, not engine.default_config.is_enabled(random_rule)
            )
            bucket, cost = _classify(engine, compiled, default_cost, random_flip)
            setattr(result.random, bucket, getattr(result.random, bucket) + 1)
            result.random.total_est_cost += cost if cost is not None else default_cost

            # learned policy (paper: recompile its pick, short-circuit if no
            # estimated-cost improvement — cost falls back to the default)
            try:
                run_result = engine.compile_job(job, use_hints=False)
                metrics = engine.execute(run_result, job.run_key())
                row = build_view_row(job, run_result, metrics)
            except ScopeError:
                continue
            features = JobFeatures(job=job, row=row, span=span)
            actions = actions_for_span(span, registry, engine.default_config)
            response = policy.rank(features.context(), actions)
            if response.action.rule_id is None:
                result.bandit.equal += 1
                result.bandit.total_est_cost += default_cost
                policy.observe(response.event_id, 1.0)
                continue
            cb_flip = RuleFlip(response.action.rule_id, response.action.turn_on)
            bucket, cost = _classify(engine, compiled, default_cost, cb_flip)
            setattr(result.bandit, bucket, getattr(result.bandit, bucket) + 1)
            if bucket == "lower" and cost is not None:
                result.bandit.total_est_cost += cost
                policy.observe(
                    response.event_id,
                    min(default_cost / cost, engine.config.bandit.reward_clip),
                )
            else:
                # short-circuit: no improvement → keep the default plan
                result.bandit.total_est_cost += default_cost
                reward = 0.0 if bucket == "failures" else (
                    min(default_cost / cost, engine.config.bandit.reward_clip)
                    if cost
                    else 0.0
                )
                policy.observe(response.event_id, reward)
    result.jobs_evaluated = total
    result.steerable_fraction = steerable / total if total else 0.0
    return result
