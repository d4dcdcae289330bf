"""Rule Recommendation: choose one flip per steerable job (paper §3.2, §4.2).

The action set for a job with span bits S is (1 + |S|): keep the default
plan, or flip exactly one span rule relative to the default configuration.
The steering policy (the paper's contextual bandit,
:class:`~repro.policies.LearnedSteeringPolicy`) ranks the set from the
job's context features; the chosen action's reward is supplied later by
the Recompilation task through
:meth:`~repro.policies.LearnedSteeringPolicy.observe`.

:func:`steer_job` is that recommend → recompile → reward loop for one job,
the pipeline's own definition of an outcome: the off-policy warm-up
(:func:`train_off_policy`) and the Table-3 harness
(:mod:`repro.analysis.table3`) both run it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bandit.features import ActionFeatures
from repro.core.features import JobFeatures
from repro.errors import ScopeError
from repro.scope.optimizer.rules.base import RuleConfiguration, RuleFlip, RuleRegistry
from repro.scope.telemetry.view import build_view_row

__all__ = [
    "Recommendation",
    "RecommendationTask",
    "actions_for_span",
    "steer_job",
    "train_off_policy",
]


@dataclass(frozen=True)
class Recommendation:
    """One job's chosen action (``flip`` is None for the no-op)."""

    features: JobFeatures
    flip: RuleFlip | None
    event_id: str
    probability: float


def actions_for_span(
    span: frozenset[int], registry: RuleRegistry, default: RuleConfiguration
) -> list[ActionFeatures]:
    """The (1 + S) single-flip action set of a job (paper §3.2)."""
    actions = [ActionFeatures(rule_id=None)]
    for rule_id in sorted(span):
        rule = registry.rule(rule_id)
        actions.append(
            ActionFeatures(
                rule_id=rule_id,
                turn_on=not default.is_enabled(rule_id),
                category=rule.category.value,
            )
        )
    return actions


def steer_job(recommender, recompiler, job, span: frozenset[int]):
    """One steerable job through recommend → recompile → reward.

    The job compiles without SIS hints and executes (its telemetry row is
    the context), the policy ranks its action set, the pick is recompiled
    against that compile, and the outcome's reward is observed.  Returns
    ``(default, outcome)`` — the hint-free compile and the
    :class:`~repro.core.recompile.RecompileOutcome` — or None when the job
    itself fails to compile or run (nothing is ranked).
    """
    engine = recompiler.engine
    try:
        default = engine.compile_job(job, use_hints=False)
        metrics = engine.execute(default, job.run_key())
    except ScopeError:
        return None
    row = build_view_row(job, default, metrics)
    recommendation = recommender.recommend(JobFeatures(job=job, row=row, span=span))
    outcome = recompiler.evaluate(recommendation, default=default)
    recommender.policy.observe(recommendation.event_id, outcome.reward)
    return default, outcome


def train_off_policy(
    engine,
    workload,
    spans,
    policy,
    days,
    reward_clip: float = 2.0,
) -> int:
    """Off-policy warm-up: uniform logging + cost-ratio rewards (§4.2).

    Every steerable job goes through :func:`steer_job` with the policy in
    uniform-logging mode.  Returns the number of logged events.
    """
    from repro.core.recompile import RecompilationTask  # imports this module

    recommender = RecommendationTask(policy, engine.registry)
    recompiler = RecompilationTask(engine, reward_clip)
    events = 0
    for day in days:
        for job in workload.jobs_for_day(day):
            span = spans.span_for_template(job.template_id, job.script)
            if span and steer_job(recommender, recompiler, job, span) is not None:
                events += 1
        # per-day epoch barrier: plan-cache capacity is enforced here, from
        # the coordinating thread, like the pipeline does per stage
        engine.compilation.checkpoint()
    return events


class RecommendationTask:
    """Features → up to one rule-flip recommendation per job."""

    def __init__(self, policy, registry: RuleRegistry) -> None:
        self.policy = policy
        self.registry = registry
        self.default = registry.default_configuration()

    def recommend(self, job_features: JobFeatures) -> Recommendation:
        """Rank one steerable job's action set."""
        actions = actions_for_span(job_features.span, self.registry, self.default)
        response = self.policy.rank(job_features.context(), actions)
        flip = None
        if response.action.rule_id is not None:
            flip = RuleFlip(response.action.rule_id, response.action.turn_on)
        return Recommendation(
            features=job_features,
            flip=flip,
            event_id=response.event_id,
            probability=response.probability,
        )

    def run(self, features: list[JobFeatures]) -> list[Recommendation]:
        # empty span: nothing to recommend (paper §4.1)
        return [
            self.recommend(job_features)
            for job_features in features
            if job_features.steerable
        ]
