"""Neo-style steering: score hint-sets against the *compiled plan*.

Neo (Marcus et al., 2019) learns over plan trees, not query text: the
value network sees the operators the optimizer actually chose.  This
policy brings that signal to the QO-Advisor action space — alongside the
span context, each candidate hint-set is scored against structural
features of the job's compiled physical plan (operator mix, join/exchange/
sort counts, depth, estimated cost and row volume) crossed with the rule
being flipped, so the model can learn "flipping r pays off in deep
exchange-heavy plans" rather than only "r pays off when s is in the span".

Plan features come **exclusively from the plan cache**: the recommend
stage runs right after the production stage compiled every job of the
day, so the job's plan is resident, and the policy reads it through the
counter-free :meth:`~repro.scope.engine.ScopeEngine.peek_job_result` peek
— scoring adds *zero* optimizer invocations and moves no hit/miss
counter (the fingerprint contract survives).  When no plan is resident
(foreign logged events, cold starts) the policy degrades to span/Table-1
context features; the (context, action) → features memo captures the
plan-enriched vectors at rank time so off-policy evaluation of the
policy's own log keeps the plan signal.

Learning is the same VW-style reduction the CB uses: hashed linear model,
IPS-weighted normalized SGD on the observed advantage over the no-op.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.bandit.features import (
    ActionFeatures,
    ContextFeatures,
    FeatureVector,
    _log_bucket,
    context_features,
)
from repro.bandit.learner import CBLearner
from repro.policies.base import LearnedSteeringPolicy, RankResponse

if TYPE_CHECKING:
    from repro.scope.jobs import JobInstance
    from repro.scope.optimizer.engine import OptimizationResult

__all__ = ["PlanGuidedPolicy"]


def plan_summary(result: "OptimizationResult") -> dict[str, float]:
    """Structural summary of a compiled plan (the Neo-style context)."""
    ops: dict[str, int] = {}
    nodes = 0
    total_est_rows = 0.0
    for node in result.plan.walk():
        nodes += 1
        name = type(node.op).__name__
        ops[name] = ops.get(name, 0) + 1
        total_est_rows += node.est_rows

    def depth(node) -> int:
        return 1 + max((depth(child) for child in node.children), default=0)

    joins = sum(
        count for name, count in ops.items() if name.endswith("Join")
    )
    return {
        "nodes": float(nodes),
        "depth": float(depth(result.plan)),
        "joins": float(joins),
        "exchanges": float(ops.get("Exchange", 0)),
        "sorts": float(ops.get("SortExec", 0)),
        "est_cost": result.est_cost,
        "est_rows": total_est_rows,
        "rules_fired": float(len(result.signature.rule_ids)),
    }


def _write_plan_features(vector: FeatureVector, summary: dict[str, float]) -> None:
    vector.add("plan", f"nodes_{_log_bucket(summary['nodes'])}")
    vector.add("plan", f"depth_{int(summary['depth'])}")
    vector.add("plan", f"joins_{int(summary['joins'])}")
    vector.add("plan", f"exch_{int(summary['exchanges'])}")
    vector.add("plan", f"sorts_{int(summary['sorts'])}")
    vector.add("plan", f"pcost_{_log_bucket(summary['est_cost'])}")
    vector.add("plan", f"prows_{_log_bucket(summary['est_rows'])}")
    vector.add("plan", f"fired_{int(summary['rules_fired'])}")


class PlanGuidedPolicy(LearnedSteeringPolicy):
    """Hashed linear model over plan-structure × action features."""

    name = "plan_guided"

    def __init__(
        self,
        engine=None,
        epsilon: float = 0.1,
        seed: int = 0,
        bits: int = 16,
        learning_rate: float = 0.08,
        l2: float = 1e-6,
        memo_capacity: int = 65536,
        mode: str = "uniform_logging",
    ) -> None:
        super().__init__(epsilon, seed, mode)
        #: the engine whose shard plan caches are peeked (set late via
        #: :meth:`bind_engine` when the policy is built before the engine)
        self.engine = engine
        self.bits = bits
        self.memo_capacity = memo_capacity
        #: the CB's hashed linear model and SGD step, over this policy's
        #: own plan-enriched vectors (its featurizer is never called)
        self.learner = CBLearner(bits, learning_rate, l2)
        #: plans actually peeked vs context-only fallbacks (telemetry for
        #: the zero-extra-invocation claim; never part of any fingerprint)
        self.plan_feature_hits = 0
        self.plan_feature_misses = 0
        self._memo: dict[tuple[ContextFeatures, ActionFeatures], FeatureVector] = {}

    def bind_engine(self, engine) -> None:
        """Attach the fleet whose plan cache supplies plan features."""
        self.engine = engine

    # -- featurization -------------------------------------------------------

    def _peek_summary(self, job: "JobInstance | None") -> dict[str, float] | None:
        if job is None or self.engine is None:
            return None
        result = self.engine.peek_job_result(job)
        if result is None:
            # the job may compile under a hint; the default plan is the
            # second-most-likely resident (span probes, bootstrap corpus)
            result = self.engine.peek_job_result(job, use_hints=False)
        if result is None:
            return None
        return plan_summary(result)

    def _features(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        summary: dict[str, float] | None,
        shared: FeatureVector | None = None,
    ) -> FeatureVector:
        """``shared`` is :meth:`_context_part`, built once for a job's actions."""
        if shared is None:
            shared = self._context_part(context)
        vector = FeatureVector(self.bits, dict(shared.values))
        action.write_into(vector)
        if summary is None:
            vector.add("plan", "absent")
        else:
            _write_plan_features(vector, summary)
            if action.rule_id is not None:
                # the Neo cross: rule × plan shape
                vector.add("pcross", f"d{int(summary['depth'])}|a{action.rule_id}")
                vector.add("pcross", f"j{int(summary['joins'])}|a{action.rule_id}")
                vector.add(
                    "pcross", f"x{int(summary['exchanges'])}|a{action.rule_id}"
                )
        if action.rule_id is not None:
            for span_rule in context.span:
                vector.add("cross", f"s{span_rule}|a{action.rule_id}")
        return vector

    def _context_part(self, context: ContextFeatures) -> FeatureVector:
        return context_features(context, self.bits, interaction_order=2)

    def _vector_for(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        summary: dict[str, float] | None,
        shared: FeatureVector | None = None,
    ) -> FeatureVector:
        key = (context, action)
        if summary is not None:
            vector = self._features(context, action, summary, shared)
            self._memo[key] = vector
            return vector
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        return self._features(context, action, None)

    # -- LearnedSteeringPolicy hooks ----------------------------------------------

    def _scores(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        job: "JobInstance | None",
    ) -> np.ndarray:
        summary = self._peek_summary(job)
        if job is not None:
            if summary is not None:
                self.plan_feature_hits += 1
            else:
                self.plan_feature_misses += 1
        # without a plan the vectors may all be memoized already: build none
        shared = self._context_part(context) if summary is not None else None
        return np.array(
            [
                self.learner.score(self._vector_for(context, action, summary, shared))
                for action in actions
            ]
        )

    def rank(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        job: "JobInstance | None" = None,
    ) -> RankResponse:
        # memoize plan-enriched vectors even in uniform-logging mode, so
        # off-policy evaluation of the warm-up log sees the plan signal
        if self.mode == "uniform_logging" and job is not None:
            summary = self._peek_summary(job)
            if summary is not None:
                self.plan_feature_hits += 1
                shared = self._context_part(context)
                for action in actions:
                    self._vector_for(context, action, summary, shared)
            else:
                self.plan_feature_misses += 1
        return super().rank(context, actions, job)

    def _learn(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        advantage: float,
        probability: float,
    ) -> None:
        self.learner.update_vector(
            self._vector_for(context, action, None), advantage, probability
        )

    def publish_version(self) -> int:
        if len(self._memo) > self.memo_capacity:
            self._memo.clear()
        return super().publish_version()

    def _snapshot(self) -> object:
        return (self.learner.snapshot(), self.learner.updates)

    def _restore(self, state: object) -> None:
        weights, updates = state
        self.learner.restore(weights, updates=updates)
