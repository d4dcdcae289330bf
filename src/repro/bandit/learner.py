"""The contextual-bandit learner: hashed linear regression with IPS weights.

This is the VW-style reduction the paper relies on (§3.1): CB learning is
reduced to supervised regression of the reward on (context, action)
features, importance-weighted by the inverse probability of the logged
action — so data gathered under the uniform logging policy trains the
greedy policy acted on later (off-policy learning, §4.2).

The learner is scale-agnostic: it regresses whatever target it is given.
The event log holds the clipped cost ratio, but the steering policy
(:class:`~repro.policies.base.LearnedSteeringPolicy`, which owns the
learner and calls it directly) feeds it the ratio minus the no-op's 1.0,
so a policy's scores are advantages over the default plan and zero
weights mean "no better than default".  The propensity floor of its
importance weights is the off-policy estimators' ``_MIN_PROB``.

The table is dense (``weights``, ``1 << bits`` float64 slots): every
score and update indexes it directly, and the policy's digests hash
``weights.tobytes()``.  A published model version is a number, not a copy
of the table: nothing moves the model backwards.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures, FeatureVector, joint_features
from repro.bandit.offpolicy import _MIN_PROB

__all__ = ["CBLearner"]

#: L2 regularization strength of every SGD step
_L2 = 1e-6


class CBLearner:
    """SGD on squared loss over hashed features; also the policy's scorer."""

    def __init__(
        self,
        bits: int = 18,
        learning_rate: float = 0.08,
        interaction_order: int = 3,
    ) -> None:
        self.bits = bits
        self.learning_rate = learning_rate
        self.interaction_order = interaction_order
        self.weights = np.zeros(1 << bits)

    # -- scoring -------------------------------------------------------------

    def score(self, vector: FeatureVector, total: float = 0.0) -> float:
        """Sum ``vector`` in item order onto ``total`` (the score of a prefix
        already summed; see the ordering invariant in ``bandit.features``)."""
        for index, value in vector.items():
            total += self.weights[index] * value
        return total

    def score_action(self, context: ContextFeatures, action: ActionFeatures) -> float:
        return self.score(joint_features(context, action, self.bits, self.interaction_order))

    # -- learning --------------------------------------------------------------

    def update(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        reward: float,
        probability: float,
    ) -> float:
        """One IPS-weighted SGD step; returns the pre-update prediction."""
        return self.update_vector(
            joint_features(context, action, self.bits, self.interaction_order),
            reward,
            probability,
        )

    def update_vector(
        self, vector: FeatureVector, reward: float, probability: float
    ) -> float:
        """:meth:`update` on an already-featurized (context, action)."""
        prediction = self.score(vector)
        importance = 1.0 / max(probability, _MIN_PROB)
        # normalized update (VW-style): scale by the squared feature norm so
        # one step moves the prediction by at most ~the full error, keeping
        # importance-weighted steps from diverging
        norm_sq = sum(value * value for _, value in vector.items()) or 1.0
        step = min(self.learning_rate * min(importance, 5.0), 0.5) / norm_sq
        error = reward - prediction
        for index, value in vector.items():
            gradient = error * value - _L2 * self.weights[index]
            self.weights[index] += step * gradient
        return prediction
