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

The live table is dense (``weights``, ``1 << bits`` float64 slots): every
score and update indexes it directly, and the policy's digests hash
``weights.tobytes()``.  Only a published copy is sparse.
:meth:`CBLearner.snapshot` returns a :class:`WeightSnapshot`, the one
snapshot format, which holds the non-zero slots alone.  Hashed features
touch few slots (1,369 of 262,144 after the ledger's ``shared_days``
run), so a version costs kilobytes where a dense copy cost 2 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures, FeatureVector, joint_features
from repro.bandit.offpolicy import _MIN_PROB

__all__ = ["CBLearner", "WeightSnapshot"]

#: L2 regularization strength of every SGD step
_L2 = 1e-6


@dataclass(frozen=True, eq=False)
class WeightSnapshot:
    """A published weight table, sparse: the slots whose bit pattern is
    non-zero (so ``-0.0`` and NaN payloads are kept) and their values.

    Restoring it into a zero table of ``1 << bits`` slots gives back the
    published bytes exactly.  A version costs 16 bytes per such slot
    instead of the whole table's 8 per slot.
    """

    bits: int
    indices: np.ndarray
    values: np.ndarray


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
        self.updates = 0

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
        self.updates += 1
        return prediction

    def snapshot(self) -> WeightSnapshot:
        """The table as published: every slot whose bit pattern is non-zero."""
        indices = np.flatnonzero(self.weights.view(np.uint64))
        return WeightSnapshot(self.bits, indices, self.weights[indices])

    def restore(self, snapshot: WeightSnapshot, updates: int | None = None) -> None:
        """Install a snapshot into a fresh zero table; ``updates`` restores
        the step counter too (a full-snapshot restore is indistinguishable
        from the model that was published)."""
        if snapshot.bits != self.bits:
            raise ValueError(
                f"weight snapshot has {snapshot.bits} hash bits, the learner {self.bits}"
            )
        size, indices = 1 << self.bits, snapshot.indices
        if indices.size and not 0 <= indices.min() <= indices.max() < size:
            raise ValueError("weight snapshot index out of range")
        weights = np.zeros(size)
        weights[indices] = snapshot.values
        self.weights = weights
        if updates is not None:
            self.updates = updates
