"""Stateless target distributions over a linear scorer.

What the off-policy estimators evaluate a log *against*.  Drawing an
action (the RNG, the pending event) is
:meth:`repro.policies.base.LearnedSteeringPolicy.rank`'s job, not theirs;
in learned mode ``rank`` scores through :class:`EpsilonGreedyPolicy` and
logs the propensity its :meth:`~EpsilonGreedyPolicy.action_probability_from_scores`
gives, so the acting and the evaluated distribution are one formula.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.features import action_features, context_features, joint_features

__all__ = ["UniformPolicy", "EpsilonGreedyPolicy"]


class UniformPolicy:
    """Uniform-at-random logging policy (the paper's off-policy data source)."""

    def action_probability(self, context, actions, index, scorer=None) -> float:
        return 1.0 / len(actions)


class EpsilonGreedyPolicy:
    """Exploit the scorer's argmax with probability 1−ε, explore otherwise."""

    def __init__(self, epsilon: float, bits: int, interaction_order: int = 3) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.bits = bits
        self.interaction_order = interaction_order

    def _scores(self, context, actions, scorer) -> np.ndarray:
        shared = context_features(context, self.bits, self.interaction_order)
        prefix = scorer.score(shared)
        scores = np.empty(len(actions))
        for index, action in enumerate(actions):
            own = action_features(context, action, self.bits)
            if shared.values.keys().isdisjoint(own.values):
                scores[index] = scorer.score(own, prefix)
            else:  # the action rewrites a context slot, so no prefix is shared
                scores[index] = scorer.score(
                    joint_features(context, action, self.bits, self.interaction_order, shared)
                )
        return scores

    def action_probability_from_scores(self, scores: np.ndarray, index: int) -> float:
        greedy = int(np.argmax(scores))
        base = self.epsilon / len(scores)
        return base + (1.0 - self.epsilon) * (1.0 if index == greedy else 0.0)

    def action_probability(self, context, actions, index, scorer=None) -> float:
        scores = self._scores(context, actions, scorer)
        return self.action_probability_from_scores(scores, index)

    def action_probabilities(self, context, actions, scorer=None) -> list[float]:
        """The whole distribution from one scoring pass (off-policy estimators)."""
        scores = self._scores(context, actions, scorer)
        return [self.action_probability_from_scores(scores, i) for i in range(len(actions))]
