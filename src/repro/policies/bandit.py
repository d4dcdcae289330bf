"""The paper's contextual bandit: a local Azure-Personalizer stand-in (§4.2, §6).

The Rank/Reward loop itself — pending events, the high-fidelity event log,
the uniform-logging / learned mode switch, versioned snapshots — is
:class:`~repro.policies.base.LearnedSteeringPolicy`; this module supplies
what is the bandit's own: the hashed linear :class:`CBLearner` scored
through :class:`EpsilonGreedyPolicy`, the reward-wait expiry of unrewarded
events, and counterfactual evaluation of its log.
"""

from __future__ import annotations

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.bandit.learner import CBLearner
from repro.bandit.offpolicy import dr_estimate, ips_estimate, snips_estimate
from repro.bandit.policy import EpsilonGreedyPolicy
from repro.config import BanditConfig
from repro.policies.base import NOOP_REWARD, LearnedSteeringPolicy

__all__ = ["BanditSteeringPolicy"]


class BanditSteeringPolicy(LearnedSteeringPolicy):
    """Epsilon-greedy over a hashed linear reward model, learned off-policy."""

    name = "bandit"

    def __init__(
        self,
        config: BanditConfig | None = None,
        seed: int = 0,
        mode: str = "uniform_logging",
    ) -> None:
        self.config = config or BanditConfig()
        super().__init__(self.config.epsilon, seed, mode)
        self.learner = CBLearner(
            bits=self.config.hash_bits,
            learning_rate=self.config.learning_rate,
            l2=self.config.l2,
            interaction_order=self.config.interaction_order,
        )
        self.greedy_policy = EpsilonGreedyPolicy(
            self.config.epsilon, self.config.hash_bits, self.config.interaction_order
        )
        #: events expired unrewarded so far (observability)
        self.expired_events = 0

    # -- LearnedSteeringPolicy hooks ----------------------------------------------

    def _scores(self, context: ContextFeatures, actions: list[ActionFeatures]) -> np.ndarray:
        return self.greedy_policy._scores(context, actions, self.learner)

    def _learn(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        advantage: float,
        probability: float,
    ) -> None:
        self.learner.update(context, action, advantage, probability)

    def _snapshot(self) -> object:
        return (self.learner.snapshot(), self.learner.updates)

    def _restore(self, state: object) -> None:
        # the full snapshot: weights *and* the ``updates`` counter, so a
        # restored model is indistinguishable from the one published
        weights, updates = state
        self.learner.restore(weights, updates=updates)

    # -- reward-wait expiry ----------------------------------------------------

    def publish_version(self) -> int:
        """Expire overdue unrewarded events, then snapshot the model.

        Mirrors the Azure Personalizer reward-wait window: an event whose
        reward never arrives is finalized with ``expired_event_reward``
        once ``activation_timeout_days`` publish cycles have passed since
        it was ranked, instead of leaking forever.  Expiry runs first, so
        the default-reward updates are part of the snapshot the events age
        out under, and in rank order (insertion order of the pending map),
        so the learner sees a deterministic update sequence.
        """
        timeout = self.config.activation_timeout_days
        if timeout > 0:
            cycle = len(self.versions) + 1
            stale = [
                event_id
                for event_id, pending in self._pending.items()
                if cycle - pending.model_version >= timeout
            ]
            for event_id in stale:
                self.observe(event_id, self.config.expired_event_reward)
            self.expired_events += len(stale)
        return super().publish_version()

    # -- counterfactual evaluation ---------------------------------------------------

    def predicted_reward(self, context: ContextFeatures, action: ActionFeatures) -> float:
        """The learner's reward model on the log's scale: it regresses the
        advantage over the no-op, the log holds the raw cost ratio."""
        return NOOP_REWARD + self.learner.score_action(context, action)

    def counterfactual_evaluate(self, policy=None) -> dict[str, float]:
        """IPS/SNIPS/DR estimates of a policy over the logged events.

        Defaults to evaluating the current greedy policy against the log —
        the paper's offline tuning loop.
        """
        policy = policy or self.greedy_policy
        log, learner = self.event_log, self.learner
        return {
            "ips": ips_estimate(log, policy, scorer=learner),
            "snips": snips_estimate(log, policy, scorer=learner),
            "dr": dr_estimate(log, policy, self.predicted_reward, scorer=learner),
            "logged_mean": float(np.mean([e.reward for e in log])) if log else 0.0,
            "events": float(len(log)),
        }
