"""The steering policy: the paper's contextual bandit (§4.2, §6).

A local Azure-Personalizer stand-in.  :class:`LearnedSteeringPolicy` is the
loop every part of the pipeline downstream of feature generation talks to
(the recommend stage, the reward feedback of the recompile stage, the daily
model publish, the off-policy estimators).  It owns the hashed linear
:class:`~repro.bandit.learner.CBLearner`, scored through
:class:`~repro.bandit.policy.EpsilonGreedyPolicy`, and calls both directly.
:class:`~repro.policies.bandit.BanditSteeringPolicy`, the name the
pipeline builds and the perf ledger's tracer binds, only sets its
telemetry name.

The contract:

* :meth:`~LearnedSteeringPolicy.rank` — choose one action for a (context,
  actions) pair, returning a :class:`RankResponse` (event id + chosen
  action + logged propensity).
* :meth:`~LearnedSteeringPolicy.observe` — report the reward for a ranked
  event; the model learns online.
* :meth:`~LearnedSteeringPolicy.publish_version` — the daily model
  publish of the Azure Personalizer lifecycle.  A publish first expires
  the events whose reward never arrived within the reward-wait window,
  then counts one more version; :attr:`~LearnedSteeringPolicy.model_version`
  reads that counter.  Nothing moves the model backwards (the regression
  guard is validation before hints are published), so no published
  weights are kept.
* :meth:`~LearnedSteeringPolicy.switch_mode` — ``"uniform_logging"``
  (explore uniformly, maximally informative logs — the off-policy warm-up)
  vs ``"learned"`` (act on the learned scores), the paper's staged rollout.
* :meth:`~LearnedSteeringPolicy.counterfactual_evaluate` — IPS/SNIPS/DR
  estimates of the greedy policy (``greedy_policy`` over ``learner``)
  against the high-fidelity event log
  (:class:`~repro.bandit.offpolicy.LoggedEvent`).

The policy logs the raw reward but teaches the model its *advantage*
over the no-op, ``reward - NOOP_REWARD``.  Every flip's reward is a cost
ratio near 1.0, so a model of the absolute reward ranks actions by how
often their features were updated; a model of the advantage starts at
"no better than default", and ``np.argmax`` sends a tie to index 0, the
no-op, which is never recompiled.  A score is therefore an advantage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.bandit.learner import CBLearner
from repro.bandit.offpolicy import (
    LoggedEvent,
    dr_estimate,
    ips_estimate,
    snips_estimate,
)
from repro.bandit.policy import EpsilonGreedyPolicy
from repro.errors import PersonalizerError
from repro.rng import keyed_rng

__all__ = [
    "NOOP_REWARD",
    "LearnedSteeringPolicy",
    "RankResponse",
]

#: the two operating modes every policy understands (paper §4.2)
MODES = ("uniform_logging", "learned")

#: the reward of keeping the default plan (cost ratio ``default / default``)
NOOP_REWARD = 1.0

#: bits of the hashed feature space (2**bits learner weights)
_HASH_BITS = 18
#: exploration rate of the learned mode's epsilon-greedy choice
_EPSILON = 0.15
#: the learner's SGD learning rate
_LEARNING_RATE = 0.05
#: highest order of span co-occurrence interaction features (paper §6:
#: "second and third order co-occurrence indicators")
_INTERACTION_ORDER = 3
#: publish cycles (daily in the pipeline) an unrewarded rank event
#: survives before it expires with ``_EXPIRED_EVENT_REWARD``
_ACTIVATION_TIMEOUT_DAYS = 2
#: the reward an expired rank event is finalized with
_EXPIRED_EVENT_REWARD = 0.0


@dataclass(frozen=True)
class RankResponse:
    """Answer to a rank call."""

    event_id: str
    action: ActionFeatures
    index: int
    probability: float
    model_version: int


@dataclass
class _Pending:
    context: ContextFeatures
    actions: tuple[ActionFeatures, ...]
    chosen: int
    probability: float
    #: publish cycles completed when the event was ranked (the
    #: activation-timeout base)
    model_version: int


class LearnedSteeringPolicy:
    """Epsilon-greedy over a hashed linear reward model, learned off-policy."""

    def __init__(self, seed: int = 0, mode: str = "uniform_logging") -> None:
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        self.mode = mode
        self.learner = CBLearner(
            bits=_HASH_BITS,
            learning_rate=_LEARNING_RATE,
            interaction_order=_INTERACTION_ORDER,
        )
        self.greedy_policy = EpsilonGreedyPolicy(_EPSILON, _HASH_BITS, _INTERACTION_ORDER)
        # the stream and event ids of the stand-alone Personalizer service
        # the bandit's logged decisions were made under
        self._rng = keyed_rng(seed, "personalizer")
        self._pending: dict[str, _Pending] = {}
        self._event_counter = 0
        self._log: list[LoggedEvent] = []
        #: model versions published so far; the newest is the one scoring
        self._version = 0
        #: events expired unrewarded so far (observability)
        self.expired_events = 0

    # -- the Rank/Reward surface ----------------------------------------------

    def rank(self, context: ContextFeatures, actions: list[ActionFeatures]) -> RankResponse:
        """Choose one action; the caller must later observe its reward."""
        if not actions:
            raise PersonalizerError("rank called with an empty action set")
        if self.mode == "uniform_logging":
            index = int(self._rng.integers(0, len(actions)))
            probability = 1.0 / len(actions)
        else:
            scores = self.greedy_policy._scores(context, actions, self.learner)
            explore = self._rng.random() < self.greedy_policy.epsilon
            index = int(self._rng.integers(0, len(actions))) if explore else int(np.argmax(scores))
            probability = self.greedy_policy.action_probability_from_scores(scores, index)
        self._event_counter += 1
        event_id = f"evt-{self._event_counter:08d}"
        self._pending[event_id] = _Pending(
            context=context,
            actions=tuple(actions),
            chosen=index,
            probability=probability,
            model_version=self._version,
        )
        return RankResponse(
            event_id=event_id,
            action=actions[index],
            index=index,
            probability=probability,
            model_version=self._version,
        )

    def observe(self, event_id: str, reward: float) -> None:
        """Report the reward for a ranked event; the model learns its
        advantage over the no-op."""
        pending = self._pending.pop(event_id, None)
        if pending is None:
            raise PersonalizerError(f"unknown or already-rewarded event {event_id!r}")
        self._log.append(
            LoggedEvent(
                context=pending.context,
                actions=pending.actions,
                chosen=pending.chosen,
                probability=pending.probability,
                reward=reward,
            )
        )
        self.learner.update(
            pending.context,
            pending.actions[pending.chosen],
            reward - NOOP_REWARD,
            pending.probability,
        )

    # -- model versions ----------------------------------------------------------

    def publish_version(self) -> int:
        """Expire overdue unrewarded events, then publish the next version.

        Mirrors the Azure Personalizer reward-wait window: an event whose
        reward never arrives is finalized with ``_EXPIRED_EVENT_REWARD``
        once ``_ACTIVATION_TIMEOUT_DAYS`` publish cycles have passed since
        it was ranked, instead of leaking forever.  Expiry runs first, so
        the default-reward updates are part of the version the events age
        out under, and in rank order (insertion order of the pending map),
        so the learner sees a deterministic update sequence.
        """
        cycle = self._version + 1
        stale = [
            event_id
            for event_id, pending in self._pending.items()
            if cycle - pending.model_version >= _ACTIVATION_TIMEOUT_DAYS
        ]
        for event_id in stale:
            self.observe(event_id, _EXPIRED_EVENT_REWARD)
        self.expired_events += len(stale)
        self._version += 1
        return self._version

    def switch_mode(self, mode: str) -> None:
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        self.mode = mode

    @property
    def model_version(self) -> int:
        """The version scoring now: the number of versions published."""
        return self._version

    @property
    def event_log(self) -> list[LoggedEvent]:
        return self._log

    @property
    def pending_events(self) -> int:
        return len(self._pending)

    def telemetry(self) -> dict[str, object]:
        """Identity of this policy for the observability plane.

        Feeds the ``repro_policy_info`` metrics view.  Reads only
        already-published state — calling it never advances the policy.
        """
        return {"policy": self.name, "version": self.model_version, "mode": self.mode}

    # -- counterfactual evaluation ---------------------------------------------------

    def predicted_reward(self, context: ContextFeatures, action: ActionFeatures) -> float:
        """The learner's reward model on the log's scale: it regresses the
        advantage over the no-op, the log holds the raw cost ratio."""
        return NOOP_REWARD + self.learner.score_action(context, action)

    def counterfactual_evaluate(self) -> dict[str, float]:
        """IPS/SNIPS/DR estimates of the current greedy policy over the
        logged events — the paper's offline tuning loop."""
        log, policy, learner = self._log, self.greedy_policy, self.learner
        return {
            "ips": ips_estimate(log, policy, scorer=learner),
            "snips": snips_estimate(log, policy, scorer=learner),
            "dr": dr_estimate(log, policy, self.predicted_reward, scorer=learner),
            "logged_mean": float(np.mean([e.reward for e in log])) if log else 0.0,
            "events": float(len(log)),
        }
