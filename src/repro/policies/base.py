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
* :meth:`~LearnedSteeringPolicy.publish_version` /
  :meth:`~LearnedSteeringPolicy.restore_version` — daily model snapshots
  and regression rollback, mirroring the Azure Personalizer lifecycle.
  A publish first expires the events whose reward never arrived within
  the reward-wait window.  Every published version is kept, so each must
  be small: the snapshot is a sparse
  :class:`~repro.bandit.learner.WeightSnapshot` (the non-zero weights and
  the table size), restored into a fresh zero table, while the live table
  stays dense because scoring indexes it and the policy digests hash its
  bytes.  :attr:`~LearnedSteeringPolicy.model_version` is the version
  scoring now — the newest, or the one a rollback chose.
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
from repro.config import BanditConfig
from repro.errors import PersonalizerError
from repro.rng import keyed_rng

__all__ = [
    "NOOP_REWARD",
    "LearnedSteeringPolicy",
    "PolicyVersion",
    "RankResponse",
]

#: the two operating modes every policy understands (paper §4.2)
MODES = ("uniform_logging", "learned")

#: the reward of keeping the default plan (cost ratio ``default / default``)
NOOP_REWARD = 1.0


@dataclass(frozen=True)
class RankResponse:
    """Answer to a rank call."""

    event_id: str
    action: ActionFeatures
    index: int
    probability: float
    model_version: int


@dataclass
class PolicyVersion:
    """One published model snapshot: ``(WeightSnapshot, updates)``."""

    version: int
    state: object


@dataclass
class _Pending:
    context: ContextFeatures
    actions: tuple[ActionFeatures, ...]
    chosen: int
    probability: float
    #: publish cycles completed when the event was ranked (the
    #: activation-timeout base; a rollback does not reset it)
    model_version: int


class LearnedSteeringPolicy:
    """Epsilon-greedy over a hashed linear reward model, learned off-policy."""

    def __init__(
        self,
        config: BanditConfig | None = None,
        seed: int = 0,
        mode: str = "uniform_logging",
    ) -> None:
        self.config = config or BanditConfig()
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        if not 0.0 <= self.config.epsilon <= 1.0:
            raise PersonalizerError("epsilon must be in [0, 1]")
        self.mode = mode
        self.learner = CBLearner(
            bits=self.config.hash_bits,
            learning_rate=self.config.learning_rate,
            interaction_order=self.config.interaction_order,
        )
        self.greedy_policy = EpsilonGreedyPolicy(
            self.config.epsilon, self.config.hash_bits, self.config.interaction_order
        )
        # the stream and event ids of the stand-alone Personalizer service
        # the bandit's logged decisions were made under
        self._rng = keyed_rng(seed, "personalizer")
        self._pending: dict[str, _Pending] = {}
        self._event_counter = 0
        self._log: list[LoggedEvent] = []
        self.versions: list[PolicyVersion] = []
        #: the version scoring now: the newest until a rollback picks another
        self._active_version = 0
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
            explore = self._rng.random() < self.config.epsilon
            index = int(self._rng.integers(0, len(actions))) if explore else int(np.argmax(scores))
            probability = self.greedy_policy.action_probability_from_scores(scores, index)
        self._event_counter += 1
        event_id = f"evt-{self._event_counter:08d}"
        self._pending[event_id] = _Pending(
            context=context,
            actions=tuple(actions),
            chosen=index,
            probability=probability,
            model_version=len(self.versions),
        )
        return RankResponse(
            event_id=event_id,
            action=actions[index],
            index=index,
            probability=probability,
            model_version=self._active_version,
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
        self._active_version = len(self.versions) + 1
        state = (self.learner.snapshot(), self.learner.updates)
        self.versions.append(PolicyVersion(version=self._active_version, state=state))
        return self._active_version

    def restore_version(self, version: int) -> None:
        """Roll back to a published version: weights *and* the ``updates``
        counter, so the restored model is indistinguishable from the one
        published."""
        for published in self.versions:
            if published.version == version:
                snapshot, updates = published.state
                self.learner.restore(snapshot, updates=updates)
                self._active_version = version
                return
        raise PersonalizerError(f"unknown model version {version}")

    def switch_mode(self, mode: str) -> None:
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        self.mode = mode

    @property
    def model_version(self) -> int:
        """The version scoring now (``restore_version`` makes an older one
        active); the next publish is still ``len(versions) + 1``."""
        return self._active_version

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
