"""The Rank/Reward skeleton the steering policy is built on (paper §4.2, §6).

The paper deploys one contextual bandit; :class:`LearnedSteeringPolicy` is
the loop every part of the pipeline downstream of feature generation talks
to (the recommend stage, the reward feedback of the recompile stage, the
daily model publish, the off-policy estimators), and
:class:`~repro.policies.bandit.BanditSteeringPolicy` is its one
implementation.

The contract:

* :meth:`~LearnedSteeringPolicy.rank` — choose one action for a (context,
  actions) pair, returning a :class:`RankResponse` (event id + chosen
  action + logged propensity).
* :meth:`~LearnedSteeringPolicy.observe` — report the reward for a ranked
  event; the model learns online.
* :meth:`~LearnedSteeringPolicy.action_probability` — the probability the
  policy's *acting* (learned) distribution assigns to one action of a
  logged event.  This is the hook the IPS/SNIPS/DR estimators in
  :mod:`repro.bandit.offpolicy` need, and it is deliberately
  signature-compatible with the bandit-internal policies there (the
  ``scorer`` argument is accepted and ignored).
* :meth:`~LearnedSteeringPolicy.publish_version` /
  :meth:`~LearnedSteeringPolicy.restore_version` — daily model snapshots
  and regression rollback, mirroring the Azure Personalizer lifecycle.
* :meth:`~LearnedSteeringPolicy.switch_mode` — ``"uniform_logging"``
  (explore uniformly, maximally informative logs — the off-policy warm-up)
  vs ``"learned"`` (act on the learned scores), the paper's staged rollout.

The skeleton owns the pending-event table, the high-fidelity event log
(:class:`~repro.bandit.offpolicy.LoggedEvent`, which feeds the
counterfactual machinery), the mode switch, the keyed exploration RNG and
epsilon-greedy selection; the subclass supplies ``_scores`` (score every
action) plus ``_learn``/``_snapshot``/``_restore``.

The skeleton logs the raw reward but teaches the model its *advantage*
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
from repro.bandit.offpolicy import LoggedEvent
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
    """One published model snapshot."""

    version: int
    state: object


@dataclass
class _Pending:
    context: ContextFeatures
    actions: tuple[ActionFeatures, ...]
    chosen: int
    probability: float
    #: model version the event was ranked under (the activation-timeout base)
    model_version: int


class LearnedSteeringPolicy:
    """The Rank/Reward loop (paper §4.2, §6).

    Subclasses implement:

    * ``_scores(context, actions)`` → per-action predicted advantage
      over the no-op (0.0 = no better than default);
    * ``_learn(context, action, advantage, probability)`` — consume one
      finalized event, ``advantage = reward - NOOP_REWARD``;
    * ``_snapshot()`` / ``_restore(state)`` — model state for
      publish/restore.
    """

    #: stable identifier, surfaced by :meth:`telemetry`
    name: str = "?"

    def __init__(self, epsilon: float, seed: int, mode: str = "uniform_logging") -> None:
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        if not 0.0 <= epsilon <= 1.0:
            raise PersonalizerError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self.mode = mode
        # the stream and event ids of the stand-alone Personalizer service
        # the bandit's logged decisions were made under
        self._rng = keyed_rng(seed, "personalizer")
        self._pending: dict[str, _Pending] = {}
        self._event_counter = 0
        self._log: list[LoggedEvent] = []
        self.versions: list[PolicyVersion] = []

    # -- the Rank/Reward surface ----------------------------------------------

    def rank(self, context: ContextFeatures, actions: list[ActionFeatures]) -> RankResponse:
        """Choose one action; the caller must later observe its reward."""
        if not actions:
            raise PersonalizerError("rank called with an empty action set")
        if self.mode == "uniform_logging":
            index = int(self._rng.integers(0, len(actions)))
            probability = 1.0 / len(actions)
        else:
            scores = self._scores(context, actions)
            greedy = int(np.argmax(scores))
            explore = self._rng.random() < self.epsilon
            index = int(self._rng.integers(0, len(actions))) if explore else greedy
            probability = self._greedy_probability(len(actions), index == greedy)
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
            model_version=len(self.versions),
        )

    def observe(self, event_id: str, reward: float) -> None:
        """Report the reward for a ranked event; the model learns."""
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
        self._learn(
            pending.context,
            pending.actions[pending.chosen],
            reward - NOOP_REWARD,
            pending.probability,
        )

    def action_probability(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        index: int,
        scorer=None,
    ) -> float:
        """The *acting* (epsilon-greedy over learned scores) distribution.

        Counterfactual evaluation asks what the policy would do if it were
        driving — the learned distribution — regardless of the mode it is
        currently logging under.  ``scorer`` is accepted for signature
        compatibility with the stateless target distributions in
        :mod:`repro.bandit.policy` and ignored: a policy owns its model.
        """
        if not actions:
            return 0.0
        scores = self._scores(context, actions)
        greedy = int(np.argmax(scores))
        return self._greedy_probability(len(actions), index == greedy)

    def action_probabilities(
        self, context: ContextFeatures, actions: list[ActionFeatures], scorer=None
    ) -> list[float]:
        """:meth:`action_probability` for every index, from one scoring pass."""
        if not actions:
            return []
        scores = self._scores(context, actions)
        greedy = int(np.argmax(scores))
        return [self._greedy_probability(len(actions), i == greedy) for i in range(len(actions))]

    def _greedy_probability(self, num_actions: int, is_greedy: bool) -> float:
        base = self.epsilon / num_actions
        return base + (1.0 - self.epsilon) * (1.0 if is_greedy else 0.0)

    def publish_version(self) -> int:
        self.versions.append(
            PolicyVersion(version=len(self.versions) + 1, state=self._snapshot())
        )
        return len(self.versions)

    def restore_version(self, version: int) -> None:
        for published in self.versions:
            if published.version == version:
                self._restore(published.state)
                return
        raise PersonalizerError(f"unknown model version {version}")

    def switch_mode(self, mode: str) -> None:
        if mode not in MODES:
            raise PersonalizerError(f"unknown mode {mode!r}")
        self.mode = mode

    @property
    def model_version(self) -> int:
        return len(self.versions)

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

    # -- subclass hooks ------------------------------------------------------

    def _scores(self, context: ContextFeatures, actions: list[ActionFeatures]) -> np.ndarray:
        raise NotImplementedError

    def _learn(
        self,
        context: ContextFeatures,
        action: ActionFeatures,
        advantage: float,
        probability: float,
    ) -> None:
        raise NotImplementedError

    def _snapshot(self) -> object:
        raise NotImplementedError

    def _restore(self, state: object) -> None:
        raise NotImplementedError
