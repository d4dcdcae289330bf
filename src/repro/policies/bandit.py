"""The paper's contextual bandit, behind the policy seam.

A transparent adapter over :class:`~repro.personalizer.service.PersonalizerService`
— the byte-identity default.  Every call delegates 1:1 (same RNG stream,
same event ids, same learner updates), so a pipeline wired through
``BanditSteeringPolicy(PersonalizerService(...))`` produces day reports
byte-identical to the pre-seam pipeline that held the service directly.
The parity lock in ``tests/test_policies.py`` pins this against golden
fingerprints captured before the refactor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.bandit.offpolicy import LoggedEvent
from repro.personalizer.service import PersonalizerService, RankResponse
from repro.policies.base import SteeringPolicy

if TYPE_CHECKING:
    from repro.scope.jobs import JobInstance

__all__ = ["BanditSteeringPolicy"]


class BanditSteeringPolicy(SteeringPolicy):
    """The CB/Personalizer stack as a :class:`SteeringPolicy`."""

    name = "bandit"

    def __init__(self, service: PersonalizerService) -> None:
        self.service = service

    def rank(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        job: "JobInstance | None" = None,
    ) -> RankResponse:
        # context-only policy: the job is part of the seam, not of the CB
        return self.service.rank(context, actions)

    def observe(self, event_id: str, reward: float) -> None:
        self.service.reward(event_id, reward)

    def action_probability(
        self,
        context: ContextFeatures,
        actions: list[ActionFeatures],
        index: int,
        scorer=None,
    ) -> float:
        """The learned epsilon-greedy distribution over the CB scores.

        Uses the greedy policy with the live learner whatever the current
        logging mode — the same convention as
        :meth:`PersonalizerService.counterfactual_evaluate`.
        """
        if not actions:
            return 0.0
        return self.service.greedy_policy.action_probability(
            context, actions, index, scorer or self.service.learner
        )

    def action_probabilities(
        self, context: ContextFeatures, actions: list[ActionFeatures], scorer=None
    ) -> list[float]:
        """:meth:`action_probability` for every index, from one scoring pass."""
        if not actions:
            return []
        return self.service.greedy_policy.action_probabilities(
            context, actions, scorer or self.service.learner
        )

    def publish_version(self) -> int:
        return self.service.publish_version()

    def restore_version(self, version: int) -> None:
        self.service.restore_version(version)

    def switch_mode(self, mode: str) -> None:
        self.service.switch_mode(mode)

    @property
    def mode(self) -> str:
        return self.service.mode

    @property
    def model_version(self) -> int:
        return len(self.service.versions)

    @property
    def event_log(self) -> list[LoggedEvent]:
        return self.service.event_log

    @property
    def pending_events(self) -> int:
        return self.service.pending_events
