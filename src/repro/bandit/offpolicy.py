"""Counterfactual (off-policy) evaluation over logged bandit events.

The paper's deployment "uses counter-factual evaluations where we can rely
on past telemetry offline to improve learning parameters and to tune the
model" (§6).  Standard estimators over logs of
(context, actions, chosen index, logged probability, reward):

* IPS — inverse propensity scoring (unbiased, high variance),
* SNIPS — self-normalized IPS (biased, much lower variance),
* DR — doubly robust, combining IPS with a reward model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bandit.features import ActionFeatures, ContextFeatures

__all__ = ["LoggedEvent", "ips_estimate", "snips_estimate", "dr_estimate"]

#: logged probabilities are floored when importance-weighting to bound
#: variance — here and in the learner's updates
_MIN_PROB = 0.01


@dataclass(frozen=True)
class LoggedEvent:
    """One logged decision: what was offered, chosen, and rewarded."""

    context: ContextFeatures
    actions: tuple[ActionFeatures, ...]
    chosen: int
    probability: float
    reward: float


def _target_probs(policy, event: LoggedEvent, scorer) -> list[float]:
    """The target policy's distribution over a logged event's actions — from
    one scoring pass when the policy offers ``action_probabilities``."""
    actions = list(event.actions)
    whole = getattr(policy, "action_probabilities", None)
    if whole is not None:
        return whole(event.context, actions, scorer)
    return [
        policy.action_probability(event.context, actions, index, scorer)
        for index in range(len(actions))
    ]


def _usable(event: LoggedEvent) -> bool:
    """Whether an event can contribute to an estimate at all.

    Logs ingested from external systems can carry degenerate rows — an
    empty action set (nothing was offered), a non-positive propensity
    (the logger recorded no exploration), or a chosen index outside the
    action set.  Such rows carry no counterfactual information; they are
    skipped rather than allowed to raise mid-estimate, so one bad row
    cannot take down a whole evaluation (the estimators then average over
    the usable rows only, and return 0.0 when none remain).
    """
    return (
        len(event.actions) > 0
        and event.probability > 0.0
        and 0 <= event.chosen < len(event.actions)
    )


def ips_estimate(events: list[LoggedEvent], policy, scorer=None) -> float:
    """Unbiased estimate of the target policy's average reward."""
    usable = [event for event in events if _usable(event)]
    if not usable:
        return 0.0
    total = 0.0
    for event in usable:
        target = _target_probs(policy, event, scorer)[event.chosen]
        weight = target / max(event.probability, _MIN_PROB)
        total += weight * event.reward
    return total / len(usable)


def snips_estimate(events: list[LoggedEvent], policy, scorer=None) -> float:
    """Self-normalized IPS: lower variance, slight bias."""
    numerator = 0.0
    denominator = 0.0
    for event in events:
        if not _usable(event):
            continue
        target = _target_probs(policy, event, scorer)[event.chosen]
        weight = target / max(event.probability, _MIN_PROB)
        numerator += weight * event.reward
        denominator += weight
    return numerator / denominator if denominator > 0 else 0.0


def dr_estimate(events: list[LoggedEvent], policy, reward_model, scorer=None) -> float:
    """Doubly robust: reward-model baseline + IPS correction.

    ``reward_model(context, action) -> float`` supplies the direct method
    component (e.g. ``CBLearner.score_action``).
    """
    usable = [event for event in events if _usable(event)]
    if not usable:
        return 0.0
    total = 0.0
    for event in usable:
        probs = _target_probs(policy, event, scorer)
        direct = sum(
            p * reward_model(event.context, action)
            for p, action in zip(probs, event.actions)
        )
        target = probs[event.chosen]
        weight = target / max(event.probability, _MIN_PROB)
        model_chosen = reward_model(event.context, event.actions[event.chosen])
        total += direct + weight * (event.reward - model_chosen)
    return total / len(usable)
