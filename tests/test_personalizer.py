"""The Personalizer stand-in (``BanditSteeringPolicy``): rank/observe,
modes, versioning, reward-wait expiry, CFE."""

import pytest

from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.config import BanditConfig
from repro.errors import PersonalizerError
from repro.policies import BanditSteeringPolicy


def _context():
    return ContextFeatures(span=(1, 2), estimated_cost=10.0)


def _actions(n=3):
    return [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=i, turn_on=True) for i in range(1, n)
    ]


def test_rank_returns_event_and_probability():
    policy = BanditSteeringPolicy(seed=1)
    response = policy.rank(_context(), _actions())
    assert response.probability == pytest.approx(1.0 / 3)
    assert policy.pending_events == 1


def test_rank_empty_actions_rejected():
    with pytest.raises(PersonalizerError):
        BanditSteeringPolicy(seed=1).rank(_context(), [])


def test_reward_consumes_event():
    policy = BanditSteeringPolicy(seed=1)
    response = policy.rank(_context(), _actions())
    policy.observe(response.event_id, 1.0)
    assert policy.pending_events == 0
    assert len(policy.event_log) == 1
    with pytest.raises(PersonalizerError):
        policy.observe(response.event_id, 1.0)


def test_unknown_event_rejected():
    with pytest.raises(PersonalizerError):
        BanditSteeringPolicy(seed=1).observe("nope", 1.0)


def test_learned_mode_exploits_rewards():
    config = BanditConfig(epsilon=0.0, learning_rate=0.3)
    policy = BanditSteeringPolicy(config, seed=2, mode="uniform_logging")
    actions = _actions(3)
    # action 2 is clearly best
    for _ in range(200):
        response = policy.rank(_context(), actions)
        reward = 1.8 if response.action.rule_id == 2 else 0.6
        policy.observe(response.event_id, reward)
    policy.switch_mode("learned")
    picks = [policy.rank(_context(), actions) for _ in range(10)]
    for response in picks:
        policy.observe(response.event_id, 1.0)
    assert sum(1 for p in picks if p.action.rule_id == 2) >= 8


def test_bad_mode_rejected():
    with pytest.raises(PersonalizerError):
        BanditSteeringPolicy(seed=1, mode="chaotic")
    with pytest.raises(PersonalizerError):
        BanditSteeringPolicy(seed=1).switch_mode("chaotic")


def test_model_versioning_roundtrip():
    policy = BanditSteeringPolicy(seed=3)
    response = policy.rank(_context(), _actions())
    policy.observe(response.event_id, 2.0)
    version = policy.publish_version()
    before = policy.learner.weights.tobytes()
    response = policy.rank(_context(), _actions())
    policy.observe(response.event_id, -5.0)
    assert policy.learner.weights.tobytes() != before
    policy.restore_version(version)
    assert policy.learner.weights.tobytes() == before
    with pytest.raises(PersonalizerError):
        policy.restore_version(99)


def test_restore_version_restores_full_snapshot():
    """Rollback means the *whole* snapshot: the updates counter must travel
    with the weights, or a restored model claims training it never kept."""
    policy = BanditSteeringPolicy(seed=5)
    response = policy.rank(_context(), _actions())
    policy.observe(response.event_id, 1.5)
    version = policy.publish_version()
    updates_at_publish = policy.learner.updates
    for _ in range(7):
        response = policy.rank(_context(), _actions())
        policy.observe(response.event_id, 0.2)
    assert policy.learner.updates == updates_at_publish + 7
    policy.restore_version(version)
    assert policy.learner.updates == updates_at_publish


def test_unrewarded_events_expire_with_default_reward():
    config = BanditConfig(activation_timeout_days=2, expired_event_reward=0.25)
    policy = BanditSteeringPolicy(config, seed=6)
    stale = policy.rank(_context(), _actions())
    policy.publish_version()  # tick 1: age 1, still pending
    assert policy.pending_events == 1
    fresh = policy.rank(_context(), _actions())
    policy.publish_version()  # tick 2: the stale event ages out
    assert policy.pending_events == 1  # only the fresh one survives
    assert policy.expired_events == 1
    assert policy.event_log[-1].reward == 0.25
    # the expired event is final: a late reward is rejected like a double one
    with pytest.raises(PersonalizerError):
        policy.observe(stale.event_id, 1.0)
    # the fresh event is still rewardable
    policy.observe(fresh.event_id, 1.0)
    assert policy.pending_events == 0


def test_expiry_disabled_with_zero_timeout():
    config = BanditConfig(activation_timeout_days=0)
    policy = BanditSteeringPolicy(config, seed=7)
    policy.rank(_context(), _actions())
    for _ in range(5):
        policy.publish_version()
    assert policy.pending_events == 1
    assert policy.expired_events == 0


def test_counterfactual_evaluation_reports_estimators():
    policy = BanditSteeringPolicy(seed=4)
    for _ in range(50):
        response = policy.rank(_context(), _actions())
        policy.observe(response.event_id, 1.0 if response.action.rule_id else 0.5)
    estimates = policy.counterfactual_evaluate()
    assert set(estimates) >= {"ips", "snips", "dr", "logged_mean", "events"}
    assert estimates["events"] == 50.0
    assert 0.0 <= estimates["snips"] <= 2.0


def test_dr_on_a_log_of_noop_rewards_is_the_noop_reward():
    """The learner regresses the advantage over the no-op; DR's reward model
    must put it back on the log's scale, or it is biased by mean(weight) - 1."""
    policy = BanditSteeringPolicy(seed=4)
    for step in range(60):
        actions = _actions(2 + step % 3)
        response = policy.rank(_context(), actions)
        policy.observe(response.event_id, 1.0)
    estimates = policy.counterfactual_evaluate()
    assert estimates["ips"] != pytest.approx(1.0)  # mean(weight) is not 1 here
    assert estimates["snips"] == pytest.approx(1.0)
    assert estimates["dr"] == pytest.approx(1.0)
