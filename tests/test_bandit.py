"""Contextual bandit tests: features, policies, learner, off-policy eval."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.bandit import hashing
from repro.bandit.features import (
    ActionFeatures,
    ContextFeatures,
    FeatureVector,
    action_features,
    context_features,
    joint_features,
)
from repro.bandit.hashing import feature_index
from repro.bandit.learner import CBLearner, WeightSnapshot
from repro.bandit.offpolicy import LoggedEvent, dr_estimate, ips_estimate, snips_estimate
from repro.bandit.policy import EpsilonGreedyPolicy, UniformPolicy
from repro.config import BanditConfig
from repro.policies import BanditSteeringPolicy
from repro.rng import keyed_rng
from tests.conftest import PerIndexOnly, reference_joint_features, reference_score


def _context(span=(1, 2, 3)):
    return ContextFeatures(span=span, estimated_cost=100.0, row_count=1e6)


def test_feature_index_is_stable_and_bounded():
    index = feature_index("ns", "feat", 10)
    assert index == feature_index("ns", "feat", 10)
    assert 0 <= index < 1024


def test_context_features_include_cooccurrence_orders():
    vector = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector, interaction_order=3)
    # 3 singles + 3 pairs + 1 triple + numeric buckets
    assert len(vector) >= 3 + 3 + 1 + 4


def test_interaction_order_limits_features():
    vector2 = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector2, interaction_order=1)
    vector3 = FeatureVector(bits=18)
    _context((1, 2, 3)).write_into(vector3, interaction_order=3)
    assert len(vector3) > len(vector2)


def test_joint_features_cross_span_with_action():
    joint = joint_features(_context(), ActionFeatures(rule_id=2, turn_on=True), bits=18)
    noop = joint_features(_context(), ActionFeatures(rule_id=None), bits=18)
    assert len(joint) > len(noop)


def test_uniform_policy_probability():
    actions = [ActionFeatures(rule_id=None), ActionFeatures(rule_id=1)]
    assert UniformPolicy().action_probability(_context(), actions, 1) == pytest.approx(0.5)


def test_epsilon_greedy_probabilities_sum_to_one():
    learner = CBLearner(bits=12)
    policy = EpsilonGreedyPolicy(epsilon=0.2, bits=12)
    actions = [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=i, turn_on=True) for i in range(1, 5)
    ]
    probs = [
        policy.action_probability(_context(), actions, i, learner)
        for i in range(len(actions))
    ]
    assert sum(probs) == pytest.approx(1.0)
    assert max(probs) >= 0.8  # greedy mass


def test_learner_converges_to_action_rewards():
    learner = CBLearner(bits=16, learning_rate=0.2)
    context = _context()
    good = ActionFeatures(rule_id=1, turn_on=True)
    bad = ActionFeatures(rule_id=2, turn_on=False)
    for _ in range(300):
        learner.update(context, good, reward=1.5, probability=0.5)
        learner.update(context, bad, reward=0.5, probability=0.5)
    assert learner.score_action(context, good) > learner.score_action(context, bad)
    assert learner.score_action(context, good) == pytest.approx(1.5, abs=0.2)


def test_learner_snapshot_restore():
    learner = CBLearner(bits=10)
    learner.update(_context(), ActionFeatures(rule_id=1), 1.0, 0.5)
    published = learner.weights.tobytes()
    snapshot = learner.snapshot()
    learner.update(_context(), ActionFeatures(rule_id=1), 5.0, 0.5)
    assert learner.weights.tobytes() != published
    learner.restore(snapshot)
    assert learner.weights.tobytes() == published
    # the snapshot holds the non-zero slots only, and a restore never
    # aliases it: later updates leave the published version intact
    assert snapshot.indices.tolist() == np.flatnonzero(np.frombuffer(published)).tolist()
    learner.update(_context(), ActionFeatures(rule_id=1), 5.0, 0.5)
    learner.restore(snapshot)
    assert learner.weights.tobytes() == published


def test_learner_rejects_bad_snapshot():
    learner = CBLearner(bits=10)
    with pytest.raises(ValueError):
        learner.restore(CBLearner(bits=12).snapshot())
    for index in (-1, 1 << 10):
        with pytest.raises(ValueError):
            learner.restore(WeightSnapshot(10, np.array([index]), np.array([1.0])))


def _make_log(rng, rewards_by_action, n=600):
    actions = tuple(
        ActionFeatures(rule_id=i, turn_on=True) for i in range(len(rewards_by_action))
    )
    events = []
    for _ in range(n):
        chosen = int(rng.integers(0, len(actions)))
        events.append(
            LoggedEvent(
                context=_context(),
                actions=actions,
                chosen=chosen,
                probability=1.0 / len(actions),
                reward=rewards_by_action[chosen],
            )
        )
    return events


class _AlwaysAction:
    """Deterministic policy: always plays a fixed index."""

    def __init__(self, index):
        self.index = index

    def action_probability(self, context, actions, index, scorer=None):
        return 1.0 if index == self.index else 0.0


def test_ips_estimates_target_policy_value():
    rng = keyed_rng(3, "ips")
    events = _make_log(rng, rewards_by_action=[0.2, 1.0, 0.5])
    estimate = ips_estimate(events, _AlwaysAction(1))
    assert estimate == pytest.approx(1.0, abs=0.15)


def test_snips_lower_variance_same_target():
    rng = keyed_rng(4, "snips")
    events = _make_log(rng, rewards_by_action=[0.2, 1.0, 0.5])
    assert snips_estimate(events, _AlwaysAction(1)) == pytest.approx(1.0, abs=0.1)


def test_dr_estimate_with_zero_model_matches_ips():
    rng = keyed_rng(5, "dr")
    events = _make_log(rng, rewards_by_action=[0.3, 0.9], n=400)
    ips = ips_estimate(events, _AlwaysAction(0))
    dr = dr_estimate(events, _AlwaysAction(0), lambda c, a: 0.0)
    assert dr == pytest.approx(ips, abs=1e-9)


def test_estimators_score_each_event_once_and_keep_their_estimates(monkeypatch):
    learner = CBLearner(bits=12)
    policy = EpsilonGreedyPolicy(epsilon=0.2, bits=12)
    events = _make_log(keyed_rng(6, "once"), rewards_by_action=[0.2, 1.0, 0.5, 0.7], n=40)
    for event in events:
        learner.update(event.context, event.actions[event.chosen], event.reward, 0.25)

    passes = []
    scores = EpsilonGreedyPolicy._scores
    monkeypatch.setattr(
        EpsilonGreedyPolicy, "_scores", lambda *args: passes.append(1) or scores(*args)
    )
    for estimate in (
        lambda target: ips_estimate(events, target, scorer=learner),
        lambda target: snips_estimate(events, target, scorer=learner),
        lambda target: dr_estimate(events, target, learner.score_action, scorer=learner),
    ):
        del passes[:]
        batched = estimate(policy)
        assert len(passes) == len(events)
        assert batched == estimate(PerIndexOnly(policy))


def test_estimators_empty_log():
    assert ips_estimate([], _AlwaysAction(0)) == 0.0
    assert snips_estimate([], _AlwaysAction(0)) == 0.0


# -- the shared-context rank path against the pre-sharing featurizer -----------

_numeric = st.sampled_from([-3.0, 0.0, 0.5, 9.0, 120.0, 4.2e4, 7.7e9])


@settings(max_examples=60, deadline=None)
@given(
    span=st.lists(st.integers(0, 40), unique=True, max_size=12),
    extra_rules=st.lists(st.integers(0, 45), max_size=3),
    numerics=st.tuples(*[_numeric] * 6),
    job_name=st.sampled_from(["", "etl_daily_7", "agg", "_x"]),
    bits=st.sampled_from([3, 4, 18]),
    order=st.sampled_from([1, 2, 3]),
    seed=st.integers(0, 2**16),
)
@example(span=list(range(12)), extra_rules=[], numerics=(9.0,) * 6, job_name="etl_1",
         bits=18, order=3, seed=1)  # fmt: skip
@example(span=[4, 1, 9], extra_rules=[9, 30], numerics=(0.0,) * 6, job_name="",
         bits=3, order=3, seed=2)  # fmt: skip
def test_shared_context_path_is_bit_identical_to_reference(
    span, extra_rules, numerics, job_name, bits, order, seed
):
    """Same (index, value) items in the same order and ``==`` scores — at
    3 and 4 bits nearly every action collides with a context slot (the
    full-sum fallback), at 18 nearly none does (the shared prefix)."""
    context = ContextFeatures(tuple(span), *numerics, job_name=job_name)
    actions = [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=rule, turn_on=rule % 2 == 0, category="impl" if rule % 3 else "")
        for rule in [*span, *extra_rules]
    ]
    learner = CBLearner(bits=bits, interaction_order=order)
    learner.weights = keyed_rng(seed, "weights").normal(size=1 << bits)
    policy = EpsilonGreedyPolicy(epsilon=0.1, bits=bits, interaction_order=order)

    reference = [reference_joint_features(context, action, bits, order) for action in actions]
    expected = [reference_score(learner.weights, values) for values in reference]
    shared = context_features(context, bits, order)
    for action, values in zip(actions, reference):
        assert list(joint_features(context, action, bits, order).items()) == list(values.items())
        assert list(joint_features(context, action, bits, order, shared).items()) == list(
            values.items()
        )
    assert list(shared.items()) == list(context_features(context, bits, order).items())

    scores = policy._scores(context, actions, learner)
    assert [float(score) for score in scores] == [float(score) for score in expected]
    assert [learner.score_action(context, action) for action in actions] == expected
    assert policy.action_probabilities(context, actions, learner) == [
        policy.action_probability(context, actions, index, learner)
        for index in range(len(actions))
    ]


def test_both_scoring_branches_are_exercised():
    """The property above only means something if bits=18 takes the prefix
    path and small tables take the fallback."""
    context = ContextFeatures(tuple(range(12)), 9.0, 9.0, 9.0, 9.0, 9.0, 9.0, "etl_1")
    action = ActionFeatures(rule_id=5, turn_on=True, category="impl")
    for bits, disjoint in ((18, True), (3, False)):
        shared = context_features(context, bits)
        own = action_features(context, action, bits)
        assert shared.values.keys().isdisjoint(own.values) is disjoint


def test_warm_rank_hashes_nothing_and_cold_rank_hashes_each_name_once(monkeypatch):
    """Work count, not wall clock: a 12-rule span with 13 actions."""
    hashed = []

    def counting(*parts):
        hashed.append(parts)
        return real(*parts)

    real = hashing.stable_hash
    monkeypatch.setattr(hashing, "stable_hash", counting)
    monkeypatch.setattr(hashing, "_SLOTS", {})  # cold, whatever ran before

    span = tuple(range(2, 14))
    context = ContextFeatures(span, 120.0, 9.0, 4.2e4, 7.7e9, 9.0, 120.0, "etl_daily")
    actions = [ActionFeatures(rule_id=None)] + [
        ActionFeatures(rule_id=rule, turn_on=False, category="impl") for rule in span
    ]
    policy = BanditSteeringPolicy(BanditConfig(), seed=3, mode="learned")

    first = policy.rank(context, actions)
    # 12 + 66 + 220 span features, 7 job features, noop, then per flip
    # rule_/12 crosses apiece and the shared dir_/cat_/self| names
    distinct = 298 + 7 + 1 + 12 * 13 + 3
    assert len(hashed) == len(set(hashed)) == distinct

    del hashed[:]
    second = policy.rank(context, actions)
    policy.observe(first.event_id, 1.0)
    policy.observe(second.event_id, 0.5)
    assert policy.action_probabilities(context, actions)
    assert hashed == []
