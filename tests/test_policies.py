"""Tests for the steering policy (``repro.policies``).

Covers the refactor-parity lock (the bandit byte-identical to the
pre-seam pipeline across worker counts and shard topologies), the bandit
end-to-end through the counterfactual machinery, the Rank/Reward
skeleton's contract, off-policy estimator hardening, and the telemetry
surfacing.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import QOAdvisor, SimulationConfig
from repro.bandit.features import ActionFeatures, ContextFeatures, FeatureVector
from repro.bandit.offpolicy import (
    LoggedEvent,
    dr_estimate,
    ips_estimate,
    snips_estimate,
)
from repro.bandit.policy import EpsilonGreedyPolicy
from repro.config import (
    BanditConfig,
    ExecutionConfig,
    FlightingConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.core.recompile import CostOutcome
from repro.errors import PersonalizerError
from repro.policies import BanditSteeringPolicy, LearnedSteeringPolicy
from tests.conftest import PerIndexOnly, reference_joint_features, reference_score

# ---------------------------------------------------------------------------
# the refactor-parity lock
# ---------------------------------------------------------------------------

# Golden day reports captured on the pre-refactor pipeline (commit
# 7557f21, seed 555, 10 templates / 8 tables, deterministic flighting,
# simulate(0, 3, learned_after=1)).  The policy seam must keep the default
# configuration byte-identical to these — at any worker count and shard
# topology.  If a deliberate behavior change invalidates them, recapture
# on the commit introducing the change and say so in its message.
# Re-captured in their counter fields only (days 0-1 fingerprints, day-0
# misses / invocations 84 -> 51, day-1 invalidations 84 -> 51) when span
# probes of rules that cannot bind stopped being compiled; the decisions
# are held by GOLDEN_DECISIONS below, which did not move.
# Re-captured again in two counter fields (all three fingerprints) when a
# single flip the script's default plan proves inert stopped being
# compiled: invocations 51 / 18 / 18 -> 39 / 17 / 15 (the 12 / 1 / 3
# flips answered from the default result; misses no longer equal
# invocations — their difference is that count), hits 20 / 11 / 11 ->
# 48 / 20 / 20 (the leader of each single-flip miss looks the default
# plan up once, counted: 28 / 9 / 9 such misses, every default plan
# resident).  Misses, evictions, invalidations, scripts and dedup hits did
# not move, nor did GOLDEN_DECISIONS.
# Re-captured with GOLDEN_DECISIONS (days 1-2; day 0 is uniform logging and
# did not move) when the policies began regressing the advantage over the
# no-op instead of the raw reward: the learned days choose the no-op for
# 8 / 7 of their jobs instead of 0 / 0, so hits 20 / 20 -> 4 / 8, misses
# 18 / 18 -> 11 / 12, invocations 17 / 15 -> 10 / 9, day-2 invalidations
# 18 -> 11 (day 1's misses) and day-2 dedup hits 2 -> 0.
# Re-captured in one counter field (day 0's fingerprint and invocations
# only) when a single flip the script's default plan proves fatal — an
# implementation rule the root group cannot do without, turned off —
# stopped being compiled: day-0 invocations 39 -> 37 (the 2 flips answered
# with the error their compile raises).  Hits, misses and every other
# counter did not move, nor did GOLDEN_DECISIONS.
GOLDEN_FINGERPRINTS = [
    "3a0c7fdbf11ab0484872a50acd4a534a",
    "ccd95dafdf9951ae3df91d7c1a214baa",
    "1d8417f45f7d6aab90044f6527f65180",
]
GOLDEN_CORES = [
    (48, 51, 0, 0, 37, 9, 2),
    (4, 11, 0, 51, 10, 9, 0),
    (8, 12, 0, 11, 9, 9, 0),
]
# The same three days' ``decisions_digest()`` — the fingerprint minus its
# trailing ``core()`` feed — captured on 45f8043 with only the
# fingerprint/decisions split applied.  A work-cutting change re-captures
# the two counter-bearing goldens above in place; this one must not move.
# Re-captured (days 1-2) when the learner began regressing the advantage
# over the no-op — a change of decisions, not of accounting.
GOLDEN_DECISIONS = [
    "5f0f3ff0721be23e85820a2e42d7aa69",
    "bd5f20b1dd16db2d087da16e6de61cb4",
    "d25558aa9fc66f01546d7ad44f7fd362",
]


def _tiny_config(workers=1, shards=1, seed=555):
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(num_templates=10, num_tables=8),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=workers),
        sharding=ShardingConfig(shards=shards),
    )


def _simulate(config, days=3, learned_after=1):
    with QOAdvisor(config) as advisor:
        reports = advisor.simulate(0, days, learned_after=learned_after)
        return advisor, reports


@pytest.mark.parametrize(
    "workers,shards", [(1, 1), (4, 1), (1, 2)], ids=["serial", "workers4", "sharded"]
)
def test_default_policy_matches_pre_refactor_golden(workers, shards):
    _, reports = _simulate(_tiny_config(workers=workers, shards=shards))
    assert [r.decisions_digest() for r in reports] == GOLDEN_DECISIONS
    assert [r.fingerprint() for r in reports] == GOLDEN_FINGERPRINTS
    assert [r.cache_stats.core() for r in reports] == GOLDEN_CORES


def _reference_scores(self, context, actions, scorer):
    return np.array(
        [
            reference_score(
                scorer.weights,
                reference_joint_features(context, action, self.bits, self.interaction_order),
            )
            for action in actions
        ]
    )


def _reference_vector(context, action, bits, interaction_order=3):
    return FeatureVector(bits, reference_joint_features(context, action, bits, interaction_order))


def test_shared_context_rank_path_matches_reference_featurizer_for_four_days(monkeypatch):
    """Differential: four learned-mode days through the shared-context rank
    path, at every worker/shard topology, against the same run driven by
    the reference featurizer — which itself extends the golden path."""
    with monkeypatch.context() as patched:
        patched.setattr(EpsilonGreedyPolicy, "_scores", _reference_scores)
        patched.setattr("repro.bandit.learner.joint_features", _reference_vector)
        _, reports = _simulate(_tiny_config(), days=4)
    chain = [r.fingerprint() for r in reports]
    cores = [r.cache_stats.core() for r in reports]
    assert chain[:3] == GOLDEN_FINGERPRINTS and cores[:3] == GOLDEN_CORES
    assert [r.decisions_digest() for r in reports[:3]] == GOLDEN_DECISIONS
    for workers in (1, 4):
        for shards in (1, 2):
            _, reports = _simulate(_tiny_config(workers=workers, shards=shards), days=4)
            assert [r.decisions_digest() for r in reports[:3]] == GOLDEN_DECISIONS
            assert [r.fingerprint() for r in reports] == chain, (workers, shards)
            assert [r.cache_stats.core() for r in reports] == cores, (workers, shards)


def test_learned_days_choose_lower_cost_flips_more_often_than_higher():
    """The Table-3 direction on the tiny config's learned days (four
    bootstrap days, four learned).  A learner of the absolute reward chose
    0 lower / 33 higher here; regressing the advantage over the no-op keeps
    the default plan when no flip has earned its place."""
    _, reports = _simulate(_tiny_config(), days=8, learned_after=4)
    totals = {outcome.value: 0 for outcome in CostOutcome}
    for report in reports[4:]:
        for outcome, count in report.outcome_counts().items():
            totals[outcome.value] += count
    assert totals == {"lower": 19, "equal": 8, "higher": 1, "failure": 1, "noop": 6}
    assert totals["higher"] < totals["lower"]
    assert sum(len(report.flight_results) for report in reports[4:]) == 18


def test_default_policy_is_the_bandit():
    advisor, reports = _simulate(_tiny_config())
    assert isinstance(advisor.policy, BanditSteeringPolicy)
    assert advisor.policy.mode == "learned"
    assert reports[-1].policy_version == len(advisor.policy.versions)


def test_policy_telemetry_is_outside_the_fingerprint():
    _, reports = _simulate(_tiny_config())
    report = reports[-1]
    before = report.fingerprint()
    report.policy_version = 99
    assert report.fingerprint() == before


# ---------------------------------------------------------------------------
# the bandit end-to-end
# ---------------------------------------------------------------------------


def test_policy_runs_end_to_end_and_feeds_counterfactuals():
    advisor, reports = _simulate(_tiny_config())
    policy = advisor.policy
    assert reports[-1].policy_version == policy.model_version > 0
    log = policy.event_log
    assert log, "the policy must produce a counterfactual-ready log"
    # the off-policy machinery accepts any policy exposing action_probability
    estimates = {
        "ips": ips_estimate(log, policy),
        "snips": snips_estimate(log, policy),
        "dr": dr_estimate(log, policy, lambda context, action: 1.0),
    }
    for key, value in estimates.items():
        assert np.isfinite(value), (key, value)
    assert estimates["snips"] > 0.0
    # one scoring pass per event (action_probabilities) changes no estimate
    per_index = PerIndexOnly(policy)
    assert estimates == {
        "ips": ips_estimate(log, per_index),
        "snips": snips_estimate(log, per_index),
        "dr": dr_estimate(log, per_index, lambda context, action: 1.0),
    }


# ---------------------------------------------------------------------------
# policy unit behavior
# ---------------------------------------------------------------------------


def _context(span=(3, 5), cost=100.0):
    return ContextFeatures(span=tuple(span), estimated_cost=cost)


def _actions():
    return [
        ActionFeatures(rule_id=None),
        ActionFeatures(rule_id=3, turn_on=False, category="transformation"),
        ActionFeatures(rule_id=5, turn_on=False, category="implementation"),
    ]


def _blake(data) -> str:
    data = data if isinstance(data, bytes) else repr(data).encode()
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def test_bandit_decisions_match_the_parent_capture():
    """Captured on commit 5e409d2, where the bandit was an adapter over the
    stand-alone Personalizer service: the fold into the skeleton keeps its
    RNG stream, event ids, both draws and the learner's float operations.
    Re-captured in the two learned ranks and the weights when the learner
    began regressing the advantage over the no-op: the greedy pick moved
    from index 1 (reward 1.0) to index 2 (reward 1.5, the best action)."""
    assert BanditSteeringPolicy.__mro__[1] is LearnedSteeringPolicy
    # inherited, not overridden: the ledger's by-name tracer patches the base
    # after the subclass, so a ``super().rank()`` hop would be two spans
    assert not {"rank", "observe"} & vars(BanditSteeringPolicy).keys()
    policy = BanditSteeringPolicy(SimulationConfig().bandit, seed=9)
    ranks = []
    for step in range(5):
        if step == 3:
            policy.switch_mode("learned")
        response = policy.rank(_context(), _actions())
        ranks.append((response.event_id, response.index, response.probability))
        policy.observe(response.event_id, 0.5 + 0.5 * response.index)
    assert ranks == [
        ("evt-00000001", 2, 1.0 / 3.0),
        ("evt-00000002", 1, 1.0 / 3.0),
        ("evt-00000003", 1, 1.0 / 3.0),
        ("evt-00000004", 2, 0.9),
        ("evt-00000005", 2, 0.9),
    ]
    assert policy.publish_version() == 1
    assert _blake(policy.learner.weights.tobytes()) == "e026f337bfb07b3218934b3c550f7171"
    assert _blake(policy._rng.bit_generator.state) == "24b9489ea0e19e3107df45a19d2d3e65"


def test_bootstrap_event_log_matches_the_parent_capture():
    """``train_off_policy`` drives the recommend/recompile stages' own code;
    the warm-up log and model it leaves are those of commit 5e409d2's inline
    copy of that loop.  The weights were re-captured when the learner began
    regressing the advantage over the no-op; the log and RNG did not move."""
    with QOAdvisor(_tiny_config()) as advisor:
        advisor.bootstrap(start_day=0, days=2)
        policy = advisor.policy
        assert len(policy.event_log) == 19 and policy.pending_events == 0
        log = [(e.context, e.actions, e.chosen, e.probability, e.reward) for e in policy.event_log]
        assert _blake(log) == "75d991394e214d6d069ccc107a3c73fd"
        assert _blake(policy.learner.weights.tobytes()) == "0456a6b77d33fec0ec6c575019369aeb"
        assert _blake(policy._rng.bit_generator.state) == "bf1a9080c39a5306b59738d8be8ba33b"


def test_a_published_version_holds_only_its_non_zero_weights():
    """A version costs the weights it holds, not the table: each snapshot
    keeps exactly the slots whose bit pattern was non-zero at its publish,
    at no more than 16 bytes a slot, and restores to the published bytes."""
    with QOAdvisor(_tiny_config()) as advisor:
        advisor.bootstrap(start_day=0, days=2)
        policy = advisor.policy
        published = {}
        for day in range(2, 5):
            version = advisor.run_day(day).policy_version
            published[version] = policy.learner.weights.tobytes()
    assert sorted(published) == [version.version for version in policy.versions] == [1, 2, 3]
    for version in policy.versions:
        snapshot, _ = version.state
        non_zero = np.count_nonzero(np.frombuffer(published[version.version], np.uint64))
        assert 0 < len(snapshot.indices) == len(snapshot.values) == non_zero
        assert snapshot.indices.nbytes + snapshot.values.nbytes <= 16 * non_zero + 64
    for version in (2, 1, 3):
        policy.restore_version(version)
        assert policy.learner.weights.tobytes() == published[version]


def _make_policy(epsilon=0.1, mode="uniform_logging"):
    return BanditSteeringPolicy(BanditConfig(epsilon=epsilon), seed=4, mode=mode)


def test_skeleton_conformance():
    """The Rank/Reward contract the bandit inherits from the skeleton."""
    policy = _make_policy()
    actions = _actions()
    # event ids count up under the Personalizer's prefix; a rank is pending
    # until observed, then it is one LoggedEvent with the propensity it was
    # drawn at
    first = policy.rank(_context(), actions)
    second = policy.rank(_context(), actions)
    assert (first.event_id, second.event_id) == ("evt-00000001", "evt-00000002")
    assert first.probability == pytest.approx(1.0 / 3.0) and first.model_version == 0
    assert first.action is actions[first.index]
    assert policy.pending_events == 2 and policy.event_log == []
    policy.observe(first.event_id, 1.5)
    assert policy.pending_events == 1
    assert policy.event_log == [
        LoggedEvent(_context(), tuple(actions), first.index, first.probability, 1.5)
    ]
    for event_id in (first.event_id, "no-such-event"):  # duplicate, unknown
        with pytest.raises(PersonalizerError):
            policy.observe(event_id, 1.0)
    with pytest.raises(PersonalizerError):
        policy.rank(_context(), [])
    # publish/restore round-trips the model: scores at the snapshot come back
    policy.observe(second.event_id, 0.25)
    version = policy.publish_version()
    assert version == policy.model_version == 1
    assert policy.rank(_context(), actions).model_version == 1
    at_publish = policy._scores(_context(), actions).tolist()
    for _ in range(20):
        response = policy.rank(_context(), actions)
        policy.observe(response.event_id, 2.0 - response.index)
    policy.publish_version()
    policy.restore_version(version)
    assert policy._scores(_context(), actions).tolist() == at_publish
    with pytest.raises(PersonalizerError):
        policy.restore_version(99)
    # modes and epsilon are validated at construction, modes at the switch
    policy.switch_mode("learned")
    assert policy.mode == "learned"
    with pytest.raises(PersonalizerError):
        policy.switch_mode("bogus")
    with pytest.raises(PersonalizerError):
        _make_policy(mode="bogus")
    with pytest.raises(PersonalizerError):
        _make_policy(epsilon=1.5)


# ---------------------------------------------------------------------------
# estimator hardening
# ---------------------------------------------------------------------------


def _event(probability=0.5, actions=None, chosen=0, reward=1.0):
    acts = _actions() if actions is None else actions
    return LoggedEvent(
        context=_context(),
        actions=tuple(acts),
        chosen=chosen,
        probability=probability,
        reward=reward,
    )


class _UniformTestPolicy:
    def action_probability(self, context, actions, index, scorer=None):
        return 1.0 / len(actions)


@pytest.mark.parametrize(
    "estimate",
    [
        ips_estimate,
        snips_estimate,
        lambda events, policy: dr_estimate(events, policy, lambda c, a: 0.0),
    ],
    ids=["ips", "snips", "dr"],
)
def test_estimators_survive_degenerate_logs(estimate):
    policy = _UniformTestPolicy()
    assert estimate([], policy) == 0.0
    # zero / negative propensity rows are skipped, not divided by
    assert estimate([_event(probability=0.0)], policy) == 0.0
    assert estimate([_event(probability=-1.0)], policy) == 0.0
    # empty action sets and out-of-range chosen indices are skipped too
    assert estimate([_event(actions=[])], policy) == 0.0
    assert estimate([_event(chosen=17)], policy) == 0.0
    # a degenerate row must not poison the usable ones
    mixed = [_event(probability=0.0), _event(probability=1.0 / 3.0, reward=1.5)]
    clean = [_event(probability=1.0 / 3.0, reward=1.5)]
    assert estimate(mixed, policy) == pytest.approx(estimate(clean, policy))
    assert estimate(clean, policy) == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# serving surface
# ---------------------------------------------------------------------------


def test_server_stats_surface_the_active_policy():
    from repro.serving import QOAdvisorServer

    server = QOAdvisorServer(config=_tiny_config())
    try:
        assert server.stats().policy_version == 0
        assert "policy v0" in server.stats().render()
        server.advisor.policy.publish_version()
        stats = server.stats()
        assert stats.policy_version == server.advisor.policy.model_version == 1
        assert "policy v1" in stats.render()
    finally:
        server.shutdown()


def test_a_rollback_reports_the_version_it_made_active():
    """After ``restore_version(v)`` model ``v`` scores, so every surface that
    names the policy's version names ``v``; the next publish still counts on
    from the newest."""
    from repro.serving import QOAdvisorServer

    server = QOAdvisorServer(config=_tiny_config())
    try:
        policy = server.advisor.policy
        assert [policy.publish_version() for _ in range(3)] == [1, 2, 3]
        policy.restore_version(1)
        response = policy.rank(_context(), _actions())
        policy.observe(response.event_id, 1.0)
        stats = server.stats()
        assert response.model_version == policy.model_version == 1
        assert policy.telemetry()["version"] == stats.policy_version == 1
        assert "policy v1" in stats.render()
        assert policy.publish_version() == 4 == policy.model_version
    finally:
        server.shutdown()
