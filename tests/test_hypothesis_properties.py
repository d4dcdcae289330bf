"""Property-based tests (hypothesis) on core data structures and invariants."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.bandit.features import ActionFeatures, ContextFeatures, joint_features
from repro.config import BanditConfig, SimulationConfig
from repro.errors import ScopeError
from repro.policies import BanditSteeringPolicy
from repro.rng import keyed_rng, stable_hash
from repro.scope.cache import EpochStore, FragmentCache
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.language import ast
from repro.scope.optimizer.rules.base import (
    RuleConfiguration,
    RuleFlip,
    RuleSignature,
    default_registry,
)
from repro.scope.types import Column, DataType, Schema
from repro.sis.hints import HintEntry, parse_hint_file, render_hint_file
from repro.sis.service import SISService
from tests.conftest import COPY_SCRIPT, JOIN_AGG_SCRIPT, SIMPLE_SCRIPT, plan_identity

_REGISTRY = default_registry()
_SIZE = len(_REGISTRY)


@given(st.integers(min_value=0, max_value=(1 << _SIZE) - 1), st.integers(0, _SIZE - 1))
def test_flip_is_involution(bits, rule_id):
    config = RuleConfiguration(bits, _SIZE)
    assert config.with_flip(rule_id).with_flip(rule_id) == config


@given(st.integers(min_value=0, max_value=(1 << _SIZE) - 1))
def test_bitstring_roundtrip(bits):
    config = RuleConfiguration(bits, _SIZE)
    text = config.as_bitstring()
    assert len(text) == _SIZE
    rebuilt = sum(1 << i for i, ch in enumerate(text) if ch == "1")
    assert rebuilt == bits


@given(st.lists(st.integers(0, _SIZE - 1), unique=True))
def test_configuration_diff_matches_flips(rule_ids):
    config = _REGISTRY.default_configuration()
    flipped = config.with_flips(rule_ids)
    assert sorted(flipped.diff(config)) == sorted(rule_ids)


@given(st.sets(st.integers(0, _SIZE - 1)))
def test_signature_membership(ids):
    signature = RuleSignature.from_ids(ids, _SIZE)
    for rule_id in range(_SIZE):
        assert (rule_id in signature) == (rule_id in ids)


_names = st.text(alphabet="abcdefg", min_size=1, max_size=4)


@given(st.lists(_names, unique=True, min_size=1, max_size=6))
def test_schema_project_identity(names):
    schema = Schema([Column(n, DataType.INT) for n in names])
    assert schema.project(list(names)).names == tuple(names)


@given(
    st.lists(_names, unique=True, min_size=1, max_size=4),
    st.lists(_names, unique=True, min_size=1, max_size=4),
)
def test_schema_concat_width_additive(left_names, right_names):
    left = Schema([Column(n, DataType.INT) for n in left_names])
    right = Schema([Column(n, DataType.LONG) for n in right_names])
    joined = left.concat(right)
    assert len(joined) == len(left) + len(right)
    assert joined.row_width == left.row_width + right.row_width


_literals = st.integers(-100, 100).map(lambda v: ast.Literal(v, DataType.LONG))
_columns = _names.map(ast.ColumnRef)
_comparisons = st.tuples(_columns, _literals).map(
    lambda pair: ast.BinaryOp("==", pair[0], pair[1])
)


@given(st.lists(_comparisons, min_size=1, max_size=6))
def test_conjunction_split_roundtrip(conjuncts):
    rebuilt = ast.split_conjuncts(ast.make_conjunction(conjuncts))
    assert rebuilt == conjuncts


@given(st.lists(_comparisons, min_size=1, max_size=4))
def test_predicate_sql_is_parseable_shape(conjuncts):
    text = ast.make_conjunction(conjuncts).sql()
    assert text.count("(") == text.count(")")


@given(st.integers(), st.integers())
def test_stable_hash_is_stable_and_64bit(a, b):
    assert stable_hash(a, b) == stable_hash(a, b)
    assert 0 <= stable_hash(a, b) < (1 << 64)
    assert stable_hash(a, b) == stable_hash(a, b)


@given(st.integers(0, 2**32), st.text(max_size=8))
def test_keyed_rng_deterministic(seed, tag):
    a = keyed_rng(seed, tag).random()
    b = keyed_rng(seed, tag).random()
    assert a == b


@settings(max_examples=30)
@given(
    st.sets(st.integers(0, _SIZE - 1), min_size=0, max_size=8),
    st.integers(0, _SIZE - 1),
    st.booleans(),
)
def test_joint_features_deterministic(span, rule_id, turn_on):
    context = ContextFeatures(span=tuple(sorted(span)))
    action = ActionFeatures(rule_id=rule_id, turn_on=turn_on)
    first = joint_features(context, action, bits=16)
    second = joint_features(context, action, bits=16)
    assert first.values == second.values


_contexts = st.builds(
    ContextFeatures,
    span=st.sets(st.integers(0, _SIZE - 1), min_size=1, max_size=6).map(
        lambda ids: tuple(sorted(ids))
    ),
    estimated_cost=st.floats(0.0, 1e9),
    row_count=st.floats(0.0, 1e9),
    vertices=st.floats(0.0, 200.0),
)


def _span_actions(context: ContextFeatures) -> list[ActionFeatures]:
    flips = [ActionFeatures(rule_id=rule_id, turn_on=False) for rule_id in context.span]
    return [ActionFeatures(rule_id=None)] + flips


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_contexts, min_size=1, max_size=12),
    st.integers(1, 3),
    _contexts,
    st.integers(0, 2**16),
)
def test_rewards_equal_to_the_noop_leave_the_noop_greedy(logged, publishes, asked, seed):
    """Rewards of exactly the no-op's 1.0 teach no advantage: whatever was
    observed, however often the model was refit, the greedy action of any
    action set is the no-op at index 0."""
    policy = BanditSteeringPolicy(BanditConfig(epsilon=0.0), seed=seed)
    for _ in range(publishes):
        for context in logged:
            response = policy.rank(context, _span_actions(context))  # uniform: random action
            policy.observe(response.event_id, 1.0)
        policy.publish_version()
    for context in (asked, *logged):
        assert policy.action_probabilities(context, _span_actions(context))[0] == 1.0


#: bit patterns a weight table may hold that a value compare would lose:
#: -0.0 (equal to 0.0) and a quiet NaN with a payload (unequal to itself)
_PLANTED = (0x8000_0000_0000_0000, 0x7FF8_0000_0000_0123)
_BITS = 8
_publish_rounds = st.lists(
    st.tuples(
        st.lists(
            st.tuples(_contexts, st.integers(0, _SIZE - 1), st.floats(-1.0, 1.0), st.floats(0.05, 1.0)),
            max_size=4,
        ),
        st.lists(st.tuples(st.integers(0, (1 << _BITS) - 1), st.sampled_from(_PLANTED)), max_size=3),
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=30, deadline=None)
@given(_publish_rounds, st.data())
def test_every_published_version_restores_its_exact_bytes(rounds, data):
    """A sparse snapshot loses nothing: whatever was learned or planted
    between publishes, restoring any version, in any order, gives back the
    table's bytes and the step counter as they were at its publish."""
    policy = BanditSteeringPolicy(BanditConfig(hash_bits=_BITS), seed=0)
    learner = policy.learner
    published = {}
    for updates, planted in rounds:
        for context, rule_id, reward, probability in updates:
            learner.update(context, ActionFeatures(rule_id=rule_id), reward, probability)
        for index, pattern in planted:
            learner.weights.view(np.uint64)[index] = pattern
        published[policy.publish_version()] = (learner.weights.tobytes(), learner.updates)
    for version in data.draw(st.permutations(sorted(published))):
        policy.restore_version(version)
        assert (learner.weights.tobytes(), learner.updates) == published[version]


_off_rules = _REGISTRY.ids_in_category(
    __import__("repro.scope.optimizer.rules.base", fromlist=["RuleCategory"]).RuleCategory.OFF_BY_DEFAULT
)


@settings(max_examples=30)
@given(st.lists(st.sampled_from(_off_rules), unique=True, min_size=1, max_size=4))
def test_hint_file_roundtrip(rule_ids):
    entries = [
        HintEntry(f"T{i:04d}", RuleFlip(rule_id, True))
        for i, rule_id in enumerate(rule_ids)
    ]
    assert parse_hint_file(render_hint_file(entries, day=1)) == entries


_store_ops = st.tuples(st.sampled_from(["put", "touch", "peek"]), st.integers(0, 5))


def _model_checkpoint(stamps: dict, epoch: int, ops: list, capacity: int) -> int:
    """Reference ``EpochStore`` epoch, a function of the op *set* alone."""
    inserted = {key for kind, key in ops if kind == "put"}
    for kind, key in ops:
        if kind == "put" or (kind == "touch" and (key in stamps or key in inserted)):
            stamps[key] = epoch
    victims = sorted(stamps, key=lambda key: (stamps[key], key))
    victims = victims[: max(len(stamps) - capacity, 0)]
    for key in victims:
        del stamps[key]
    return len(victims)


@settings(max_examples=60)
@given(st.lists(st.lists(_store_ops, max_size=8), max_size=6), st.integers(1, 3), st.data())
def test_epoch_store_matches_model_in_any_schedule(epochs, capacity, data):
    store, shuffled = EpochStore(capacity), EpochStore(capacity)
    fragments = FragmentCache(capacity)
    stamps: dict = {}
    for epoch, ops in enumerate(epochs):
        for target, schedule in ((store, ops), (shuffled, data.draw(st.permutations(ops)))):
            for kind, key in schedule:
                if kind == "put":
                    target.put(key, (epoch, key))
                else:
                    getattr(target, kind)(key)
        # the fragment cache under the same ops: a demand lookup inserts on a
        # miss and records a winner; a winner lookup stamps only a resident slot
        for kind, key in ops:
            if kind == "put":
                if fragments.get(key) is None:
                    fragments.put(key, "entry")
                fragments.put_winner(key, "ctx", "winner")
            elif kind == "touch":
                fragments.get_winner(key, "ctx")
            else:
                fragments.peek(key)
        before = set(stamps) | {key for kind, key in ops if kind == "put"}
        evicted = _model_checkpoint(stamps, epoch, ops, capacity)
        for target in (store, shuffled, fragments):
            assert target.checkpoint() == evicted
            assert set(target._entries) == set(target._stamps) == set(stamps)
            assert len(target) <= capacity
        for key in before - set(stamps):  # winners go with their slot
            assert not fragments.put_winner(key, "ctx", "late")
        assert all(slot.winners == {"ctx": "winner"} for slot in fragments._entries.values())
    assert fragments.clear() == len(stamps)
    assert len(fragments) == 0
    for key in stamps:  # a cleared slot comes back without its winners
        assert fragments.get_winner(key, "ctx") is None
        fragments.put(key, "entry")
        assert fragments.peek(key).winners == {}


_JOBS = [
    JobInstance(f"j-{name}", f"t-{name}", name, script, day=0)
    for name, script in (("agg", JOIN_AGG_SCRIPT), ("simple", SIMPLE_SCRIPT), ("copy", COPY_SCRIPT))
]
_DEFAULT = _REGISTRY.default_configuration()
_FLIPS = [
    RuleFlip(rule_id, not _DEFAULT.is_enabled(rule_id))
    for rule_id in _REGISTRY.flippable_ids
]
_hint_sets = st.dictionaries(st.integers(0, len(_JOBS) - 1), st.sampled_from(_FLIPS))
_sis_ops = st.one_of(
    st.tuples(st.just("upload"), _hint_sets),
    st.tuples(st.just("rollback"), st.none()),
    st.tuples(st.just("compile"), st.integers(0, len(_JOBS) - 1)),
)


def _outcome(compile_job, job):
    try:
        return plan_identity(compile_job(job))
    except ScopeError as exc:
        return type(exc), exc.args


@settings(max_examples=25, deadline=None)
@given(st.lists(_sis_ops, min_size=1, max_size=12))
def test_cached_compile_equals_uncached_across_hint_publications(small_catalog, ops):
    """No publication clears anything, and none has to: whatever the
    interleaving of uploads, rollbacks and compiles, the cache serves what
    a from-scratch compile under the active hint set produces."""
    engine = ScopeEngine(small_catalog, SimulationConfig(seed=101))
    sis = SISService(engine.registry)
    sis.attach(engine)
    for day, (kind, arg) in enumerate(ops):
        if kind == "upload":
            entries = [HintEntry(_JOBS[i].template_id, flip) for i, flip in sorted(arg.items())]
            sis.upload(entries, day=day)
        elif kind == "rollback":
            sis.rollback()
        else:
            job = _JOBS[arg]
            assert _outcome(engine.compile_job, job) == _outcome(
                engine.compile_job_uncached, job
            )
    assert engine.compilation.stats.invalidations == 0
