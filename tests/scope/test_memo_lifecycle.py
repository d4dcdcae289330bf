"""A compile's search state dies with the compile.

The memo is a DAG of ids (``scope/optimizer/memo.py``): expressions and
group handles name groups by id, so a ``Memo`` is freed by reference count
when the search returns, and nothing that outlives a compile — a cached
plan, a fragment entry, a memoized error, a ``DayReport`` — can reach a
``Memo``, ``Group``, ``GroupExpression`` or ``Winner``.  These tests hold
that with the cycle collector switched off, and check that the id-based
adopt path stays observationally identical to a fresh search.
"""

from __future__ import annotations

import dataclasses
import gc
import types
import weakref

import pytest

from repro import QOAdvisor, SimulationConfig
from repro.config import CacheConfig, WorkloadConfig
from repro.errors import ScopeError
from repro.scope.cache import CompileRequest
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.cardinality import CardinalityModel
from repro.scope.optimizer.engine import OptimizationResult, Optimizer
from repro.scope.optimizer.fragments import FragmentEntry
from repro.scope.optimizer.memo import Group, GroupExpression, GroupHandle, Memo, Winner
from repro.scope.optimizer.rules.base import RuleFlip
from repro.scope.plan.properties import Distribution, DistributionKind, PhysProps
from repro.workload.generator import build_workload

SEARCH_STATE = (Memo, Group, GroupExpression, Winner)

CONFIG = dataclasses.replace(
    SimulationConfig(seed=42),
    workload=WorkloadConfig(
        num_templates=30,
        num_tables=10,
        shared_subtree_fraction=0.7,
        shared_subtree_pool=3,
        manual_hint_fraction=0.0,
    ),
)
CACHES_OFF = CacheConfig(enabled=False, fragment_enabled=False, mqo_enabled=False)


@pytest.fixture(scope="module")
def workload():
    return build_workload(CONFIG)


@pytest.fixture(scope="module")
def scripts(workload) -> list[str]:
    return [template.script_for_day(0) for template in workload.templates]


@pytest.fixture(scope="module")
def failing_script(workload, scripts) -> str:
    """A workload script the ``failing`` flip cannot compile."""
    engine = _engine(workload, CACHES_OFF)
    for script in scripts:
        try:
            engine.compilation.shards[0].compile_script(
                script, _configs(engine)["failing"]
            )
        except ScopeError:
            return script
    raise AssertionError("no script aggregates: pick another failing flip")


def _engine(workload, cache: CacheConfig | None = None) -> ScopeEngine:
    config = CONFIG if cache is None else dataclasses.replace(CONFIG, cache=cache)
    return ScopeEngine(workload.catalog.clone(), config, workload.registry)


def _configs(engine: ScopeEngine) -> dict[str, object]:
    """Default, an implementation-only flip, two transformation flips and a
    flip that leaves final aggregates without an implementation (fails on
    :func:`failing_script`)."""
    default = engine.default_config

    def flip(name: str):
        rule = engine.registry.by_name(name)
        return RuleFlip(rule.rule_id, turn_on=not default.is_enabled(rule.rule_id)).apply_to(
            default
        )

    return {
        "default": default,
        "impl": flip("HashJoinPairImpl"),
        "trans_off": flip("JoinCommute"),
        "trans_on": flip("JoinAssociateLeft"),
        "failing": flip("HashAggregateImpl"),
    }


def _reachable(roots, limit: int = 2_000_000) -> list[object]:
    """Every object reachable from ``roots`` through ``gc.get_referents``
    (modules, classes and functions are not followed: they lead to the whole
    interpreter, and no instance hangs off them)."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        assert len(seen) < limit, "reachability walk did not stay bounded"
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


def _search_state_in(objects) -> list[str]:
    return sorted({type(obj).__name__ for obj in objects if isinstance(obj, SEARCH_STATE)})


# -- (i) refcount teardown ------------------------------------------------------


def test_every_memo_is_freed_by_refcount_with_the_collector_off(
    workload, scripts, failing_script, monkeypatch
):
    engine = _engine(workload)
    service = engine.compilation.shards[0]
    configs = _configs(engine)
    memos: list[weakref.ref] = []
    original_init = Memo.__init__

    def tracking_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        memos.append(weakref.ref(self))

    monkeypatch.setattr(Memo, "__init__", tracking_init)
    kept: list[object] = []
    gc.collect()
    gc.disable()
    try:
        # a batch first: MQO pre-explores the shared fragments in isolated memos
        kept.extend(
            service.compile_many(
                [
                    CompileRequest(JobInstance(f"j{i}", f"t{i}", "batch", script, day=0))
                    for i, script in enumerate(scripts[:8])
                ]
            )
        )
        for index, script in enumerate(scripts[:24]):
            for name in ("default", "impl", "trans_off") if index % 2 else ("default", "trans_on"):
                kept.append(service.compile_script(script, configs[name]))
        for _ in range(3):  # one miss, then hits on the memoized error
            with pytest.raises(ScopeError):
                service.compile_script(failing_script, configs["failing"])
        assert len(memos) > 24
        alive = [ref for ref in memos if ref() is not None]
        assert not alive, f"{len(alive)} of {len(memos)} memos outlived their compile"
        # and nothing the compiles left behind is search state waiting for
        # the cycle collector
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage, gc.garbage[:] = list(gc.garbage), []
        gc.set_debug(0)
        assert not _search_state_in(garbage)
        assert not [obj for obj in garbage if isinstance(obj, GroupHandle)]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()
    assert all(isinstance(result, OptimizationResult) for result in kept)


# -- (ii) nothing cached can reach a memo ----------------------------------------


def test_no_cached_artifact_reaches_search_state(workload, scripts, failing_script):
    engine = _engine(workload)
    service = engine.compilation.shards[0]
    configs = _configs(engine)
    for script in scripts[:12]:
        for name in ("default", "impl", "trans_off"):
            service.compile_script(script, configs[name])
    with pytest.raises(ScopeError):
        service.compile_script(failing_script, configs["failing"])
    assert len(service.cache._entries) == 37
    slots = list(service.fragments._entries.values())
    assert slots and all(isinstance(slot.entry, FragmentEntry) for slot in slots)
    reached = _reachable([service.cache._entries, service.fragments._entries, service._scripts])
    assert not _search_state_in(reached)
    assert any(isinstance(obj, GroupHandle) for obj in reached)  # handles are shared, as ids
    for obj in reached:
        if isinstance(obj, (GroupHandle, FragmentEntry)):
            assert not _search_state_in(vars(obj).values())
    assert "memo" not in {field.name for field in dataclasses.fields(OptimizationResult)}
    assert "group" not in GroupExpression.__slots__ and "group_id" in GroupExpression.__slots__


def test_a_day_report_does_not_reach_search_state():
    config = dataclasses.replace(
        CONFIG, workload=dataclasses.replace(CONFIG.workload, num_templates=8)
    )
    advisor = QOAdvisor(config)
    report = advisor.run_day(0)
    assert report.production_runs
    reached = _reachable([report, advisor.reports])
    assert not _search_state_in(reached)
    assert any(isinstance(obj, OptimizationResult) for obj in reached)


def test_memoized_errors_carry_no_traceback_after_repeated_hits(workload, failing_script):
    engine = _engine(workload)
    service = engine.compilation.shards[0]
    failing = _configs(engine)["failing"]
    bad_script = "this is not a script"
    before = service.stats.snapshot()
    raised = []
    for _ in range(4):
        with pytest.raises(ScopeError) as plan_error:
            service.compile_script(failing_script, failing)
        raised.append(plan_error.value)
        with pytest.raises(ScopeError):
            service.compile_script(bad_script, engine.default_config)
    delta = service.stats - before
    # one parse per script, every repeat a plan-cache hit.  The failing
    # flip's leader first compiled the script's default plan (the third
    # miss), which proves the flip fatal: its error is answered, not
    # compiled.  The unparsable script is the compiled error no proof
    # covers — two optimizer runs in all
    assert (delta.misses, delta.hits) == (3, 6)
    assert delta.optimizer_invocations == 2
    assert delta.script_compilations == 2
    errors = [entry.error for entry in service.cache._entries.values() if entry.error]
    errors += [value for value in service._scripts._entries.values() if isinstance(value, ScopeError)]
    assert len(errors) == 3
    for error in errors:
        assert error.__traceback__ is None
        assert error.__context__ is None and error.__cause__ is None
    # each hit raises its own copy of the one memoized failure
    assert len({id(error) for error in raised}) == 4
    assert {(type(error), str(error)) for error in raised} == {
        (type(raised[0]), str(raised[0]))
    }
    assert isinstance(service.compile_entry(failing_script, failing), ScopeError)


# -- (iii) id-based adoption is observationally a fresh search ------------------


def _replayed_applications(service, keys, resident_before) -> int:
    """Rule applications a compile that consulted ``keys`` did not run
    itself: a fragment resident before the compile — or met a second time
    inside it — replays its stored entry, which carries what exploring it
    cost.  A caches-off compile explores every occurrence."""
    resident = set(resident_before)
    saved = 0
    for key in keys:
        if key in resident:
            saved += service.fragments._entries[key].entry.applications
        resident.add(key)
    return saved


def test_cached_compiles_equal_fresh_searches(workload, scripts):
    cold = _engine(workload, CACHES_OFF)
    # plan memoization off on the warm side, so every compile below is a real
    # search against the warm fragment store rather than a stored result
    replaying = CacheConfig(enabled=False)
    warm = _engine(workload, replaying)
    assert len(scripts) == 30
    cold_configs, warm_configs = _configs(cold), _configs(warm)
    # batch first: pre-exploration, then fragment replay
    warm.compilation.compile_many(
        [
            CompileRequest(JobInstance(f"j{i}", f"t{i}", "batch", script, day=0))
            for i, script in enumerate(scripts)
        ]
    )
    assert warm.compilation.stats.mqo_preexplored > 0
    replays = 0
    for script in scripts:
        for name in ("default", "impl", "trans_off", "trans_on"):
            fresh = cold.compilation.shards[0].compile_script(
                script, cold_configs[name]
            )
            assert fresh.fragment_keys == ()
            # a fragments-on twin with an empty store, then the warm service
            twin = _engine(workload, replaying)
            keys = []
            for service, config in (
                (twin.compilation.shards[0], _configs(twin)[name]),
                (warm.compilation.shards[0], warm_configs[name]),
            ):
                resident = set(service.fragments._entries)
                cached = service.compile_script(script, config)
                assert cached.plan.pretty() == fresh.plan.pretty()
                assert cached.est_cost == fresh.est_cost
                assert cached.signature == fresh.signature
                saved = _replayed_applications(service, cached.fragment_keys, resident)
                assert cached.applications + saved == fresh.applications
                replays += saved
                keys.append(cached.fragment_keys)
            assert keys[0] == keys[1]
    assert replays > 0


def test_one_fragment_entry_adopts_cleanly_into_two_memos(workload, scripts):
    engine = _engine(workload)
    service = engine.compilation.shards[0]
    for script in scripts[:10]:
        service.compile_script(script, engine.default_config)
    slot = max(service.fragments._entries.values(), key=lambda s: len(s.entry.exprs))
    entry = slot.entry
    optimizer = Optimizer(engine.registry, engine.default_config, engine.data_model)
    memos = []
    for padding in (0, 3):
        memo = Memo(CardinalityModel(engine.data_model, engine.catalog, {}))
        for _ in range(padding):  # shift the ids the entry's groups land on
            memo._new_group(entry.exprs[0][1].schema, None)
        root = memo.adopt_entry(entry)
        # clean: every local group landed fresh, nothing folded or dropped
        assert len(memo.groups) == padding + entry.group_count
        assert memo.dropped_exprs == 0
        assert root.group_id == padding + entry.root_gid
        optimizer._implement(memo)
        memo.validate()
        assert optimizer._best(memo, root, PhysProps.any()) is not None
        memos.append(memo)
    first, second = memos
    assert len(second.groups) == len(first.groups) + 3
    for left, right in zip(first.groups, second.groups[3:]):
        assert [e.key()[0] for e in left.logical_exprs] == [e.key()[0] for e in right.logical_exprs]
        assert [e.group_id for e in right.logical_exprs] == [right.group_id] * len(
            right.logical_exprs
        )
        assert list(left.winners) == list(right.winners)


def test_interned_properties_behave_like_constructed_ones():
    assert PhysProps.any() is PhysProps.any()
    for kind, make in (
        (DistributionKind.ANY, Distribution.any),
        (DistributionKind.RANDOM, Distribution.random),
        (DistributionKind.BROADCAST, Distribution.broadcast),
        (DistributionKind.SINGLETON, Distribution.singleton),
    ):
        shared, built = make(), Distribution(kind)
        assert shared is make() and shared is not built
        assert shared == built and hash(shared) == hash(built)
        assert PhysProps(shared) == PhysProps(built)
        assert hash(PhysProps(shared)) == hash(PhysProps(built))
        assert {PhysProps(built): 1}[PhysProps(shared)] == 1
    fresh = PhysProps(Distribution(DistributionKind.ANY))
    assert fresh == PhysProps.any() and hash(fresh) == hash(PhysProps.any())
    assert hash(fresh) == hash(fresh)  # memoized, stable
    keyed = PhysProps(Distribution.hash(("a", "b")), (("a", True),))
    assert keyed == PhysProps(Distribution.hash(["a", "b"]), (("a", True),))
    assert hash(keyed) == hash(PhysProps(Distribution.hash(("a", "b")), (("a", True),)))
    assert keyed != PhysProps(Distribution.hash(("a", "b")))
    with pytest.raises(ValueError):
        Distribution(DistributionKind.HASH)
    with pytest.raises(ValueError):
        Distribution(DistributionKind.RANDOM, ("a",))
