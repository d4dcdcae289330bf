"""A flip the default compile proves inert or fatal is answered, not compiled.

``CompilationService`` serves a single flip from the script's default
result when that result proves the flip changes nothing (*off*: an
implementation rule outside the signature; *on*: a bit of ``inert_mask``)
or that it cannot compile (*off*: a bit of ``fatal_mask``, answered with
the error).  The oracle here is the from-scratch compile: whatever the
service serves for ``default ^ R`` — inferred or compiled, plan or error —
is what ``compile_job_uncached`` builds, for every flippable rule.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import SimulationConfig
from repro.errors import OptimizationError, ScopeError
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.optimizer.engine import NO_PHYSICAL_PLAN, OptimizationResult, SearchBudget
from repro.scope.optimizer.rules.base import ImplementationRule, RuleCategory, RuleFlip
from repro.scope.plan import logical
from repro.workload.generator import build_workload

from tests.scope.test_memo_lifecycle import CONFIG as LIFECYCLE_CONFIG
from tests.scope.test_rule_patterns import _wrappers
from tests.test_policies import _tiny_config


def _outcome(compile_job, job, flip):
    """What a compile of (job, flip) decides: plan, cost, signature — or the
    error's type and ``args``."""
    try:
        result = compile_job(job, flip)
    except ScopeError as exc:
        return type(exc), exc.args
    return result.plan.pretty(), result.est_cost, result.signature.rule_ids


def _kind(registry, flip: RuleFlip) -> str:
    layer = (
        "implementation"
        if isinstance(registry.rule(flip.rule_id), ImplementationRule)
        else "transformation"
    )
    return f"{layer}-{'on' if flip.turn_on else 'off'}"


@pytest.mark.parametrize(
    "config", [LIFECYCLE_CONFIG, _tiny_config()], ids=["lifecycle30", "tiny10"]
)
def test_every_single_flip_is_served_as_a_fresh_compile_builds_it(config):
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    service = engine.compilation.shards[0]
    registry = engine.registry
    flips = [
        RuleFlip(rule_id, turn_on=not engine.default_config.is_enabled(rule_id))
        for rule_id in registry.flippable_ids
    ]
    inferred: Counter = Counter()
    compiled: Counter = Counter()
    fatal: Counter = Counter()
    for day in (0, 1):
        workload.advance_to_day(day)
        for template in workload.templates:
            job = JobInstance(
                f"{template.template_id}-d{day}",
                template.template_id,
                template.name,
                template.script_for_day(day),
                day=day,
            )
            for flip in flips:
                before = service.stats.snapshot()
                served = _outcome(service.compile_job, job, flip)
                delta = service.stats - before
                assert served == _outcome(engine.compile_job_uncached, job, flip), (
                    job.job_id,
                    flip.describe(registry),
                )
                # a miss that ran no optimizer is an inferred flip (the first
                # flip of a script also misses, and compiles, its default plan)
                answered = delta.misses - delta.optimizer_invocations
                assert answered in (0, 1)
                (inferred if answered else compiled)[_kind(registry, flip)] += 1
                if answered and served[0] is OptimizationError:
                    assert served[1] == (NO_PHYSICAL_PLAN,)
                    fatal[_kind(registry, flip)] += 1
    for kind in ("implementation-off", "implementation-on", "transformation-on"):
        assert inferred[kind] > 0 and compiled[kind] > 0, (kind, inferred, compiled)
    # turning a transformation off removes work the default search did
    assert inferred["transformation-off"] == 0
    # only an implementation turned off can leave the root without a plan
    assert set(fatal) == {"implementation-off"}, fatal


# no join, so no fragment: the whole search is the main memo's, and
# ``applications`` is (enabled transformations) x (popped expressions)
AGGREGATE_SCRIPT = """
raw = EXTRACT uid:long, etype:int, val:double FROM "/shares/data/events.ss";
agg = SELECT etype, COUNT(*) AS cnt FROM raw GROUP BY etype;
OUTPUT agg TO "/out/agg.ss";
"""


def test_a_silent_rule_is_compiled_when_the_search_has_no_budget_slack(small_catalog):
    """``GroupByBelowUnion`` binds the aggregate and produces nothing (no
    union below it).  With room for one more tried pair per popped
    expression the flip is answered; one application short of that it is
    compiled — and at a budget the extra pairs overrun, the compiled plan
    is the cut search's, which only a compile can know."""
    config = SimulationConfig(seed=101)
    roomy = ScopeEngine(small_catalog, config)
    rule = roomy.registry.by_name("GroupByBelowUnion")
    flip = RuleFlip(rule.rule_id, turn_on=True)
    job = JobInstance("j-agg", "t-agg", "agg", AGGREGATE_SCRIPT, day=0)
    default = roomy.compile_job(job)
    assert default.bindable_mask >> rule.rule_id & 1
    assert default.inert_mask >> rule.rule_id & 1
    enabled = sum(
        roomy.default_config.is_enabled(r.rule_id) for r in roomy.registry.transformations
    )
    popped, remainder = divmod(default.applications, enabled)
    assert popped > 1 and remainder == 0
    spent = default.applications + popped  # what the search with the rule on tries
    for budget, answered in ((spent + 1, True), (spent, False), (default.applications + 1, False)):
        engine = ScopeEngine(
            small_catalog, config, budget=SearchBudget(max_transformations=budget)
        )
        served = _outcome(engine.compile_job, job, flip)
        stats = engine.compilation.stats
        assert (stats.misses, stats.optimizer_invocations) == (2, 1 if answered else 2)
        assert bool(engine.compile_job(job).inert_mask >> rule.rule_id & 1) is answered
        assert served == _outcome(engine.compile_job_uncached, job, flip)


def test_a_result_cannot_be_built_without_its_inert_mask(engine):
    result = engine.compilation.shards[0].compile_script(
        AGGREGATE_SCRIPT, engine.default_config
    )
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    del fields["inert_mask"]
    with pytest.raises(TypeError):
        OptimizationResult(**fields)
    # only rules disabled under the result's configuration are ever proven
    assert not result.inert_mask & result.config.bits


# -- the *off* lemma on the synthetic corpus ----------------------------------


@functools.lru_cache(maxsize=None)
def _corpus():
    """Every template root of the default workload and every wrapper of every
    node under it — the trees that reach all 34 search rules."""
    workload = build_workload(SimulationConfig())
    engine = ScopeEngine(workload.catalog, workload.config, workload.registry)
    trees = []
    for template in workload.templates:
        compiled = engine.compile(template.script_for_day(0))
        trees.append((compiled, compiled.root))
        for node in logical.walk(compiled.root):
            trees.extend((compiled, tree) for tree in _wrappers(node))
    return engine, trees


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2**64 - 1))
def test_removing_implementations_outside_the_signature_changes_nothing(index, bits):
    engine, trees = _corpus()
    compiled, tree = trees[index % len(trees)]
    compiled = dataclasses.replace(compiled, root=tree)
    default = engine.optimize(compiled)
    unused = [
        rule.rule_id
        for rule in engine.registry.implementations
        if rule.category == RuleCategory.IMPLEMENTATION
        and bits >> rule.rule_id & 1
        and rule.rule_id not in default.signature
    ]
    without = engine.optimize(compiled, engine.default_config.with_flips(unused))
    assert without.plan.pretty() == default.plan.pretty()
    assert without.est_cost == default.est_cost
    assert without.signature == default.signature


# -- the *fatal* lemma on the synthetic corpus ----------------------------------


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_removing_a_fatal_implementation_leaves_no_plan(index):
    engine, trees = _corpus()
    compiled, tree = trees[index % len(trees)]
    compiled = dataclasses.replace(compiled, root=tree)
    default = engine.optimize(compiled)
    flippable = {
        rule.rule_id
        for rule in engine.registry.implementations
        if rule.category == RuleCategory.IMPLEMENTATION
    }
    # only enabled, flippable implementations in the signature are proven
    assert not default.fatal_mask & ~engine.default_config.bits
    for rule_id in range(len(engine.registry)):
        if default.fatal_mask >> rule_id & 1:
            assert rule_id in flippable and rule_id in default.signature
            with pytest.raises(OptimizationError) as failure:
                engine.optimize(compiled, engine.default_config.with_flip(rule_id))
            assert failure.value.args == (NO_PHYSICAL_PLAN,)


def test_only_a_default_compile_proves_flips_fatal(engine):
    filter_impl = engine.registry.by_name("FilterImpl").rule_id
    # a compound filter has no fused implementation: FilterImpl is its only one
    script = """
raw = EXTRACT uid:long, etype:int, val:double FROM "/shares/data/events.ss";
hot = SELECT uid, val FROM raw WHERE etype == 3 AND val > 2.5;
OUTPUT hot TO "/out/hot.ss";
"""
    service = engine.compilation.shards[0]
    default = service.compile_script(script, engine.default_config)
    assert default.fatal_mask >> filter_impl & 1
    stats = service.stats.snapshot()
    flipped = engine.default_config.with_flip(filter_impl)
    with pytest.raises(OptimizationError) as answered:
        service.compile_script(script, flipped)
    assert (service.stats - stats).optimizer_invocations == 0
    with pytest.raises(OptimizationError) as built:
        engine.optimize(engine.compile(script), flipped)
    assert answered.value.args == built.value.args
    # a compile under any other configuration leaves the mask clear
    lazy = engine.registry.by_name("LazyComputeImpl").rule_id
    other = service.compile_script(script, engine.default_config.with_flip(lazy))
    assert other.fatal_mask == 0
