"""QO-Advisor core tests: spans, tasks, pipeline wiring."""

import pytest

from repro.core.features import FeatureGenerationTask, JobFeatures
from repro.core.recommend import RecommendationTask, actions_for_span
from repro.core.recompile import CostOutcome, RecompilationTask, flight_candidates
from repro.core.spans import SpanComputer
from repro.core.validate import ValidationModel, ValidationTask
from repro.core.hintgen import HintGenerationTask
from repro.errors import ScopeError
from repro.policies.bandit import BanditSteeringPolicy
from repro.scope.optimizer.rules.base import RuleCategory
from repro.scope.telemetry.view import WorkloadView, build_view_row
from repro.sis.service import SISService

from tests.conftest import COPY_SCRIPT, JOIN_AGG_SCRIPT


@pytest.fixture(scope="module")
def spans(engine):
    return SpanComputer(engine)


def test_span_of_copy_job_is_empty(engine, spans):
    assert spans.compute(COPY_SCRIPT) == frozenset()


def test_span_of_join_agg_job(engine, spans):
    span = spans.compute(JOIN_AGG_SCRIPT)
    names = {engine.registry.rule(r).name for r in span}
    assert "JoinResidualToKeys" in names
    assert "LocalGlobalAggregation" in names  # discovered via off-rule probe
    # required rules never enter a span
    for rule_id in span:
        assert engine.registry.rule(rule_id).category != RuleCategory.REQUIRED


def test_span_cache_by_template(engine, spans, monkeypatch):
    first = spans.span_for_template("tX", JOIN_AGG_SCRIPT)
    service = engine.compilation.service_for("tX")
    calls = []
    monkeypatch.setattr(service, "compile_script", lambda *args: calls.append(args))
    second = spans.span_for_template("tX", JOIN_AGG_SCRIPT)
    assert first == second
    assert calls == []  # cached: no recompiles


def test_span_of_uncompilable_script_is_empty(engine, spans):
    assert spans.compute("garbage !!") == frozenset()


def test_span_recompilations_count_failed_compiles_too(engine, monkeypatch):
    """Every compile a span spends goes through the shard service, failed
    searches included — a failed search costs as much as one that found a
    plan — so a spy on the service sees them all."""
    expected = SpanComputer(engine).compute(JOIN_AGG_SCRIPT)
    attempts, failures = [], []
    service = engine.compilation.shards[0]
    compile_script = service.compile_script

    def counting(script, config):
        attempts.append(config)
        try:
            return compile_script(script, config)
        except ScopeError:
            failures.append(config)
            raise

    monkeypatch.setattr(service, "compile_script", counting)
    fresh = SpanComputer(engine)
    span = fresh.compute(JOIN_AGG_SCRIPT)
    assert failures and len(attempts) > len(failures)
    assert span == expected
    attempts.clear()
    assert fresh.compute("garbage !!") == frozenset()
    assert len(attempts) == 1  # the default compile fails; nothing else runs


@pytest.fixture(scope="module")
def features(engine, spans, join_agg_job, copy_job):
    view = WorkloadView(day=0)
    jobs = {}
    for job in (join_agg_job, copy_job):
        result = engine.compile_job(job, use_hints=False)
        metrics = engine.execute(result, job.run_key())
        view.add(build_view_row(job, result, metrics))
        jobs[job.job_id] = job
    return FeatureGenerationTask(spans).run(view, jobs)


def test_feature_generation_marks_steerable(features):
    by_id = {f.job.job_id: f for f in features}
    assert by_id["j-agg"].steerable
    assert not by_id["j-copy"].steerable


def test_context_includes_span_and_numerics(features):
    steerable = next(f for f in features if f.steerable)
    context = steerable.context()
    assert context.span == tuple(sorted(steerable.span))
    assert context.estimated_cost > 0


def test_actions_for_span_size(engine, features):
    steerable = next(f for f in features if f.steerable)
    actions = actions_for_span(steerable.span, engine.registry, engine.default_config)
    assert len(actions) == 1 + len(steerable.span)
    assert actions[0].is_noop
    directions = {
        a.rule_id: a.turn_on for a in actions if a.rule_id is not None
    }
    for rule_id, turn_on in directions.items():
        assert turn_on == (not engine.default_config.is_enabled(rule_id))


def test_recommendation_task_skips_empty_spans(engine, features):
    policy = BanditSteeringPolicy(seed=9)
    recommendations = RecommendationTask(policy, engine.registry).run(features)
    assert len(recommendations) == 1  # only the steerable job


def test_recompilation_rewards_and_outcomes(engine, features):
    task = RecompilationTask(engine)
    lga = engine.registry.by_name("LocalGlobalAggregation").rule_id
    # force the recommendation to the known-good flip
    from repro.core.recommend import Recommendation
    from repro.scope.optimizer.rules.base import RuleFlip

    steerable = next(f for f in features if f.steerable)
    rec = Recommendation(steerable, RuleFlip(lga, True), "evt-x", 0.1)
    outcome = task.evaluate(rec)
    assert outcome.outcome is CostOutcome.LOWER
    assert 1.0 < outcome.reward <= 2.0
    assert outcome.est_cost_delta < 0


def test_recompilation_noop_outcome(engine, features):
    from repro.core.recommend import Recommendation

    steerable = next(f for f in features if f.steerable)
    outcome = RecompilationTask(engine).evaluate(
        Recommendation(steerable, None, "evt-y", 0.5)
    )
    assert outcome.outcome is CostOutcome.NOOP
    assert outcome.reward == 1.0


def test_recompilation_failure_outcome(engine, features):
    from repro.core.recommend import Recommendation
    from repro.scope.optimizer.rules.base import RuleFlip

    steerable = next(f for f in features if f.steerable)
    bad = RuleFlip(engine.registry.by_name("HashAggregateImpl").rule_id, False)
    outcome = RecompilationTask(engine).evaluate(
        Recommendation(steerable, bad, "evt-z", 0.5)
    )
    assert outcome.outcome is CostOutcome.FAILURE
    assert outcome.reward == 0.0


def test_flight_candidates_filters_lower_only(engine, features):
    from repro.core.recommend import Recommendation
    from repro.scope.optimizer.rules.base import RuleFlip

    steerable = next(f for f in features if f.steerable)
    task = RecompilationTask(engine)
    lga = engine.registry.by_name("LocalGlobalAggregation").rule_id
    good = task.evaluate(Recommendation(steerable, RuleFlip(lga, True), "e1", 0.1))
    noop = task.evaluate(Recommendation(steerable, None, "e2", 0.1))
    assert flight_candidates([good, noop]) == [good]


def test_validation_model_requires_training():
    from repro.errors import ValidationError

    with pytest.raises(ValidationError):
        ValidationModel().predict(None)  # type: ignore[arg-type]


def test_hint_generation_caps_and_merges(engine):
    from repro.core.validate import ValidatedFlip
    from repro.scope.optimizer.rules.base import RuleFlip

    sis = SISService(engine.registry)
    task = HintGenerationTask(sis, engine.registry, max_hints_per_day=1)
    lga = engine.registry.by_name("LocalGlobalAggregation").rule_id
    validated = [
        ValidatedFlip("T1", RuleFlip(lga, True), -0.3, None),
        ValidatedFlip("T2", RuleFlip(lga, True), -0.2, None),
    ]
    version = task.run(validated, day=1)
    assert version is not None and len(sis.active_hints()) == 1
    assert "T1" in sis.active_hints()  # best predicted delta wins the cap
    # next day merges
    task2 = HintGenerationTask(sis, engine.registry, max_hints_per_day=5)
    task2.run([ValidatedFlip("T3", RuleFlip(lga, True), -0.5, None)], day=2)
    assert set(sis.active_hints()) == {"T1", "T3"}


def test_hint_generation_returns_none_when_empty(engine):
    sis = SISService(engine.registry)
    assert HintGenerationTask(sis, engine.registry).run([], day=0) is None
