"""Onboarding compiles each thing once.

Oracles for the ways the bootstrap stopped paying for compiles it does
not need: a span probe is skipped only where the real probe says "not a
member", one pass over the bootstrap days decides exactly what the two
walks (corpus, then off-policy training) decided, and a corpus day keeps
what evaluating every candidate would keep while evaluating none past its
quota.
"""

import dataclasses

import pytest

from repro import QOAdvisor, SimulationConfig
from repro.config import ExecutionConfig, ShardingConfig, WorkloadConfig
from repro.core.recommend import train_off_policy
from repro.core.spans import SpanComputer
from repro.errors import ScopeError, ValidationError
from repro.rng import keyed_rng
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.engine import OptimizationResult
from repro.scope.optimizer.rules.base import RuleCategory
from repro.workload.generator import build_workload

from tests.conftest import JOIN_AGG_SCRIPT

# -- a probe is compiled only for a rule that can bind -------------------------


class _EveryRuleBinds:
    """A compilation service whose results claim every rule can bind, so a
    ``SpanComputer`` over it probes all seven off-by-default rules."""

    def __init__(self, service) -> None:
        self._service = service
        self.engine = service.engine

    def compile_script(self, script, config):
        result = self._service.compile_script(script, config)
        return dataclasses.replace(result, bindable_mask=-1)


@pytest.mark.parametrize(
    "workload_config",
    [
        WorkloadConfig(),
        WorkloadConfig(num_templates=40, shared_subtree_fraction=0.7, shared_subtree_pool=3),
    ],
    ids=["default60", "shared40"],
)
def test_a_rule_that_cannot_bind_is_never_a_span_member(workload_config):
    config = SimulationConfig(workload=workload_config)
    workload = build_workload(config)
    engine = ScopeEngine(workload.catalog, config, workload.registry)
    service = engine.compilation.shards[0]
    default_config = engine.default_config
    off_by_default = engine.registry.ids_in_category(RuleCategory.OFF_BY_DEFAULT)
    assert len(off_by_default) == 7
    probes_everything = _EveryRuleBinds(service)
    skipped = 0
    for day in (0, 1):
        for script in dict.fromkeys(job.script for job in workload.jobs_for_day(day)):
            try:
                default = service.compile_script(script, default_config)
            except ScopeError:
                continue
            for rule_id in off_by_default:
                if default.bindable_mask >> rule_id & 1:
                    continue
                skipped += 1
                # the real probe: compiles, and the rule contributed nothing
                probe = service.compile_script(script, default_config.with_flip(rule_id))
                assert rule_id not in probe.signature, (script, rule_id)
            assert SpanComputer(engine).compute(script) == SpanComputer(engine).compute(
                script, probes_everything
            )
    assert skipped > 300  # about half of all (script, rule) pairs


def test_a_result_cannot_be_built_without_its_bindable_mask(engine):
    result = engine.compilation.shards[0].compile_script(
        JOIN_AGG_SCRIPT, engine.default_config
    )
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    del fields["bindable_mask"]
    with pytest.raises(TypeError):
        OptimizationResult(**fields)
    # Join, Aggregate present; no Sort in this script
    by_name = engine.registry.by_name
    assert result.bindable_mask >> by_name("LocalGlobalAggregation").rule_id & 1
    assert result.bindable_mask >> by_name("MergeJoinImpl").rule_id & 1
    assert not result.bindable_mask >> by_name("SortPushThroughProject").rule_id & 1


# -- one pass over the bootstrap days ---------------------------------------------


def _onboarded(advisor: QOAdvisor):
    model = advisor.pipeline.validation_model
    return (
        model.training_samples,
        model.model.intercept_,
        list(model.model.coef_),
        [(e.chosen, e.probability, e.reward) for e in advisor.policy.event_log],
        advisor.pipeline.spans._cache,
    )


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("workers", [1, 4])
def test_one_pass_bootstrap_decides_what_the_two_walks_decided(tiny_config, workers, shards):
    config = dataclasses.replace(
        tiny_config,
        execution=ExecutionConfig(workers=workers),
        sharding=ShardingConfig(shards=shards),
    )
    with QOAdvisor(config) as one_pass, QOAdvisor(config) as two_walks:
        one_pass.bootstrap(0, days=4)
        two_walks.pipeline.bootstrap_validation_model(0, days=4)
        train_off_policy(
            two_walks.engine,
            two_walks.workload,
            two_walks.pipeline.spans,
            two_walks.policy,
            range(0, 4),
        )
        assert _onboarded(one_pass) == _onboarded(two_walks)
        assert one_pass.policy.event_log  # not vacuous
        spent, reference = (
            advisor.engine.compilation.stats for advisor in (one_pass, two_walks)
        )
        assert spent.optimizer_invocations < reference.optimizer_invocations
        assert spent.script_compilations < reference.script_compilations


def _corpus_day(config, day: int, quota: int, monkeypatch):
    """``flight_corpus_day`` on a fresh advisor, plus every candidate it
    evaluated (``None`` where a job yielded no request)."""
    with QOAdvisor(config) as advisor:
        pipeline = advisor.pipeline
        evaluated = []
        original = pipeline._corpus_flip

        def recording(job, span, rng):
            evaluated.append(original(job, span, rng))
            return evaluated[-1]

        monkeypatch.setattr(pipeline, "_corpus_flip", recording)
        return pipeline.flight_corpus_day(day, quota), evaluated


def _every_candidate(config, day: int) -> list:
    """The day's candidates, every job with a span evaluated in order."""
    with QOAdvisor(config) as advisor:
        pipeline = advisor.pipeline
        candidates = []
        for job in advisor.workload.jobs_for_day(day):
            span = pipeline.spans.span_for_template(job.template_id, job.script)
            if span:
                rng = keyed_rng(config.seed, "bootstrap", day, job.job_id)
                candidates.append(pipeline._corpus_flip(job, span, rng))
        return candidates


def test_the_corpus_evaluates_no_candidate_once_its_quota_fills(tiny_config, monkeypatch):
    day, quota = 3, 3
    candidates = _every_candidate(tiny_config, day)
    kept = [request for request in candidates if request is not None][:quota]
    assert len(kept) == quota
    corpora = []
    for workers in (1, 4):
        config = dataclasses.replace(tiny_config, execution=ExecutionConfig(workers=workers))
        corpus, evaluated = _corpus_day(config, day, quota, monkeypatch)
        # the walk ends on the candidate that filled the quota
        assert evaluated[-1] is not None
        assert [request for request in evaluated if request is not None] == kept
        assert len(evaluated) < len(candidates)  # not vacuous: candidates were left
        flown = sorted((result.request for result in corpus), key=lambda r: r.job.job_id)
        assert flown == sorted(kept, key=lambda request: request.job.job_id)
        corpora.append(corpus)
    assert corpora[0] == corpora[1]


def test_zero_bootstrap_days_means_zero_not_the_default(tiny_config):
    """``days=0`` used to fall through ``days or default`` into 14 days."""
    with QOAdvisor(tiny_config) as advisor:
        with pytest.raises(ValidationError, match="got 0"):
            advisor.pipeline.bootstrap_validation_model(0, days=0)
        with pytest.raises(ValidationError, match="got 0"):
            advisor.bootstrap(0, days=0)
        assert advisor.engine.compilation.stats.optimizer_invocations == 0
        assert not advisor.policy.event_log
