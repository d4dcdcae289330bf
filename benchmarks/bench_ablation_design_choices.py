"""Design-choice ablations (paper sections cited per item).

* validation-threshold sweep (§4.3: the threshold trades safety for reach);
* single-flip vs multi-flip configurations (§8: future work considers
  multi-flips; single flips were chosen for explainability, not peak gain);
* reward clipping at 2.0 (§4.2: unclipped ratios skew the model).
"""

import numpy as np
import pytest

from repro.analysis.report import ComparisonRow
from repro.core.baselines import Sigmod21Heuristic
from repro.core.spans import SpanComputer
from repro.core.validate import ValidationModel
from repro.flighting.service import FlightingService
from repro.rng import keyed_rng

from benchmarks.conftest import record


def test_validation_threshold_sweep(benchmark, advisor, flight_corpus):
    model = advisor.pipeline.validation_model
    usable = ValidationModel.usable(flight_corpus)
    rows = []
    for threshold in (-0.2, -0.1, -0.05, 0.0):
        selected = [r for r in usable if model.predict(r) < threshold]
        if selected:
            safe = float(np.mean([r.pnhours_delta < 0 for r in selected]))
        else:
            safe = float("nan")
        rows.append(
            ComparisonRow(
                f"threshold {threshold:+.2f}",
                "stricter ⇒ fewer, safer hints",
                f"{len(selected)} accepted, {safe:.0%} truly improve"
                if selected
                else "0 accepted",
            )
        )
    record("Ablation — validation threshold sweep", rows)
    benchmark(lambda: [model.predict(r) for r in usable[:20]])


def test_single_vs_multi_flip(benchmark, advisor):
    """The [29] multi-flip search finds more but costs far more compute."""
    engine = advisor.engine
    spans = SpanComputer(engine)
    flighting = FlightingService(engine, advisor.config.flighting)
    heuristic = Sigmod21Heuristic(
        engine, flighting, keyed_rng(3, "s21"), samples=60, flights=3
    )
    jobs = [
        job
        for job in advisor.workload.jobs_for_day(4)
        if spans.span_for_template(job.template_id, job.script)
    ][:6]
    outcomes = [
        heuristic.optimize_job(job, spans.span_for_template(job.template_id, job.script), 4)
        for job in jobs
    ]
    recompiles = sum(o.recompiled for o in outcomes)
    improved = sum(1 for o in outcomes if o.best_config is not None)
    record(
        "Ablation — single flip (QO-Advisor) vs multi-flip search [29]",
        [
            ComparisonRow(
                "recompiles per job, multi-flip search", "1000 samples",
                f"{recompiles / len(outcomes):.0f} (scaled-down run)",
            ),
            ComparisonRow(
                "recompiles per job, QO-Advisor", "2 (default + flip)", "2",
            ),
            ComparisonRow(
                "multi-flip jobs improved (runtime)", "higher reach, harder to debug",
                f"{improved}/{len(outcomes)}",
            ),
        ],
    )
    assert recompiles > 2 * len(outcomes)
    benchmark(lambda: sum(o.sampled for o in outcomes))


def test_reward_clipping(benchmark, advisor):
    """Cost ratios beyond the 2.0 clip exist and would dominate learning."""
    from repro.core.spans import SpanComputer
    from repro.errors import ScopeError
    from repro.scope.optimizer.rules.base import RuleFlip

    engine = advisor.engine
    spans = SpanComputer(engine)
    ratios = []
    for job in advisor.workload.jobs_for_day(5)[:25]:
        span = spans.span_for_template(job.template_id, job.script)
        if not span:
            continue
        compiled = engine.compile(job.script)
        default_cost = engine.optimize(compiled).est_cost
        for rule_id in sorted(span):
            flip = RuleFlip(rule_id, not engine.default_config.is_enabled(rule_id))
            try:
                cost = engine.optimize(
                    compiled, flip.apply_to(engine.default_config)
                ).est_cost
            except ScopeError:
                continue
            if cost > 0:
                ratios.append(default_cost / cost)
    ratios = np.array(ratios)
    clipped = float(np.mean(ratios > 2.0)) if ratios.size else 0.0
    spread = float(ratios.max() / max(ratios.min(), 1e-9)) if ratios.size else 0.0
    record(
        "Ablation — reward clipping at 2.0 (§4.2)",
        [
            ComparisonRow(
                "rewards above the clip", "exist (extreme dynamic range)",
                f"{clipped:.1%} of flips", holds=None,
            ),
            ComparisonRow(
                "unclipped reward dynamic range", "orders of magnitude",
                f"{spread:.1e}×", holds=spread > 100,
            ),
        ],
    )
    assert ratios.size > 20
    benchmark(lambda: np.clip(ratios, None, 2.0).mean())
