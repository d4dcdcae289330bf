"""§2.1/§5.6 workload facts: span sizes, steerable fraction, manual hints."""

import numpy as np
import pytest

from repro.analysis.report import ComparisonRow
from repro.core.spans import SpanComputer

from benchmarks.conftest import record


def test_span_statistics(benchmark, advisor, day0_jobs):
    engine = advisor.engine
    spans = SpanComputer(engine)
    sizes = []
    empty = 0
    for job in day0_jobs:
        span = spans.span_for_template(job.template_id, job.script)
        if span:
            sizes.append(len(span))
        else:
            empty += 1
    non_empty_fraction = 1 - empty / len(day0_jobs)
    mean_span = float(np.mean(sizes)) if sizes else 0.0
    manual = sum(1 for j in day0_jobs if j.manual_hint is not None) / len(day0_jobs)
    record(
        "§2.1 / §5.6 — workload and span statistics",
        [
            ComparisonRow(
                "jobs with non-empty span", "≈66 %", f"{non_empty_fraction:.0%}",
                holds=0.45 < non_empty_fraction < 0.9,
            ),
            ComparisonRow(
                "mean span size", "≈10, long tail", f"{mean_span:.1f} (max {max(sizes)})",
                holds=3 < mean_span < 20,
            ),
            ComparisonRow(
                "jobs with manual hints", "≤9 %", f"{manual:.0%}", holds=manual <= 0.2
            ),
            ComparisonRow(
                "rules in our optimizer", "256 in SCOPE", str(len(engine.registry))
            ),
        ],
    )
    assert 0.4 < non_empty_fraction < 0.95
    assert sizes

    job = next(j for j in day0_jobs if spans.span_for_template(j.template_id, j.script))
    fresh = SpanComputer(engine)
    owner = engine.compilation.service_for(job.template_id)
    benchmark.pedantic(lambda: fresh.compute(job.script, owner), rounds=2, iterations=1)
