"""A/A variance study (paper §5.1, Figures 3 and 5).

Run every job N times under identical configuration and measure the
coefficient of variation of latency and PNhours.  The paper's findings:
>90 % of jobs exceed 5 % latency variance (some exceed 100 %), while more
than half stay under 5 % PNhours variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ScopeError
from repro.ml.stats import coefficient_of_variation
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance

__all__ = ["AAVarianceStudy", "run_aa_variance_study"]


@dataclass
class AAVarianceStudy:
    """Per-job A/A coefficients of variation."""

    latency_cv: list[float] = field(default_factory=list)
    pnhours_cv: list[float] = field(default_factory=list)
    #: mean latency per job, for the x-axis of Figures 3/5 (normalized)
    mean_latency: list[float] = field(default_factory=list)
    runs_per_job: int = 0

    def fraction_above(self, threshold: float, metric: str = "latency") -> float:
        values = self.latency_cv if metric == "latency" else self.pnhours_cv
        if not values:
            return 0.0
        return float(np.mean(np.asarray(values) > threshold))


def run_aa_variance_study(
    engine: ScopeEngine,
    jobs: list[JobInstance],
    runs: int = 10,
    max_jobs: int | None = None,
) -> AAVarianceStudy:
    """Execute each job ``runs`` times with the default plan."""
    study = AAVarianceStudy(runs_per_job=runs)
    for job in jobs[: max_jobs or len(jobs)]:
        # per-job epoch barrier keeps the plan-cache capacity bound live
        # for this standalone serial loop
        engine.compilation.checkpoint()
        try:
            result = engine.compile_job(job, use_hints=False)
        except ScopeError:
            continue
        metrics = [engine.execute(result, ("aa", job.job_id, i)) for i in range(runs)]
        latencies = [m.latency_s for m in metrics]
        pnhours = [m.pnhours for m in metrics]
        study.latency_cv.append(coefficient_of_variation(latencies))
        study.pnhours_cv.append(coefficient_of_variation(pnhours))
        study.mean_latency.append(float(np.mean(latencies)))
    return study
