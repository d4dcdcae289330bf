"""End-to-end deployment experiment (paper §5.4–§5.5: Table 2, Figs 10-12).

After the QO-Advisor loop (bootstrap → daily pipeline → SIS hints) has
deployed hints, measures on a fresh day every job whose template carries a
hint: the hinted plan versus the default plan.  Reports the aggregate
reductions of Table 2 and the per-job delta distributions of Figures 10-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.advisor import QOAdvisor
from repro.errors import ScopeError
from repro.scope.runtime.metrics import relative_delta

__all__ = ["DeploymentResult", "measure_hinted_day"]


def _mean_metrics(runs):
    """Average metrics over repeated executions of the same plan."""
    from repro.scope.runtime.metrics import JobMetrics

    return JobMetrics(
        latency_s=float(np.mean([m.latency_s for m in runs])),
        pnhours=float(np.mean([m.pnhours for m in runs])),
        vertices=runs[0].vertices,
        data_read=runs[0].data_read,
        data_written=runs[0].data_written,
        max_memory=runs[0].max_memory,
        avg_memory=runs[0].avg_memory,
        cpu_seconds=float(np.mean([m.cpu_seconds for m in runs])),
        io_seconds=float(np.mean([m.io_seconds for m in runs])),
    )


@dataclass
class DeploymentResult:
    """Hinted-vs-default comparison over all hint-matched jobs of one day."""

    matched_jobs: int = 0
    pnhours_deltas: list[float] = field(default_factory=list)
    latency_deltas: list[float] = field(default_factory=list)
    vertices_deltas: list[float] = field(default_factory=list)
    total_pnhours_default: float = 0.0
    total_pnhours_hinted: float = 0.0
    total_latency_default: float = 0.0
    total_latency_hinted: float = 0.0
    total_vertices_default: float = 0.0
    total_vertices_hinted: float = 0.0
    active_hints: int = 0

    # Table 2 rows ---------------------------------------------------------

    @property
    def pnhours_reduction(self) -> float:
        return relative_delta(self.total_pnhours_hinted, self.total_pnhours_default)

    @property
    def latency_reduction(self) -> float:
        return relative_delta(self.total_latency_hinted, self.total_latency_default)

    @property
    def vertices_reduction(self) -> float:
        return relative_delta(self.total_vertices_hinted, self.total_vertices_default)

    # Figures 10-12 --------------------------------------------------------------

    def improved_fraction(self, metric: str = "pnhours") -> float:
        deltas = getattr(self, f"{metric}_deltas")
        if not deltas:
            return 0.0
        return float(np.mean(np.asarray(deltas) < 0.0))

    def worst_delta(self, metric: str = "pnhours") -> float:
        deltas = getattr(self, f"{metric}_deltas")
        return max(deltas) if deltas else 0.0

    def best_delta(self, metric: str = "pnhours") -> float:
        deltas = getattr(self, f"{metric}_deltas")
        return min(deltas) if deltas else 0.0


def measure_hinted_day(advisor: QOAdvisor, day: int) -> DeploymentResult:
    """Compare hinted vs default for every hint-matched job on ``day``."""
    engine = advisor.engine
    hints = advisor.sis.active_hints()
    result = DeploymentResult(active_hints=len(hints))
    jobs = advisor.workload.jobs_for_day(day)
    for job in jobs:
        # per-job epoch barrier keeps the plan-cache capacity bound live
        # outside the pipeline's own stage checkpoints
        engine.compilation.checkpoint()
        flip = hints.get(job.template_id)
        if flip is None:
            continue
        try:
            default_plan = engine.compile_job(job, use_hints=False)
            hinted_plan = engine.compile_job(job, flip, use_hints=False)
        except ScopeError:
            continue
        # average a few runs per arm: the paper measures 70 jobs, we match
        # far fewer templates, so per-job cloud noise would dominate totals
        base = _mean_metrics(
            [engine.execute(default_plan, ("t2a", job.job_id, i)) for i in range(3)]
        )
        treat = _mean_metrics(
            [engine.execute(hinted_plan, ("t2b", job.job_id, i)) for i in range(3)]
        )
        result.matched_jobs += 1
        result.pnhours_deltas.append(relative_delta(treat.pnhours, base.pnhours))
        result.latency_deltas.append(relative_delta(treat.latency_s, base.latency_s))
        result.vertices_deltas.append(relative_delta(treat.vertices, base.vertices))
        result.total_pnhours_default += base.pnhours
        result.total_pnhours_hinted += treat.pnhours
        result.total_latency_default += base.latency_s
        result.total_latency_hinted += treat.latency_s
        result.total_vertices_default += base.vertices
        result.total_vertices_hinted += treat.vertices
    return result
