"""The metrics the ledger declares: name, unit, which direction is better.

``BENCHMARK.json`` at the repository root lists the same metrics in the
same order (``test_ledger.py`` holds the two together); README.md says what
each one measures and which end-to-end metric each layer row should move.

End-to-end metrics are the ones defined on all four workloads: the
contract this benchmark is run under prints every end-to-end metric on
every workload and forbids zeros, so the serving-only numbers (steer
latency, serving throughput, window wall, recovery rate) are per-layer rows
here even though a serving user sees them — see README.md, "What moved".
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Metric", "END_TO_END", "PER_LAYER"]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    #: share of the parent's median by which an end-to-end metric may worsen
    bound: float | None = None


END_TO_END = [
    Metric("setup_s", "s", bound=0.25),
    Metric("wall_s", "s", bound=0.25),
    Metric("peak_rss_mb", "MB", bound=0.25),
    Metric("optimizer_invocations", "count", bound=0.10),
]


def _rows(*rows: tuple) -> list[Metric]:
    return [Metric(*row) for row in rows]


PER_LAYER = _rows(
    ("workload.jobs_for_day_ms", "ms"),
    ("workload.jobs", "count", "higher"),
    ("scope.language.parse_bind_ms", "ms"),
    ("scope.language.scripts", "count"),
    ("scope.compile.compile_ms", "ms"),
    ("scope.optimizer.fragments.digest_ms", "ms"),
    ("scope.optimizer.engine.optimize_ms", "ms"),
    ("scope.optimizer.engine.invocations", "count"),
    ("scope.optimizer.engine.rule_applications", "count"),
    ("scope.optimizer.engine.us_per_rule_application", "us"),
    ("scope.optimizer.engine.explore_fragment_ms", "ms"),
    ("scope.optimizer.mqo.preexplore_ms", "ms"),
    ("scope.optimizer.mqo.preexplored", "count"),
    ("scope.cache.service_self_ms", "ms"),
    ("scope.cache.plan_hit_rate", "ratio", "higher"),
    ("scope.cache.fragment_hit_rate", "ratio", "higher"),
    ("scope.cache.winner_hit_rate", "ratio", "higher"),
    ("scope.cache.checkpoint_ms", "ms"),
    ("scope.cache.evictions", "count"),
    ("scope.cache.invalidations", "count"),
    ("scope.runtime.execute_ms", "ms"),
    ("scope.runtime.executions", "count", "higher"),
    ("core.spans.span_ms", "ms"),
    ("core.spans.probe_compiles", "count"),
    ("core.spans.templates", "count"),
    ("core.pipeline.production_ms", "ms"),
    ("core.pipeline.features_ms", "ms"),
    ("core.pipeline.recommend_ms", "ms"),
    ("core.pipeline.recompile_ms", "ms"),
    ("core.pipeline.flight_ms", "ms"),
    ("core.pipeline.validate_ms", "ms"),
    ("core.pipeline.hintgen_ms", "ms"),
    ("core.pipeline.day_p50_ms", "ms"),
    ("policies.rank_us_per_call", "us"),
    ("policies.observe_ms", "ms"),
    ("core.recommend.train_off_policy_ms", "ms"),
    ("core.recompile.flips_evaluated", "count"),
    ("core.recompile.kept_ratio", "ratio", "higher"),
    ("flighting.run_queue_ms", "ms"),
    ("flighting.flights", "count"),
    ("flighting.success_ratio", "ratio", "higher"),
    ("core.validate.fit_ms", "ms"),
    ("core.validate.accept_ratio", "ratio", "higher"),
    ("sis.upload_ms", "ms"),
    ("sis.hints_published", "count", "higher"),
    ("parallel.map_jobs_ms", "ms"),
    ("parallel.item_busy_ms", "ms"),
    ("parallel.fanout_wait_ms", "ms"),
    ("sharding.shard_for_us_per_call", "us"),
    ("sharding.imbalance", "ratio"),
    ("sharding.fleet_vs_serial_ratio", "ratio"),
    ("serving.server.submit_us_per_job", "us"),
    ("serving.server.steer_ms", "ms"),
    ("serving.server.execute_ms", "ms"),
    ("serving.server.drain_wait_ms", "ms"),
    ("serving.server.recover_ms", "ms"),
    ("serving.server.recover_vs_live_ratio", "ratio"),
    ("serving.server.steer_p50_ms", "ms"),
    ("serving.server.steer_p95_ms", "ms"),
    ("serving.server.jobs_per_s", "1/s", "higher"),
    ("serving.queues.wait_p50_ms", "ms"),
    ("serving.queues.max_depth", "count"),
    ("serving.maintenance.run_window_ms", "ms"),
    ("serving.maintenance.jobs_per_window", "count", "higher"),
    ("serving.maintenance.window_p50_ms", "ms"),
    ("serving.journal.append_us_per_record", "us"),
    ("serving.journal.records", "count"),
    ("serving.journal.bytes", "B"),
    ("serving.journal.read_ms", "ms"),
    ("serving.journal.recover_records_per_s", "1/s", "higher"),
    ("obs.tax_pct", "%"),
    ("obs.spans", "count"),
    ("gc.pause_ms", "ms"),
    ("gc.pause_share", "ratio"),
    ("gc.gen2_collections", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.wrapper_cost_pct", "%"),
    ("trace.spans", "count"),
    ("proc.cpu_s", "s"),
    ("proc.py_calls", "count"),
    ("proc.setup_s", "s"),
)
