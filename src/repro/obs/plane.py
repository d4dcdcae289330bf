"""The assembled observability plane: tracer + metrics registry.

:class:`ObservabilityPlane` is the single object the rest of the system
wires against.  Built from :class:`~repro.config.ObsConfig`; when
disabled it degrades to the shared null components so every
instrumentation site stays one ``enabled`` check away from free.

The plane is pull-only.  A finished span goes to its sinks — the
in-memory ring, plus a JSONL file when ``trace_jsonl_path`` is set — and
nowhere else; every metric is a view read at exposition time.  The
plane's own view, ``repro_spans_finished_total{name=}``, reads the
ring's per-name tally.  ``install_advisor_views`` re-homes the batch
pipeline's existing signals the same way — the cache counters, the last
day's stage spans, and policy identity are *read* at exposition time,
never duplicated on the hot path.  The serving server registers its own views
(lane counters, queue depths, lane latency) in
:meth:`repro.serving.server.QOAdvisorServer` because their sources of
truth live there.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from .metrics import NULL_REGISTRY, MetricsRegistry, Sample
from .trace import NULL_TRACER, JsonlSink, RingSink, Tracer, TraceSink

if TYPE_CHECKING:  # pragma: no cover
    from ..config import ObsConfig
    from ..core.advisor import QOAdvisor

__all__ = ["ObservabilityPlane", "NULL_PLANE", "install_advisor_views"]

#: capacity of the in-memory ring of most-recent finished spans
_TRACE_RING_SIZE = 4096


class ObservabilityPlane:
    """One tracer and one metrics registry — or their nulls."""

    def __init__(self, config: "ObsConfig | None" = None) -> None:
        from ..config import ObsConfig  # late: config imports stay one-way

        self.config = config or ObsConfig()
        self.enabled = bool(self.config.enabled)
        self.ring: RingSink | None = None
        self.jsonl: JsonlSink | None = None
        if self.enabled:
            ring = self.ring = RingSink(_TRACE_RING_SIZE)
            sinks: list[TraceSink] = [ring]
            if self.config.trace_jsonl_path:
                self.jsonl = JsonlSink(self.config.trace_jsonl_path)
                sinks.append(self.jsonl)
            self.tracer = Tracer(sinks)
            self.metrics = MetricsRegistry()
            self.metrics.register_view(
                "repro_spans_finished_total",
                lambda: [
                    Sample("repro_spans_finished_total", {"name": name}, count)
                    for name, count in sorted(ring.finished_by_name().items())
                ],
                help="trace spans closed, by span name",
                kind="counter",
            )
        else:
            self.tracer = NULL_TRACER
            self.metrics = NULL_REGISTRY

    def install(self, advisor: "QOAdvisor") -> None:
        """Wire the batch advisor's existing signals up as registry views."""
        if self.enabled:
            install_advisor_views(self.metrics, advisor)

    def close(self) -> None:
        if self.enabled:
            self.tracer.close()


def install_advisor_views(registry: MetricsRegistry, advisor: "QOAdvisor") -> None:
    """Register pull-mode views over the advisor's pipeline/cache/policy.

    All callbacks read live state at collect time; re-registration (same
    names) replaces earlier callbacks, so rebuilding an advisor against
    the same registry stays idempotent.
    """

    def cache_samples():
        samples = []
        per_shard = advisor.engine.compilation.per_shard_stats()
        for shard, stats in sorted(per_shard.items()):
            labels = {"shard": str(shard)}
            for f in dataclasses.fields(type(stats)):
                samples.append(
                    Sample(
                        f"repro_cache_{f.name}_total",
                        labels,
                        getattr(stats, f.name),
                    )
                )
        return samples

    registry.register_view(
        "repro_cache",
        cache_samples,
        help="compilation-service cache counters, per shard",
        kind="counter",
    )

    def stage_samples():
        # the ring holds spans in finish order and a root finishes after
        # its stages: the last "day" or "window" root, then its
        # "stage:<name>" children.  A stage that did not run has no span,
        # so no sample (unmeasured is absent, never 0.0)
        spans = advisor.obs.ring.spans()
        root = next(
            (
                s
                for s in reversed(spans)
                if s.parent_id is None and s.name in ("day", "window")
            ),
            None,
        )
        if root is None:
            return []
        return sorted(
            (
                Sample(
                    "repro_stage_seconds",
                    {"stage": s.name.removeprefix("stage:")},
                    s.duration_s,
                )
                for s in spans
                if s.parent_id == root.span_id and s.name.startswith("stage:")
            ),
            key=lambda sample: sample.labels["stage"],
        )

    registry.register_view(
        "repro_stage_seconds",
        stage_samples,
        help="duration of each stage span of the last finished day or window",
        kind="gauge",
    )

    def policy_samples():
        info = advisor.policy.telemetry()
        labels = {k: str(v) for k, v in sorted(info.items())}
        return [Sample("repro_policy_info", labels, 1.0)]

    registry.register_view(
        "repro_policy_info",
        policy_samples,
        help="active steering policy identity (value is always 1)",
        kind="gauge",
    )

    def hint_samples():
        return [
            Sample("repro_hint_version", {}, advisor.sis.current_version),
        ]

    registry.register_view(
        "repro_hint_version",
        hint_samples,
        help="current published SIS hint version",
        kind="gauge",
    )


#: shared disabled plane — the default wiring before an advisor installs one
NULL_PLANE = ObservabilityPlane()
