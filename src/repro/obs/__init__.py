"""Unified observability plane: tracing and pull-mode metrics.

Two legs, one constraint:

* :mod:`~repro.obs.trace` — hierarchical spans per job/day/window,
  exported to pluggable sinks (the in-memory ring, append-only JSONL);
* :mod:`~repro.obs.metrics` — a registry of pull-mode *views* over the
  system's existing counters, exposed in Prometheus text format.

Nothing is pushed: operators read the ring, the JSONL file or the
exposition after the fact.

The constraint: instrumentation is counter-free and fingerprint-free.
`DayReport.fingerprint()` and `CacheStats.core()` are byte-identical
with observability on, off, sharded, and threaded, and the disabled
plane (`ObsConfig(enabled=False)`, the default) costs one attribute
check per site.
"""

from .metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullMetricsRegistry,
    Sample,
)
from .plane import NULL_PLANE, ObservabilityPlane, install_advisor_views
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    RingSink,
    Span,
    Tracer,
    TraceSink,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "TraceSink",
    "RingSink",
    "JsonlSink",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Sample",
    "ObservabilityPlane",
    "NULL_PLANE",
    "install_advisor_views",
]
