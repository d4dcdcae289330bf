"""Metrics registry with Prometheus-style text exposition.

Every metric is a **view**: a name, a help line, a kind and a callback
registered with :meth:`MetricsRegistry.register_view` that the registry
*pulls* at collect time.  This is how `CacheStats`, stage timings, queue
depths, serving lane counters, finished spans and the policy
name/version reach the exposition without adding a single instruction
to the paths that maintain them: the sources of truth stay where they
are, the registry reads them only when someone asks.  A sample carries
its own label set (``{"shard": "0"}``, ``{"stage": "recompile"}``, …),
so one view may yield many series.

The registry never feeds back into simulation state — metrics are
observational only, so `DayReport.fingerprint()` / `CacheStats.core()`
cannot move no matter what is registered.  A disabled registry
(:class:`NullMetricsRegistry`) ignores registrations and exposes
nothing, so call sites keep a single unconditional shape.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping

__all__ = [
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Sample",
]


class Sample:
    """One exposition sample: a metric name, a label set, and a value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Mapping[str, str], value: float) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = value

    def render(self) -> str:
        if self.labels:
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in sorted(self.labels.items())
            )
            return f"{self.name}{{{body}}} {_format_value(self.value)}"
        return f"{self.name} {_format_value(self.value)}"

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return f"Sample({self.render()!r})"


def _escape_label(value: object) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


class _View:
    """A pull-mode metric: name/help/kind plus a sample-producing callback."""

    __slots__ = ("name", "help", "kind", "callback")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        callback: Callable[[], Iterable[Sample]],
    ) -> None:
        self.name = name
        self.help = help
        self.kind = kind
        self.callback = callback


class MetricsRegistry:
    """Thread-safe home for pull-mode views."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._views: dict[str, _View] = {}

    def register_view(
        self,
        name: str,
        callback: Callable[[], Iterable[Sample]],
        help: str = "",
        kind: str = "gauge",
    ) -> None:
        """Register (or replace) a view: ``callback`` is invoked at collect
        time and yields the samples.  Re-registration under the same name
        replaces the previous callback, so components that are rebuilt
        (a recovered or rebuilt server) stay idempotent."""
        with self._lock:
            self._views[name] = _View(name, help, kind, callback)

    def collect(self) -> dict[str, list[Sample]]:
        """All current samples, keyed by view name."""
        with self._lock:
            views = list(self._views.values())
        out: dict[str, list[Sample]] = {}
        for view in views:
            try:
                out[view.name] = list(view.callback())
            except Exception:
                # a view must never take the exposition down with it
                out[view.name] = []
        return out

    def exposition(self) -> str:
        """Prometheus text format: ``# HELP`` / ``# TYPE`` headers + samples."""
        with self._lock:
            meta = {view.name: (view.help, view.kind) for view in self._views.values()}
        samples = self.collect()
        lines: list[str] = []
        for name in sorted(samples):
            help_text, kind = meta.get(name, ("", "untyped"))
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in samples[name]:
                lines.append(sample.render())
        return "\n".join(lines) + ("\n" if lines else "")


class NullMetricsRegistry:
    """Disabled registry: registrations vanish, nothing is exposed."""

    enabled = False

    def register_view(self, name, callback, help="", kind="gauge") -> None:
        return None

    def collect(self) -> dict:
        return {}

    def exposition(self) -> str:
        return ""


NULL_REGISTRY = NullMetricsRegistry()
