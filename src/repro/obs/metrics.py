"""Labeled metrics registry with Prometheus-style text exposition.

Three instrument kinds — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — each a *family* keyed by a fixed label-name tuple
(``("shard",)``, ``("stage",)``, …; tenant labels slot in the same way
when multi-tenancy lands).  ``family.labels(shard="0")`` returns the
per-label-set child, which is the hot-path handle: one dict lookup plus
one locked add.

Two complementary acquisition modes:

* **push instruments** — code calls ``counter.inc()`` / ``hist.observe()``
  on its own clock; used for genuinely new signals (spans/sec, bus
  drops);
* **views** — the registry *pulls* existing counters at collect time via
  registered callbacks (:meth:`MetricsRegistry.register_view`).  This is
  how `CacheStats`, stage timings, queue depths, SLO defer/shed counts
  and the policy name/version are re-homed onto the registry without
  adding a single instruction to the paths that maintain them: the
  sources of truth stay where they are, the registry reads them only
  when someone asks for an exposition.

The registry never feeds back into simulation state — metrics are
observational only, so `DayReport.fingerprint()` / `CacheStats.core()`
cannot move no matter what is registered.  A disabled registry
(:class:`NullMetricsRegistry`) hands out shared no-op instruments so
call sites keep a single unconditional shape.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "Sample",
]

# Default histogram buckets: latency-shaped, seconds.  Chosen to straddle
# the repo's simulated compile times (~1e-4 s) through window walls (~1 s).
DEFAULT_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
)


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


class _Family:
    """Shared machinery: a metric family mapping label sets to children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self) -> object:  # pragma: no cover — interface
        raise NotImplementedError

    def labels(self, **labels: object) -> object:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)  # qa: unlocked-ok double-checked fast path; miss re-verifies under the lock below
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    def _items(self) -> list[tuple[dict[str, str], object]]:
        with self._lock:
            pairs = list(self._children.items())
        return [(dict(zip(self.label_names, key)), child) for key, child in pairs]

    def collect(self) -> list[Sample]:  # pragma: no cover — interface
        raise NotImplementedError


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value  # qa: unlocked-ok GIL-atomic float read; telemetry scrape tolerates a stale sample


class Counter(_Family):
    """Monotonically increasing count, per label set."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Label-free shortcut (raises if the family declares labels)."""
        self.labels().inc(amount)

    def collect(self) -> list[Sample]:
        return [
            Sample(self.name, labels, child.value)
            for labels, child in self._items()
        ]


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value  # qa: unlocked-ok GIL-atomic float read; telemetry scrape tolerates a stale sample


class Gauge(_Family):
    """Point-in-time value (queue depth, hint version), per label set."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        """Label-free shortcut (raises if the family declares labels)."""
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def collect(self) -> list[Sample]:
        return [
            Sample(self.name, labels, child.value)
            for labels, child in self._items()
        ]


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        idx = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> tuple[list[int], float, int]:
        with self._lock:
            return list(self._counts), self._sum, self._count


class Histogram(_Family):
    """Cumulative-bucket histogram (Prometheus semantics), per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        """Label-free shortcut (raises if the family declares labels)."""
        self.labels().observe(value)

    def collect(self) -> list[Sample]:
        samples: list[Sample] = []
        for labels, child in self._items():
            counts, total, count = child.snapshot()
            cumulative = 0
            for bound, n in zip(self.buckets, counts):
                cumulative += n
                samples.append(
                    Sample(
                        f"{self.name}_bucket",
                        {**labels, "le": _format_value(bound)},
                        cumulative,
                    )
                )
            cumulative += counts[-1]
            samples.append(
                Sample(f"{self.name}_bucket", {**labels, "le": "+Inf"}, cumulative)
            )
            samples.append(Sample(f"{self.name}_sum", labels, total))
            samples.append(Sample(f"{self.name}_count", labels, count))
        return samples


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
    """Thread-safe home for instrument families and pull-mode views."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._views: dict[str, _View] = {}

    # -- push instruments -----------------------------------------------------

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._family(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Histogram(name, help, labels, buckets)
                self._families[name] = family
            elif not isinstance(family, Histogram):
                raise ValueError(f"metric {name!r} already registered as {family.kind}")
            elif family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}"
                )
            return family

    def _family(self, cls, name: str, help: str, labels: Sequence[str]):
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = cls(name, help, labels)
                self._families[name] = family
            elif type(family) is not cls:
                raise ValueError(f"metric {name!r} already registered as {family.kind}")
            elif family.label_names != tuple(labels):
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{family.label_names}"
                )
            return family

    # -- pull-mode views ------------------------------------------------------

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
        (a recovered server, a resized cluster) stay idempotent."""
        with self._lock:
            self._views[name] = _View(name, help, kind, callback)

    # -- collection / exposition ----------------------------------------------

    def collect(self) -> dict[str, list[Sample]]:
        """All current samples, keyed by metric (family or view) name."""
        with self._lock:
            families = list(self._families.values())
            views = list(self._views.values())
        out: dict[str, list[Sample]] = {}
        for family in families:
            out[family.name] = family.collect()
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
            families = list(self._families.values())
            views = list(self._views.values())
        meta: dict[str, tuple[str, str]] = {}
        for family in families:
            meta[family.name] = (family.help, family.kind)
        for view in views:
            meta[view.name] = (view.help, view.kind)
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


class _NullInstrument:
    """Shared no-op counter/gauge/histogram child + family."""

    __slots__ = ()

    def labels(self, **labels: object) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    @property
    def value(self) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Disabled registry: hands out shared no-op instruments."""

    enabled = False

    def counter(self, name, help="", labels=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name, help="", labels=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name, help="", labels=(), buckets=()) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def register_view(self, name, callback, help="", kind="gauge") -> None:
        return None

    def collect(self) -> dict:
        return {}

    def exposition(self) -> str:
        return ""


NULL_REGISTRY = NullMetricsRegistry()
