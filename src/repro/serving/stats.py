"""Per-shard health metrics for the serving layer.

Every :class:`~repro.serving.server.QOAdvisorServer` keeps live counters
per shard lane; :meth:`QOAdvisorServer.stats` snapshots them into the
immutable :class:`ServerStats`/:class:`ShardStats` pair this module
defines.  The metrics mirror what an operator of the production service
would watch: queue depth (backpressure), steer rate (how much of the
stream compiles under an SIS hint), compile latency percentiles (the cost
of steering on the arrival path), and hint version skew (how far behind
the latest publication a shard's most recent compile was).

Metrics that have not been measured are ``None``, never a fabricated
zero: a lane that steered nothing reports ``compile_p50_s is None`` (not
"0 ms", which would read as infinitely fast), and a lane that has never
compiled reports ``hint_version_skew is None`` (not 0, which would read
as fully caught up, nor the current version, which would read as
maximally behind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "CACHE_FIELDS", "LANE_COUNTERS", "ShardStats", "ServerStats", "job_totals",
    "percentile",
]

#: The serving layer's accounting vocabulary, declared once: a live lane
#: keeps one integer per name, and both stats surfaces — :class:`ShardStats`
#: and the ``repro_serving_<name>_total`` metric view, a projection of it —
#: are built from that container (each name is documented on its field
#: below).
LANE_COUNTERS = ("submitted", "completed", "failed", "steered")

#: The :class:`~repro.scope.cache.CacheStats` fields a lane's snapshot
#: copies from its compilation service (same names on both sides).
CACHE_FIELDS = (
    "fragment_hits", "fragment_misses", "fragment_inserts", "mqo_preexplored",
)


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile of ``samples``; ``None`` when unmeasured.

    The value at 1-based rank ``ceil(q · n / 100)`` of the sorted sample,
    with ``q = 0`` giving the minimum.  An empty sample has no percentile —
    returning 0.0 would report an idle shard as infinitely fast.  A
    singleton sample reports its single observation at every rank.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered) / 100)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class ShardStats:
    """One shard lane's health snapshot."""

    shard: int
    #: tickets currently waiting in the shard's queue
    queue_depth: int = 0
    #: high-water mark of the queue depth since the server started
    max_queue_depth: int = 0
    #: tickets ever admitted onto this shard's lane
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: completed jobs that compiled under an active SIS hint
    steered: int = 0
    #: compile wall-clock percentiles over the lane's completed jobs;
    #: None until the lane has at least one sample
    compile_p50_s: float | None = None
    compile_p95_s: float | None = None
    compile_p99_s: float | None = None
    #: lifetime compile observations (the percentiles above summarize only
    #: the lane's bounded recent window; this is how much history exists)
    compile_observations: int = 0
    #: SIS hint-file version of the lane's most recent compile (None: none yet)
    last_hint_version: int | None = None
    #: current SIS version minus ``last_hint_version`` — a lane serving
    #: long-queued work shows positive skew right after a publication.
    #: None for a lane that has not compiled anything yet (an idle lane has
    #: no skew to report)
    hint_version_skew: int | None = None
    #: cumulative fragment-store counters of the lane's compilation
    #: service (sub-plan reuse across templates); work telemetry, so —
    #: like the per-shard cache stats — excluded from day fingerprints
    fragment_hits: int = 0
    fragment_misses: int = 0
    fragment_inserts: int = 0
    #: batch-MQO pre-exploration counter of the lane's compilation
    #: service — work telemetry like the fragment trio
    mqo_preexplored: int = 0

    @property
    def fragment_hit_rate(self) -> float:
        lookups = self.fragment_hits + self.fragment_misses
        return self.fragment_hits / lookups if lookups else 0.0

    @property
    def processed(self) -> int:
        return self.completed + self.failed

    @property
    def steer_rate(self) -> float:
        return self.steered / self.completed if self.completed else 0.0


@dataclass(frozen=True)
class ServerStats:
    """Whole-server snapshot: per-shard lanes plus stream-level totals."""

    shards: list[ShardStats] = field(default_factory=list)
    jobs_submitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_in_flight: int = 0
    #: the live SIS hint-file version
    hint_version: int = 0
    #: maintenance windows run / hint publications they produced
    maintenance_windows: int = 0
    publications: int = 0
    #: the steering policy's published model version — deployment
    #: telemetry (the operator's "what model is steering right now"),
    #: excluded from fingerprints like every other schedule-shaped field
    policy_version: int = 0

    @property
    def jobs_shed(self) -> int:
        """Always 0: admission is by queue capacity alone and drops nothing.

        Kept only because the frozen perf ledger's ``serve_recover`` check
        (``benchmarks/ledger/workloads.py``) still reads it; it goes when
        that read does.
        """
        return 0

    @property
    def steer_rate(self) -> float:
        steered = sum(s.steered for s in self.shards)
        return steered / self.jobs_completed if self.jobs_completed else 0.0

    def render(self) -> str:
        """A terminal-friendly multi-line health summary."""
        lines = [
            f"server: {self.jobs_completed}/{self.jobs_submitted} jobs completed "
            f"({self.jobs_failed} failed, {self.jobs_in_flight} in flight), "
            f"steer rate {self.steer_rate:.0%}, "
            f"hint v{self.hint_version}, "
            f"{self.maintenance_windows} window(s) / {self.publications} publication(s), "
            f"policy v{self.policy_version}"
        ]
        for shard in self.shards:
            version = (
                f"v{shard.last_hint_version} (skew {shard.hint_version_skew})"
                if shard.last_hint_version is not None
                else "v-"
            )
            latency = (
                f"compile p50 {shard.compile_p50_s * 1e3:.1f}ms "
                f"p95 {shard.compile_p95_s * 1e3:.1f}ms "
                f"p99 {shard.compile_p99_s * 1e3:.1f}ms"
                if shard.compile_p50_s is not None
                and shard.compile_p95_s is not None
                and shard.compile_p99_s is not None
                else "compile p50/p95/p99 n/a"
            )
            lines.append(
                f"  shard {shard.shard}: "
                f"queue {shard.queue_depth} (max {shard.max_queue_depth}), "
                f"{shard.completed} ok / {shard.failed} failed, "
                f"steer {shard.steer_rate:.0%}, "
                f"fragments {shard.fragment_hit_rate:.0%} hit, "
                f"{latency}, hints {version}"
            )
        return "\n".join(lines)


def job_totals(shards: list[ShardStats]) -> dict[str, int]:
    """:class:`ServerStats`' stream-level ``jobs_*`` totals: the lanes'
    counters summed, never a second tally."""
    return {
        f"jobs_{name}": sum(getattr(shard, name) for shard in shards)
        for name in ("completed", "failed")
    }
