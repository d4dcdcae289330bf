"""Central configuration for simulations and the QO-Advisor pipeline.

The settings callers choose live in small frozen dataclasses grouped under
:class:`SimulationConfig`.  A value is a field here only if two callers
need different values of it — the default's users and at least one
caller (a bench, an example or a test) that sets another, such as the
workload size, the shard count or the serving schedule — or if it names a
deployment path (the span JSONL file).  A value every caller leaves at
its default is a named constant beside the module that reads it instead:

* the simulated cluster — ``scope.optimizer.cost`` (I/O bandwidth, CPU
  cost per row), ``scope.runtime.executor`` (tokens, partition size,
  vertex overhead) and ``scope.runtime.cluster`` (the noise model);
* the estimator — ``scope.data`` (reality-factor sigma) and
  ``workload.generator`` (statistics staleness, daily growth range);
* ``workload.templates`` (recurring fraction), ``bandit.learner`` (L2),
  ``core.recompile`` (reward clip, cost filter), ``core.validate``
  (validation threshold, training days) and ``serving.server`` (submit
  timeout, latency window).

Defaults are calibrated so that the structural properties the paper's
evaluation depends on hold: high latency variance, low PNhours variance,
imperfect cost estimates, and learnable rule-flip signal.  There is one
steering policy, the paper's contextual bandit, so :class:`BanditConfig`
configures it and nothing selects among policies.  A journal is named by
``QOAdvisorServer(journal=...)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "WorkloadConfig",
    "BanditConfig",
    "FlightingConfig",
    "AdvisorConfig",
    "CacheConfig",
    "ExecutionConfig",
    "ShardingConfig",
    "ServingConfig",
    "ObsConfig",
    "SimulationConfig",
]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic recurring SCOPE workload."""

    #: number of distinct job templates in the workload tier
    num_templates: int = 60
    #: number of tables in the synthetic catalog
    num_tables: int = 24
    #: fraction of jobs submitted with manual user hints (paper §2.1: ≤9 %)
    manual_hint_fraction: float = 0.09
    #: fraction of join-shaped templates that draw their join block from a
    #: small common pool of join subtrees instead of designing their own.
    #: Pooled templates render the shared block *textually identically*, so
    #: their compiled plans share logical subtrees — the workload knob that
    #: makes cross-template fragment-cache reuse exercisable rather than
    #: incidental.  0.0 (the default) leaves template design untouched.
    shared_subtree_fraction: float = 0.0
    #: number of distinct pooled join designs the sharing templates draw from
    shared_subtree_pool: int = 4


@dataclass(frozen=True)
class BanditConfig:
    """Parameters of the steering policy's contextual-bandit learner
    (``repro.bandit``, driven by :class:`~repro.policies.BanditSteeringPolicy`)."""

    #: number of bits in the hashed feature space (2**bits weights)
    hash_bits: int = 18
    #: exploration rate of the epsilon-greedy policy
    epsilon: float = 0.15
    #: SGD learning rate
    learning_rate: float = 0.05
    #: highest order of span co-occurrence interaction features (paper §6:
    #: "second and third order co-occurrence indicators")
    interaction_order: int = 3
    #: Personalizer publish cycles (daily in the pipeline) an unrewarded
    #: rank event survives before it expires with ``expired_event_reward``;
    #: 0 disables expiry entirely
    activation_timeout_days: int = 2
    #: default reward applied to rank events that expire unrewarded
    expired_event_reward: float = 0.0


@dataclass(frozen=True)
class FlightingConfig:
    """Parameters of the Flighting Service simulator."""

    #: fixed size of the concurrent flighting queue
    queue_size: int = 8
    #: per-job flighting timeout (paper: 24 hours)
    per_job_timeout_s: float = 24 * 3600.0
    #: total simulated machine-time budget per pipeline run, seconds
    total_budget_s: float = 12 * 3600.0
    #: probability a job class is unsupported by the service ("filtered")
    filtered_prob: float = 0.05
    #: probability job inputs expired before the flight ran ("failure")
    failure_prob: float = 0.04


@dataclass(frozen=True)
class AdvisorConfig:
    """Parameters of the QO-Advisor pipeline itself."""

    #: maximum rule flips uploaded to SIS per day
    max_hints_per_day: int = 50


@dataclass(frozen=True)
class CacheConfig:
    """Parameters of the compilation service's plan cache (``scope.cache``)."""

    #: serve memoized plans; disable for ablation (every compile re-optimizes)
    enabled: bool = True
    #: maximum number of cached (script, rule-configuration) plans; least
    #: recently used entries are evicted beyond this
    capacity: int = 4096
    #: maximum number of cached parse/bind results (one script is shared by
    #: every configuration it compiles under)
    script_capacity: int = 1024
    #: serve memoized fragment explorations (sub-plan granularity); disabling
    #: only skips the cross-compile reuse — compilation is fragment-structured
    #: either way, so results are byte-identical with this on or off
    fragment_enabled: bool = True
    #: maximum number of cached fragment entries; evicted at checkpoint
    #: barriers in the same schedule-independent (epoch, key) order as plans
    fragment_capacity: int = 8192
    #: batch MQO: pre-explore a batch's distinct fragments (ranked by
    #: frequency × subtree size) before the per-script compiles
    #: fan out, and share physical winners between compiles whose cost
    #: context matches.  Requires ``fragment_enabled``; observationally
    #: transparent either way (fingerprints are byte-identical on/off)
    mqo_enabled: bool = True


def _default_workers() -> int:
    """Default worker count; ``REPRO_WORKERS`` lets CI run the whole suite
    under a parallel executor without touching every test."""
    return int(os.environ.get("REPRO_WORKERS", "1"))


@dataclass(frozen=True)
class ExecutionConfig:
    """Parameters of the pipeline's job-parallel executor (``repro.parallel``).

    Every per-job stage of the daily loop (production runs, recompilation,
    flighting, span probes, the bootstrap corpus) maps over independent jobs
    through one :class:`repro.parallel.Executor`.  All per-job randomness is
    drawn from ``keyed_rng`` streams, so reports are byte-identical at any
    worker count.
    """

    #: workers for per-job stage fan-out; 1 selects the serial executor
    #: regardless of backend (overridable via the ``REPRO_WORKERS`` env var,
    #: which the CI parallel-determinism leg uses)
    workers: int = field(default_factory=_default_workers)
    #: "thread" is the only backend (shared-memory fan-out: the per-job
    #: closures share their shard's plan cache); anything else is refused
    #: by ``build_executor``
    backend: str = "thread"


@dataclass(frozen=True)
class ShardingConfig:
    """Parameters of the sharded multi-cluster layer (``repro.sharding``).

    The advisor runs one :class:`~repro.scope.engine.ScopeEngine` whose
    compilation service is sharded: jobs are routed to one of N shard
    :class:`~repro.scope.cache.CompilationService` instances by a stable
    hash of their template id, each shard owning its own plan cache and
    counters, while the engine's one catalog and one SIS deployment are
    shared.  Growth past ``shards`` (``QOAdvisorServer.add_shard``) extends
    the routing keyspace; the warm-up migration covers every template it
    moves.
    """

    #: number of shard compilation services; 1 is a service of one
    shards: int = 1


@dataclass(frozen=True)
class ServingConfig:
    """Parameters of the online serving layer (``repro.serving``).

    The :class:`~repro.serving.QOAdvisorServer` front-end admits a
    continuous job stream onto per-shard bounded queues, steers each job
    against the live SIS hint version on arrival, and micro-batches the
    offline pipeline work into maintenance windows between hint
    publications.  A lane's workers block on its queue until a job
    arrives or the queue closes; nothing polls.
    """

    #: bounded per-shard queue capacity; admission applies beyond it
    queue_capacity: int = 256
    #: what happens when a shard queue is full: ``"block"`` waits for a slot
    #: (30 s unless ``submit(timeout=)`` says otherwise), ``"reject"`` raises
    #: immediately
    admission: str = "block"
    #: steering worker threads per shard; 0 selects the *inline* schedule
    #: (jobs are processed synchronously on the submitting thread — the
    #: serial replay schedule the batch-parity contract is stated for)
    workers_per_shard: int = 1


@dataclass(frozen=True)
class ObsConfig:
    """Parameters of the observability plane (``repro.obs``).

    Disabled by default: the whole plane degrades to shared no-op
    components, and every instrumentation site costs one attribute
    check.  Enabling it never changes simulation results — spans and
    metrics views are counter-free and fingerprint-free
    (``DayReport.fingerprint()`` and ``CacheStats.core()`` are
    byte-identical either way; locked by ``tests/test_obs.py``).  The
    plane is pull-only: finished spans go to the ring (and the JSONL
    file, when set), and metrics are read at exposition time.
    """

    #: build the real tracer and metrics registry instead of the null plane
    enabled: bool = False
    #: capacity of the in-memory ring of most-recent finished spans
    trace_ring_size: int = 4096
    #: append-only JSONL span export (one object per closed span); None
    #: keeps traces in-memory only
    trace_jsonl_path: str | None = None


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration: one object wires an entire experiment."""

    seed: int = 20220613
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    bandit: BanditConfig = field(default_factory=BanditConfig)
    flighting: FlightingConfig = field(default_factory=FlightingConfig)
    advisor: AdvisorConfig = field(default_factory=AdvisorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
