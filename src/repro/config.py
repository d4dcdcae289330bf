"""Central configuration for simulations and the QO-Advisor pipeline.

All tunables live in small frozen dataclasses grouped under
:class:`SimulationConfig`.  Defaults are calibrated so that the structural
properties the paper's evaluation depends on hold:
high latency variance, low PNhours variance, imperfect cost estimates, and
learnable rule-flip signal.  There is one steering policy, the paper's
contextual bandit, so :class:`BanditConfig` configures it and nothing
selects among policies.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

__all__ = [
    "ClusterConfig",
    "EstimatorConfig",
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
class ClusterConfig:
    """Parameters of the simulated SCOPE cluster (see ``scope.runtime``)."""

    #: maximum concurrent containers ("tokens") a job may use
    max_tokens: int = 200
    #: bytes of input one vertex should process (drives degree of parallelism)
    partition_target_bytes: int = 256 * 1024 * 1024
    #: sequential I/O bandwidth per vertex, bytes/second
    io_bandwidth: float = 80e6
    #: CPU seconds consumed per processed row, by rough operator class
    #: (PNhours ends up I/O-heavy, as in SCOPE — see paper §4.3)
    cpu_row_cost: float = 3.5e-7
    #: fixed per-vertex scheduling/startup overhead in seconds
    vertex_overhead_s: float = 0.8
    #: sigma of the multiplicative lognormal CPU-time noise (small: PNhours
    #: stays stable across A/A runs, paper Fig. 5)
    cpu_noise_sigma: float = 0.09
    #: sigma of the bounded multiplicative I/O-time noise ("the variability
    #: of I/O time across A/A runs is bounded", paper §4.3)
    io_noise_sigma: float = 0.025
    #: sigma of the per-stage multiplicative latency noise (large: latency is
    #: unstable across A/A runs, paper Fig. 3)
    latency_noise_sigma: float = 0.25
    #: probability that a stage suffers a straggler vertex
    straggler_prob: float = 0.12
    #: Pareto shape for straggler slowdown factors (smaller = heavier tail)
    straggler_shape: float = 1.6
    #: mean of the exponential scheduling wait added per stage, seconds
    scheduling_wait_mean_s: float = 4.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Parameters of the (deliberately imperfect) cardinality estimator."""

    #: sigma of the multiplicative lognormal estimation error applied per
    #: plan operator; errors compound with depth, as observed for real
    #: optimizers (Leis et al., "How good are query optimizers, really?")
    error_sigma_per_level: float = 0.55
    #: relative staleness applied to base-table row counts
    stats_staleness_sigma: float = 0.10


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the synthetic recurring SCOPE workload."""

    #: number of distinct job templates in the workload tier
    num_templates: int = 60
    #: fraction of templates that recur daily (paper: >60 %)
    recurring_fraction: float = 0.8
    #: number of tables in the synthetic catalog
    num_tables: int = 24
    #: fraction of jobs submitted with manual user hints (paper §2.1: ≤9 %)
    manual_hint_fraction: float = 0.09
    #: day-to-day input growth factor range for recurring instances
    daily_growth_low: float = 0.85
    daily_growth_high: float = 1.25
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
    #: L2 regularization strength
    l2: float = 1e-6
    #: highest order of span co-occurrence interaction features (paper §6:
    #: "second and third order co-occurrence indicators")
    interaction_order: int = 3
    #: reward clipping ratio (paper §4.2: clip anything over 2.0)
    reward_clip: float = 2.0
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

    #: validation safety threshold on predicted PNhours delta (paper: −0.1)
    validation_threshold: float = -0.1
    #: estimated-cost delta a flip must beat to be flighted at all
    recompile_cost_filter: float = 0.0
    #: number of days of flighting data used to train the validation model
    validation_training_days: int = 14
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
    #: what happens when a shard queue is full: ``"block"`` waits up to
    #: ``submit_timeout_s`` for a slot, ``"reject"`` raises immediately
    admission: str = "block"
    #: steering worker threads per shard; 0 selects the *inline* schedule
    #: (jobs are processed synchronously on the submitting thread — the
    #: serial replay schedule the batch-parity contract is stated for)
    workers_per_shard: int = 1
    #: how long a blocking submit waits for queue space before giving up
    submit_timeout_s: float = 30.0
    #: append-only write-ahead ticket journal (JSONL path); None disables
    #: journaling.  A restarted server replays the journal to reconstruct
    #: its day accumulators and pending maintenance window byte-identically
    journal_path: str | None = None
    #: bound on each lane's compile-latency sample ring (p50/p95/p99 are
    #: computed over the most recent this-many completions; at least 1)
    latency_window: int = 1024


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
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    bandit: BanditConfig = field(default_factory=BanditConfig)
    flighting: FlightingConfig = field(default_factory=FlightingConfig)
    advisor: AdvisorConfig = field(default_factory=AdvisorConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    sharding: ShardingConfig = field(default_factory=ShardingConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    obs: ObsConfig = field(default_factory=ObsConfig)
