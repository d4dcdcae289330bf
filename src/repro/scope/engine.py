"""ScopeEngine: the compile → optimize → execute facade.

This is the "SCOPE side" of the paper's Figure 1: scripts come in, the
cascades optimizer (steered by SIS hints and/or explicit rule flips)
produces a physical plan with an estimated cost and a rule signature, and
the runtime simulator executes the plan and logs runtime statistics.

There is one engine per deployment.  Its ``compilation`` is the routing
:class:`~repro.sharding.ShardedCompilationService`: ``config.sharding.shards``
shard services, each with its own plan cache, counters and lock, all
compiling through this engine's catalog, registry, data model and SIS hint
lookup — a shard is a compilation service, not a second engine.  Its
``router`` (a :class:`~repro.sharding.ShardRouter`) decides which shard a
template's compiles land on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.rng import keyed_rng
from repro.scope.catalog import Catalog
from repro.scope.compile import CompiledScript, Compiler
from repro.scope.data import DataModel
from repro.scope.jobs import JobInstance
from repro.scope.language.binder import Binder
from repro.scope.language.parser import parse_script
from repro.scope.optimizer.engine import OptimizationResult, Optimizer, SearchBudget
from repro.scope.optimizer.rules.base import (
    RuleConfiguration,
    RuleFlip,
    RuleRegistry,
    default_registry,
)
from repro.scope.runtime.executor import RuntimeSimulator
from repro.scope.runtime.metrics import JobMetrics
from repro.sharding import ShardedCompilationService, ShardRouter

__all__ = ["ScopeEngine", "JobRun"]


@dataclass
class JobRun:
    """The outcome of compiling, optimizing and executing one job."""

    job: JobInstance
    result: OptimizationResult
    metrics: JobMetrics


class ScopeEngine:
    """The deployment's engine: catalog + optimizer + runtime, compiling
    through one plan cache per shard."""

    def __init__(
        self,
        catalog: Catalog,
        config: SimulationConfig | None = None,
        registry: RuleRegistry | None = None,
        budget: SearchBudget | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.catalog = catalog
        self.registry = registry or default_registry()
        self.default_config = self.registry.default_configuration()
        self.budget = budget or SearchBudget()
        self.data_model = DataModel(catalog, truth_seed=self.config.seed ^ 0x5C09E)
        self.runtime = RuntimeSimulator()
        #: compile-time hint lookup: template id → RuleFlip (wired by SIS)
        self.hint_provider = None
        #: template → shard placement, the one membership state
        self.router = ShardRouter(self.config.sharding.shards)
        #: memoizing compile front-end — every ``compile_job`` routes to its
        #: shard's plan cache, keyed by the configuration the job's hint gives
        self.compilation = ShardedCompilationService(self)
        #: observability plane (null by default; ``install_obs`` swaps it)
        from repro.obs.plane import NULL_PLANE

        self.obs = NULL_PLANE

    def install_obs(self, plane) -> None:
        """Wire an observability plane into this engine's compile/execute
        paths: the routing service and every shard service trace.  Purely
        observational: spans and events never touch the cache counters or
        anything a fingerprint covers."""
        self.obs = plane
        self.compilation.tracer = plane.tracer
        for service in self.compilation.shards:
            service.tracer = plane.tracer

    # -- compilation ---------------------------------------------------------

    def compile(self, script: str) -> CompiledScript:
        """Parse, bind and compile a script against the catalog (no plan cache)."""
        bound = Binder(self.catalog).bind(parse_script(script))
        return Compiler(self.catalog).compile(bound)

    def configuration_for(
        self, job: JobInstance, flip: RuleFlip | None = None, *, use_hints: bool = True
    ) -> RuleConfiguration:
        """Resolve the rule configuration a job compiles under.

        Priority: explicit ``flip`` (pipeline experiments) > SIS hint for the
        job's template > the job's manual user hint > default configuration.
        """
        if flip is not None:
            return flip.apply_to(self.default_config)
        if use_hints and self.hint_provider is not None:
            hint = self.hint_provider(job.template_id)
            if hint is not None:
                return hint.apply_to(self.default_config)
        if job.manual_hint is not None:
            return job.manual_hint.apply_to(self.default_config)
        return self.default_config

    def optimize(
        self,
        compiled: CompiledScript,
        config: RuleConfiguration | None = None,
        fragments=None,
    ) -> OptimizationResult:
        """Optimize a compiled script under ``config`` (default config if None).

        ``fragments`` is an optional fragment-store view (see
        :class:`repro.scope.cache.FragmentView`) that memoizes fragment
        explorations across compiles; without one the compile is simply
        uncached — the result is byte-identical either way.
        """
        optimizer = Optimizer(
            self.registry,
            config or self.default_config,
            self.data_model,
            budget=self.budget,
        )
        return optimizer.optimize(compiled, fragments=fragments)

    def compile_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> OptimizationResult:
        """Full compilation of a job (may raise OptimizationError).

        Routed to the owning shard's
        :class:`~repro.scope.cache.CompilationService` plan cache: the
        resolved (script, configuration) pair only reaches the optimizer on
        a miss.
        """
        return self.compilation.compile_job(job, flip, use_hints=use_hints)

    def compile_job_uncached(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> OptimizationResult:
        """The raw parse→bind→optimize path, bypassing the plan cache."""
        compiled = self.compile(job.script)
        config = self.configuration_for(job, flip, use_hints=use_hints)
        return self.optimize(compiled, config)

    # -- execution ---------------------------------------------------------------

    def run_rng(self, run_key: tuple) -> np.random.Generator:
        return keyed_rng(self.config.seed, "cluster-run", *run_key)

    def execute(self, result: OptimizationResult, run_key: tuple) -> JobMetrics:
        """Execute an optimized plan once; ``run_key`` seeds the cloud noise."""
        return self.runtime.execute(result.plan, self.run_rng(run_key))

    def run_job(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        attempt: int = 0,
        use_hints: bool = True,
    ) -> JobRun:
        """Compile, optimize and execute a job end to end."""
        result = self.compile_job(job, flip, use_hints=use_hints)
        with self.obs.tracer.child_span("execute", job_id=job.job_id):
            metrics = self.execute(result, job.run_key(attempt))
        return JobRun(job=job, result=result, metrics=metrics)
