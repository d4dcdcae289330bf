"""ScopeEngine: the compile → optimize → execute facade.

This is the "SCOPE side" of the paper's Figure 1: scripts come in, the
cascades optimizer (steered by SIS hints and/or explicit rule flips)
produces a physical plan with an estimated cost and a rule signature, and
the runtime simulator executes the plan and logs runtime statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.rng import keyed_rng
from repro.scope.cache import CompilationService
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

__all__ = ["ScopeEngine", "JobRun"]


@dataclass
class JobRun:
    """The outcome of compiling, optimizing and executing one job."""

    job: JobInstance
    result: OptimizationResult
    metrics: JobMetrics


class ScopeEngine:
    """A single SCOPE cluster: catalog + optimizer + runtime."""

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
        self.data_model = DataModel(
            catalog,
            truth_seed=self.config.seed ^ 0x5C09E,
            reality_sigma=self.config.estimator.error_sigma_per_level,
        )
        self.runtime = RuntimeSimulator(self.config.cluster)
        #: compile-time hint lookup: template id → RuleFlip (wired by SIS)
        self.hint_provider = None
        #: memoizing compile front-end — every ``compile_job`` goes through
        #: its plan cache, keyed by the configuration the job's hint gives
        self.compilation = CompilationService(self, self.config.cache)
        #: observability plane (null by default; ``install_obs`` swaps it)
        from repro.obs.plane import NULL_PLANE

        self.obs = NULL_PLANE

    def install_obs(self, plane) -> None:
        """Wire an observability plane into this engine's compile/execute
        paths.  Purely observational: spans and events never touch the
        cache counters or anything a fingerprint covers."""
        self.obs = plane
        self.compilation.tracer = plane.tracer

    # -- cluster protocol ----------------------------------------------------

    def engine_for_template(self, template_id: str) -> "ScopeEngine":
        """The engine jobs of ``template_id`` compile on — itself.

        :class:`repro.sharding.ShardedScopeCluster` implements the same
        method with real routing; callers that may hold a bare engine (the
        span computer, the Flighting Service, the analysis harnesses)
        resolve through it uniformly.
        """
        return self

    # -- compilation ---------------------------------------------------------

    def compile(self, script: str) -> CompiledScript:
        """Parse, bind and compile a script against this cluster's catalog."""
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
            cluster=self.config.cluster,
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

        Served through the :class:`CompilationService` plan cache: the
        resolved (script, configuration) pair only reaches the optimizer on
        a miss.
        """
        return self.compilation.compile_job(job, flip, use_hints=use_hints)

    def peek_job_result(
        self,
        job: JobInstance,
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> OptimizationResult | None:
        """The cached plan a ``compile_job`` call would serve, or ``None``.

        Counter-free and compile-free (see
        :meth:`CompilationService.peek`): the plan-guided steering
        policy scores against resident plans without adding optimizer
        invocations or moving fingerprint-visible accounting.  A memoized
        compile *error* yields ``None`` too — there is no plan to read.
        """
        config = self.configuration_for(job, flip, use_hints=use_hints)
        entry = self.compilation.peek(job.script, config)
        return entry.result if entry is not None else None

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
