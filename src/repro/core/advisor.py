"""QOAdvisor: the one-stop top-level API.

Wires a workload, one ScopeEngine (its compilation service sharded), SIS,
the steering policy and the Flighting Service into the daily pipeline, and
manages the deployment phases the paper describes: a uniform-logging
warm-up (off-policy data collection + validation-model bootstrap), then
learned-mode daily operation.

>>> from repro import QOAdvisor, SimulationConfig
>>> advisor = QOAdvisor(SimulationConfig(seed=7))
>>> advisor.bootstrap(start_day=0)         # doctest: +SKIP
>>> report = advisor.run_day(20)           # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimulationConfig
from repro.core.pipeline import DayReport, QOAdvisorPipeline
from repro.flighting.service import FlightingService
from repro.obs.plane import ObservabilityPlane
from repro.parallel import Executor, build_executor
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import default_registry
from repro.sis.service import SISService
from repro.workload.generator import Workload, build_workload

__all__ = ["QOAdvisor"]


@dataclass
class QOAdvisor:
    """The deployed steering system: engine + services + daily pipeline."""

    config: SimulationConfig = field(default_factory=SimulationConfig)
    workload: Workload | None = None
    #: job-parallel backbone shared by the pipeline stages and the
    #: Flighting Service; built from ``config.execution`` when not given
    executor: Executor | None = None

    def __post_init__(self) -> None:
        self.registry = default_registry()
        if self.workload is None:
            self.workload = build_workload(self.config, self.registry)
        if self.executor is None:
            self.executor = build_executor(self.config.execution)
        #: the one engine over the workload's catalog; its compilation
        #: service holds a plan cache per shard (``shards=1`` is one shard),
        #: and SIS attaches to it as the one shared hint store
        self.engine = ScopeEngine(self.workload.catalog, self.config, self.registry)
        #: the observability plane (``config.obs``; the null plane when
        #: disabled).  Installed into the engine so compiles and
        #: executions trace; purely observational — fingerprints and core
        #: cache counters are byte-identical with it on or off
        self.obs = ObservabilityPlane(self.config.obs)
        self.engine.install_obs(self.obs)
        self.sis = SISService(self.registry)
        self.flighting = FlightingService(
            self.engine, self.config.flighting, executor=self.executor
        )
        self.pipeline = QOAdvisorPipeline(
            engine=self.engine,
            workload=self.workload,
            sis=self.sis,
            flighting=self.flighting,
            config=self.config,
            executor=self.executor,
            obs=self.obs,
        )
        #: the steering policy, the paper's CB (the pipeline's)
        self.policy = self.pipeline.policy
        self.obs.install(self)
        self.reports: list[DayReport] = []

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the executor's worker threads and close the
        observability plane (idempotent).

        Thread-pool workers only exit at shutdown, so sweeps constructing
        many advisors should close each one (or use the advisor as a
        context manager).  A closed executor lazily re-creates its pool if
        the advisor is used again.
        """
        if self.executor is not None:
            self.executor.close()
        self.obs.close()

    def __enter__(self) -> "QOAdvisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- deployment phases --------------------------------------------------

    def bootstrap(self, start_day: int = 0, days: int | None = None) -> None:
        """Warm-up: gather the random-flip corpus, fit the validation model,
        and train the steering policy off-policy under uniform logging.

        This is the paper's off-policy design: uniform randomization
        produces the maximally informative training log (§4.2).

        One pass over the days: each day's flight corpus is gathered and
        the policy trained on that day's jobs before the workload moves on,
        so the two share the day's parses, default compiles and coinciding
        flips through the plan cache.  (Walking the days once per task
        revisits every catalog state under a new version number and
        compiles it all again.)  Neither stream is reordered: the corpus
        stays day-major, and so does the event log.  A template's span is
        computed from the first instance the bootstrap meets, which in one
        pass is always its earliest day's — two walks could meet a later
        day's instance first (in a corpus window) and, rarely, read a
        different span off that day's statistics.
        """
        from repro.core.recommend import train_off_policy

        if days is None:
            days = self.config.advisor.validation_training_days
        corpus = []
        for day in range(start_day, start_day + days):
            corpus.extend(self.pipeline.flight_corpus_day(day))
            train_off_policy(
                self.engine,
                self.workload,
                self.pipeline.spans,
                self.policy,
                (day,),
                self.config.bandit.reward_clip,
            )
        self.pipeline.fit_validation_model(corpus, start_day, days)

    def enable_learned_mode(self) -> None:
        """Switch the policy from uniform logging to its learned behavior."""
        self.policy.switch_mode("learned")

    def run_day(self, day: int) -> DayReport:
        report = self.pipeline.run_day(day)
        self.reports.append(report)
        return report

    def simulate(
        self,
        start_day: int,
        days: int,
        *,
        learned_after: int = 3,
    ) -> list[DayReport]:
        """Run the pipeline for ``days`` consecutive days.

        The policy runs uniform-logging for the first
        ``learned_after`` days (exploration data), then switches to the
        learned policy — the staged rollout of §4.2.
        """
        reports = []
        for offset in range(days):
            if offset == learned_after:
                self.enable_learned_mode()
            reports.append(self.run_day(start_day + offset))
        return reports
