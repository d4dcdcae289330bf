"""QO-Advisor: a steered query optimizer over a SCOPE-like substrate.

A from-scratch reproduction of *"Deploying a Steered Query Optimizer in
Production at Microsoft"* (SIGMOD 2022): the full QO-Advisor pipeline —
contextual-bandit rule recommendation, recompilation, flighting,
regression-guard validation and SIS hint deployment — together with every
substrate it needs: a SCOPE-like scripting language, a cascades optimizer
with rule signatures, a distributed runtime simulator with a calibrated
cloud-variance model, a Flighting Service, and an Azure-Personalizer-like
contextual decision service.

Quickstart::

    from repro import QOAdvisor, SimulationConfig

    advisor = QOAdvisor(SimulationConfig(seed=7))
    advisor.bootstrap(start_day=0)          # 14-day validation corpus
    reports = advisor.simulate(start_day=14, days=7)
    print(reports[-1].outcome_counts())
"""

from repro.config import (
    CacheConfig,
    ExecutionConfig,
    ObsConfig,
    ServingConfig,
    ShardingConfig,
    SimulationConfig,
)
from repro.core.advisor import QOAdvisor
from repro.core.pipeline import DayReport, QOAdvisorPipeline
from repro.parallel import (
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    build_executor,
)
from repro.policies import BanditSteeringPolicy
from repro.obs import MetricsRegistry, ObservabilityPlane, Tracer
from repro.scope.cache import CacheStats, CompilationService
from repro.scope.engine import ScopeEngine
from repro.serving import (
    QOAdvisorServer,
    RecoveryReport,
    ServerStats,
    TicketJournal,
)
from repro.sharding import ShardRouter
from repro.workload.generator import Workload, build_workload

__version__ = "1.29.0"

__all__ = [
    "QOAdvisor",
    "QOAdvisorPipeline",
    "QOAdvisorServer",
    "DayReport",
    "RecoveryReport",
    "ScopeEngine",
    "BanditSteeringPolicy",
    "ServerStats",
    "TicketJournal",
    "ServingConfig",
    "ObsConfig",
    "ObservabilityPlane",
    "Tracer",
    "MetricsRegistry",
    "ShardRouter",
    "ShardingConfig",
    "SimulationConfig",
    "CacheConfig",
    "CacheStats",
    "CompilationService",
    "ExecutionConfig",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "build_executor",
    "Workload",
    "build_workload",
    "__version__",
]
