"""Determinism & concurrency analysis suite.

Machine-checks the engineering discipline the reproduction's invariants
rest on (byte-identical ``DayReport.fingerprint()`` / ``CacheStats.core()``
across workers, shards, and serving replay):

* :mod:`repro.qa.determinism` — AST linter for process-salted ``hash()``
  / ``id()`` feeding keys or ordering, RNG construction outside
  :mod:`repro.rng`, wall-clock reads outside telemetry modules, and
  unsorted set iteration flowing into ordered accumulation;
* :mod:`repro.qa.locks` — static lock-discipline checker inferring each
  class's guarded-attribute set and flagging unlocked access;
* :mod:`repro.qa.lockgraph` — runtime lock-order tracer: cycle
  (potential-deadlock) detection and locks-held-across-``map_jobs``
  hazards;
* :mod:`repro.qa.findings` — the shared finding model and the ``# qa:``
  suppression comments, the one way to accept a finding.

Run the static suite with ``python -m repro.qa`` (the CI gate: exit 1 on
any finding).  Opt tests into the runtime tracer with ``REPRO_QA_LOCKS=1``.
"""

from repro.qa.findings import Finding, SourceFile
from repro.qa.lockgraph import (
    FanoutHazard,
    LockRegistry,
    OrderEdge,
    TracedLock,
    auto_instrument_constructors,
    instrument_locks,
)

__all__ = [
    "Finding",
    "SourceFile",
    "FanoutHazard",
    "LockRegistry",
    "OrderEdge",
    "TracedLock",
    "auto_instrument_constructors",
    "instrument_locks",
]
