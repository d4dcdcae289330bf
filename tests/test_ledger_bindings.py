"""Every name the perf ledger binds still resolves under ``src/``.

``benchmarks/ledger/tracing.py`` wraps public functions at each layer
boundary by ``(module, class, attribute)`` — its ``_SITES`` table — and
patches ``ThreadedExecutor.map_jobs`` and ``ShardQueue.put`` / ``.get`` by
hand.  A rename of any of them otherwise only fails a traced ledger run.
The policy entries bind ``rank`` / ``observe`` on two classes of one
hierarchy, which only yields one span per call while the subclass
inherits both methods.  ``benchmarks/ledger/workloads.py`` builds its
configurations by keyword when it is imported, so a config field it
passes must keep its name too.
"""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

from repro import SimulationConfig
from repro.bandit.features import ActionFeatures, ContextFeatures
from repro.parallel import build_executor
from repro.policies import BanditSteeringPolicy

_LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"

_PATCHED_BY_HAND = [
    ("repro.parallel", "ThreadedExecutor", "map_jobs"),
    ("repro.serving.queues", "ShardQueue", "put"),
    ("repro.serving.queues", "ShardQueue", "get"),
]


def _ledger_table() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("ledger_tracing", _LEDGER / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._SITES


def _ledger_sites() -> list[tuple[str, str | None, str]]:
    return [site[:3] for site in _ledger_table()]


def test_every_ledger_bound_name_resolves():
    sites = _ledger_sites()
    assert len(sites) > 30  # the table was read, not an empty stand-in
    unresolved = []
    for module_name, class_name, attr in sites + _PATCHED_BY_HAND:
        owner = import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name, None)
        if not callable(getattr(owner, attr, None)):
            unresolved.append(f"{module_name}.{class_name or ''}.{attr}")
    assert unresolved == []


def test_every_ledger_bound_policy_call_is_one_span(monkeypatch):
    """Wrap the table's policy entries in its order, as the tracer does: one
    ``rank`` and one ``observe`` must each pass exactly one wrapper.  An
    alias of the two classes, or an override that hops to ``super()``,
    would pass two."""
    spans, wrapped = Counter(), []
    for module_name, class_name, attr, name, _, _ in _ledger_table():
        if not (isinstance(name, str) and name.startswith("policies.")):
            continue
        owner = getattr(import_module(module_name), class_name)

        def counting(*args, _call=getattr(owner, attr), _name=name, **kwargs):
            spans[_name] += 1
            return _call(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
        wrapped.append(f"{class_name}.{attr}")
    assert sorted(wrapped) == [
        "BanditSteeringPolicy.observe",
        "BanditSteeringPolicy.rank",
        "LearnedSteeringPolicy.observe",
        "LearnedSteeringPolicy.rank",
    ]
    policy = BanditSteeringPolicy(seed=1)
    context = ContextFeatures(span=(3, 5), estimated_cost=100.0)
    actions = [ActionFeatures(rule_id=None), ActionFeatures(rule_id=3, turn_on=False)]
    response = policy.rank(context, actions)
    policy.observe(response.event_id, 1.0)
    assert spans == {"policies.rank": 1, "policies.observe": 1}


def test_every_ledger_workload_config_builds(monkeypatch):
    """Importing the workload table builds every configuration the ledger
    runs (and each twin) by keyword; each must be a ``SimulationConfig``
    whose executor can be built."""
    monkeypatch.syspath_prepend(str(_LEDGER))  # workloads.py imports ``replay``
    spec = importlib.util.spec_from_file_location("ledger_workloads", _LEDGER / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its module through sys.modules while it is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    workloads = module.WORKLOADS
    assert set(workloads) == {"cold_bootstrap", "shared_days", "fleet_days", "serve_recover"}
    configs = [spec.config for spec in workloads.values()]
    configs += [spec.twin for spec in workloads.values() if spec.twin is not None]
    assert len(configs) == 6
    for config in configs:
        assert isinstance(config, SimulationConfig)
        build_executor(config.execution).close()
