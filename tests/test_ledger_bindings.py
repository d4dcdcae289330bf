"""Every name the perf ledger's tracer binds still resolves under ``src/``.

``benchmarks/ledger/tracing.py`` wraps public functions at each layer
boundary by ``(module, class, attribute)`` — its ``_SITES`` table — and
patches ``ThreadedExecutor.map_jobs`` and ``ShardQueue.put`` / ``.get`` by
hand.  A rename of any of them otherwise only fails a traced ledger run.
"""

from __future__ import annotations

import importlib.util
from importlib import import_module
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "tracing.py"

_PATCHED_BY_HAND = [
    ("repro.parallel", "ThreadedExecutor", "map_jobs"),
    ("repro.serving.queues", "ShardQueue", "put"),
    ("repro.serving.queues", "ShardQueue", "get"),
]


def _ledger_sites() -> list[tuple[str, str | None, str]]:
    spec = importlib.util.spec_from_file_location("ledger_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [site[:3] for site in module._SITES]


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
