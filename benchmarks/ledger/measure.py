"""Measuring one run: set-up, forked replays, verification, summary.

``measure`` is an untraced run (the end-to-end metrics); ``measure_traced``
adds one traced replay, a counted replay and the workload's twin (the
per-layer metrics).  README.md, "Protocol", says why each step is there.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from pathlib import Path

import tracing
from replay import fork_call
from workloads import WorkloadSpec, run_recovery, run_section, set_up

__all__ = ["REPLAYS", "measure", "measure_traced", "summarise"]

OUT = Path(__file__).resolve().parent / "out"

#: replays of the timed section per run; raise this before widening a bound
REPLAYS = 3
#: set-ups per run (the run's own plus forked extras); setup_s is their
#: minimum, by the same reasoning as the per-unit minima: the box has slow
#: phases lasting seconds, and a set-up is only ever slowed by them
SETUPS = 2
#: untraced replays of a traced run (trace overhead and serving latencies
#: are read against their minima)
TRACE_PLAIN_REPLAYS = 1


def _timed_set_up(spec: WorkloadSpec, seed: int, seconds: float, config=None):
    started = time.perf_counter()
    state = set_up(spec, seed, seconds, config)
    return state, time.perf_counter() - started


def _journal_path(spec: WorkloadSpec, index: object) -> Path | None:
    if spec.kind != "serve":
        return None
    path = OUT / "journals" / f"{spec.name}-{os.getpid()}-{index}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return path


def _replay(state, index: object, tracer_factory=None, recover: bool = True) -> dict:
    """One forked replay of the section and, for "serve" when ``recover``, of
    the recovery of the journal that replay wrote — both children forked from
    the same pre-stream state.  ``tracer_factory`` runs inside each child."""
    journal = _journal_path(state.spec, index)

    def forked(phase) -> dict:
        def child() -> dict:
            tracer = tracer_factory() if tracer_factory else None
            record = phase(state, journal, tracer)
            if tracer is not None:
                record["trace"] = tracer.export()
            return record

        return fork_call(child)

    record = forked(run_section)
    if journal is not None:
        if recover:
            record["recovery"] = forked(run_recovery)
        journal.unlink()
    return record


def _min_units(records: list[dict]) -> dict[str, float]:
    """Per unit, the minimum wall over replays: a unit is slowed by whatever
    else the box did during it and never sped up, and the disturbances of
    different replays rarely land on the same unit."""
    names = [name for name, _, _ in records[0]["units"]]
    return {
        name: min(record["units"][position][1] for record in records)
        for position, name in enumerate(names)
    }


def _verify(spec: WorkloadSpec, records: list[dict]) -> list[str]:
    """Every breach of the output contract, as text (empty when correct)."""
    breaches: list[str] = []
    first = records[0]
    for index, record in enumerate(records):
        breaches += [f"replay {index}: {b}" for b in record["breaches"]]
        if not record["gc_enabled"]:
            breaches.append(f"replay {index}: gc was disabled")
        if record["chain"] != first["chain"]:
            breaches.append(f"replay {index}: fingerprint chain differs from replay 0")
        if record["core"] != first["core"]:
            breaches.append(f"replay {index}: CacheStats.core() differs from replay 0")
        if [u[0] for u in record["units"]] != [u[0] for u in first["units"]]:
            breaches.append(f"replay {index}: unit sequence differs from replay 0")
        # a traced replay allocates spans, so its collections are its own
        if spec.single_threaded and "trace" not in record and record["gc"] != first["gc"]:
            breaches.append(
                f"replay {index}: gc collections {record['gc']} != {first['gc']}"
            )
        recovery = record.get("recovery")
        if recovery is not None:
            breaches += [f"recovery {index}: {b}" for b in recovery["breaches"]]
            if recovery["chain"] != record["chain"]:
                breaches.append(f"recovery {index}: replayed chain differs from live")
            if recovery["admitted"] != record["attempted"]:
                breaches.append(
                    f"recovery {index}: re-admitted {recovery['admitted']} of "
                    f"{record['attempted']} jobs"
                )
    return breaches


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def summarise(records: list[dict]) -> dict:
    """The numbers one set of replays supports, by the per-unit-minimum rule."""
    units = _min_units(records)
    summary = {
        "units": units,
        "wall_s": sum(units.values()),
        "peak_rss_mb": max(
            [r["rss_mb"] for r in records]
            + [r["recovery"]["rss_mb"] for r in records if "recovery" in r]
        ),
        "optimizer_invocations": records[0]["stats"]["optimizer_invocations"],
        "cpu_s": min(sum(u[2] for u in r["units"]) for r in records),
    }
    if "compile_s" in records[0]:  # "serve"
        serve = sum(v for k, v in units.items() if k.startswith("serve:"))
        windows = sorted(v for k, v in units.items() if k.startswith("window:"))
        jobs = len(records[0]["compile_s"])
        steer = sorted(
            min(r["compile_s"][j] for r in records) * 1e3 for j in range(jobs)
        )
        recover_s = min(
            r["recovery"]["units"][0][1] for r in records if "recovery" in r
        )
        summary.update(
            serve_jobs_per_s=jobs / serve,
            steer_p50_ms=_percentile(steer, 50),
            steer_p95_ms=_percentile(steer, 95),
            window_p50_ms=_percentile(windows, 50) * 1e3,
            recover_s=recover_s,
            recover_records_per_s=records[0]["journal_records"] / recover_s,
        )
    return summary


def measure(
    spec: WorkloadSpec, seed: int, seconds: float, import_s: float, replays: int | None = None
) -> dict:
    """An untraced run: set-up, ``replays`` forked replays, verification."""
    extra = [
        fork_call(lambda: _timed_set_up(spec, seed, seconds)[1])
        for _ in range(SETUPS - 1)
    ]
    state, own = _timed_set_up(spec, seed, seconds)
    # no end-to-end metric times the recovery, so one replay's journal is
    # recovered (and verified); a traced run recovers every replay's
    records = [_replay(state, index, recover=index == 0) for index in range(replays or REPLAYS)]
    metrics = summarise(records)
    metrics["setup_s"] = import_s + min(extra + [own])
    return {
        "metrics": metrics,
        "breaches": _verify(spec, records),
        "attempted": records[0]["attempted"],
        "failed": records[0]["failed"],
    }


def measure_traced(spec: WorkloadSpec, seed: int, seconds: float, import_s: float) -> dict:
    """A traced run: the per-layer metrics, from one traced replay read
    against untraced ones, a counted replay where counts are exact, and the
    twin each cross-workload claim needs (see tracing.per_layer)."""
    twin = None
    if spec.twin is not None:
        # one system per process: the twin is set up and run in a child
        # forked *before* this process builds its own advisor
        twin_journal = _journal_path(spec, "twin")

        def run_twin() -> dict:
            state, _ = _timed_set_up(spec, seed, seconds, spec.twin)
            return run_section(state, twin_journal)

        twin = fork_call(run_twin)
        if twin_journal is not None:
            twin_journal.unlink()

    state, own = _timed_set_up(spec, seed, seconds)
    plain = [_replay(state, index) for index in range(TRACE_PLAIN_REPLAYS)]
    traced = _replay(state, "traced", tracing.Tracer.install)
    records = plain + [traced]

    py_calls = 0
    if spec.single_threaded:
        def counted() -> tuple[int, list[str]]:
            profile = cProfile.Profile(subcalls=False, builtins=False)
            profile.enable()
            record = run_section(state)
            profile.disable()
            return pstats.Stats(profile).total_calls, record["chain"]

        py_calls, chain = fork_call(counted)
        if chain != plain[0]["chain"]:
            records[0]["breaches"].append("counted replay: fingerprint chain differs")

    breaches = _verify(spec, records)
    if spec.twin_role == "reference":
        for key in ("chain", "core"):
            if twin[key] != plain[0][key]:
                breaches.append(f"{key} differs from the reference twin's")
    spans_path = OUT / f"{spec.name}.spans.jsonl"
    tracing.write_spans(spans_path, traced)
    metrics = tracing.per_layer(
        spec, summarise(plain), traced, twin=twin, py_calls=py_calls,
        setup_s=import_s + own,
    )
    return {
        "metrics": metrics,
        "breaches": breaches,
        "attempted": traced["attempted"],
        "failed": traced["failed"],
        "spans_path": spans_path,
    }
