"""Quickstart: the unified observability plane.

Boots a 2-shard :class:`QOAdvisorServer` with ``ObsConfig(enabled=True)``,
streams one generated day (every admitted job gets a root trace span;
compiles, optimizer searches and executions appear as children), runs
the maintenance window (its own ``window:<day>`` trace), then reads what
the plane kept: a few reassembled traces from the in-memory ring and the
Prometheus-style text exposition.  The plane is pull-only — nothing is
pushed while the day runs; everything below is read afterwards.

    python examples/observability_quickstart.py   # a few seconds

Everything here is observational: the day's ``DayReport.fingerprint()``
is byte-identical with the plane enabled or disabled.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro import QOAdvisorServer, ServingConfig, SimulationConfig
from repro.config import ObsConfig, ShardingConfig


def main() -> None:
    config = dataclasses.replace(
        SimulationConfig(seed=7),
        sharding=ShardingConfig(shards=2),
        serving=ServingConfig(workers_per_shard=2),
        obs=ObsConfig(enabled=True),
    )
    server = QOAdvisorServer(config=config)
    plane = server.obs

    with server:
        day = 0
        jobs = server.advisor.workload.jobs_for_day(day)
        print(f"streaming day {day}: {len(jobs)} jobs across 2 shards...")
        for job in jobs:
            server.submit(job)
        server.drain()
        report = server.run_maintenance(day)

        print("\n-- traces -------------------------------------------------")
        spans = plane.ring.spans()
        print(f"ring holds {len(spans)} spans ({plane.ring.total} finished "
              f"in total); span names: {dict(Counter(s.name for s in spans))}")
        roots = [s for s in spans if s.parent_id is None and s.name == "job"]
        sample = roots[-1]
        children = [s for s in spans if s.trace_id == sample.trace_id and s.parent_id]
        print(f"trace {sample.trace_id}: root 'job' "
              f"({sample.duration_s * 1e3:.2f} ms) + "
              f"{len(children)} child span(s): "
              f"{sorted({c.name for c in children})}")
        (window,) = [s for s in spans if s.name == "window"]
        stages = [s for s in spans if s.parent_id == window.span_id]
        version = window.attrs["hint_version"]
        print(f"trace {window.trace_id}: {window.duration_s * 1e3:.1f} ms, "
              f"{len(stages)} stage span(s), "
              + (f"published v{version}" if version is not None else "no publication"))

        print("\n-- metrics exposition (excerpt) ---------------------------")
        for line in plane.metrics.exposition().splitlines():
            if line.startswith(("repro_serving_completed", "repro_hint_version",
                                "repro_stage_seconds",
                                "repro_spans_finished_total{name=\"job\"")):
                print(line)

    print(f"\nday {report.day} fingerprint: {report.fingerprint()} "
          "(identical with the plane disabled)")


if __name__ == "__main__":
    main()
