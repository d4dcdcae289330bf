"""Quickstart: the online serving layer.

Boots a 2-shard :class:`QOAdvisorServer`, streams one generated day of
jobs through the per-shard queues (each job steered on arrival against
the live SIS hint version), runs the day's maintenance window — the
micro-batched recommend/recompile/flight/validate/publish pass — prints
the per-shard health metrics, and drains cleanly.

    python examples/serving_quickstart.py   # ~10 seconds
"""

from __future__ import annotations

import dataclasses

from repro import QOAdvisorServer, ServingConfig, SimulationConfig
from repro.config import ShardingConfig


def main() -> None:
    config = dataclasses.replace(
        SimulationConfig(seed=7),
        sharding=ShardingConfig(shards=2),
        serving=ServingConfig(workers_per_shard=2),
    )
    server = QOAdvisorServer(
        config=config,
        on_publish=lambda report: print(
            f"  >> hint file v{report.hint_version} published "
            f"({len(report.validated)} validated flip(s))"
        ),
    )
    with server:  # start() on enter, drain + shutdown on exit
        workload = server.advisor.workload
        print(
            f"server up: {server.num_shards} shards × "
            f"{server.serving.workers_per_shard} workers"
        )

        day = 0
        jobs = workload.jobs_for_day(day)
        print(f"streaming day {day}: {len(jobs)} jobs...")
        for job in jobs:
            server.submit(job)
        server.drain()

        print("running the maintenance window (micro-batched offline stages)...")
        report = server.run_maintenance(day)
        counts = {k.value: v for k, v in report.outcome_counts().items() if v}
        print(
            f"  day {report.day}: {len(report.production_runs)} jobs served, "
            f"outcomes={counts}, {len(report.flight_results)} flighted, "
            f"{report.active_hint_count} active hints"
        )

        print("\nserver health:")
        print(server.stats().render())
    print("\ndrained and shut down cleanly")


if __name__ == "__main__":
    main()
