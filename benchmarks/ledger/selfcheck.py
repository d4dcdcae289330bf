"""``run.py --selfcheck``: does the ledger agree with itself on one tree?

Runs two sets of ``runs`` untraced runs of every workload — all of set A,
then all of set B, so the sets are minutes apart like a parent/change
comparison would be — and prints, per (metric, workload) pair, both
medians, their gap as a share of set A's median, and the metric's bound.
It fails if any gap exceeds its bound, or if a count differs at all: the
seed is the same, so counts must repeat exactly.

A timing that cannot hold its bound here is demoted to the per-layer list
(and the reason recorded in README.md), not given a wider bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import END_TO_END
from workloads import WORKLOADS

__all__ = ["main"]

_RUN = Path(__file__).resolve().parent / "run.py"


def _one_run(workload: str, seed: int, seconds: float) -> dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(_RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} run failed:\n{done.stdout}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def main(runs: int, seed: int, seconds: float) -> int:
    if runs < 3:
        raise SystemExit("--selfcheck needs --runs >= 3 per set")
    sets: list[dict[str, list[dict[str, float]]]] = []
    for label in "AB":
        rows: dict[str, list[dict[str, float]]] = {}
        for workload in WORKLOADS:
            rows[workload] = [_one_run(workload, seed, seconds) for _ in range(runs)]
            print(f"set {label}: {workload} x{runs} done", flush=True)
        sets.append(rows)

    print(f"\n{'workload':<15} {'metric':<22} {'median A':>14} {'median B':>14} "
          f"{'gap':>8} {'bound':>7}")
    failures = []
    for workload in WORKLOADS:
        for metric in END_TO_END:
            a, b = (
                statistics.median(row[metric.name] for row in rows[workload])
                for rows in sets
            )
            gap = abs(b - a) / a
            exact = metric.unit == "count"
            spread = {row[metric.name] for rows in sets for row in rows[workload]}
            verdict = ""
            if gap > metric.bound:
                verdict = "  EXCEEDS BOUND"
            elif exact and len(spread) != 1:
                verdict = "  COUNT NOT EXACT"
            if verdict:
                failures.append((workload, metric.name))
            print(f"{workload:<15} {metric.name:<22} {a:>14.4f} {b:>14.4f} "
                  f"{gap:>7.2%} {metric.bound:>6.0%}{verdict}")
    if failures:
        print(f"\nselfcheck FAILED on {len(failures)} pair(s): {failures}")
        return 1
    print("\nselfcheck passed: every pair within its bound, every count exact")
    return 0
