"""The perf ledger: one command that sets up, measures, verifies and prints.

    python3 benchmarks/ledger/run.py --workload shared_days --seed 20220613
    python3 benchmarks/ledger/run.py --workload serve_recover --trace 1
    python3 benchmarks/ledger/run.py --selfcheck

Every metric is printed by name with its unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  ``--trace 0`` (default) prints the end-to-end metrics from
untraced fork replays; ``--trace 1`` prints the per-layer metrics from one
extra traced replay and writes ``out/<workload>.spans.jsonl``.  README.md
explains the protocol and why each piece of it exists.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up is timed from before the imports

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

_PINNED_ENV = {
    # str hashes order a few sets; pinning the salt removes that degree of
    # freedom from timings (results never depend on it — repro.qa checks)
    "PYTHONHASHSEED": "0",
    # numpy's BLAS pool would put threads under the fork and above nproc
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _pin_environment() -> None:
    """Re-exec once with the pinned environment (the hash salt is fixed at
    start-up) and without ``REPRO_*``, which would change config defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(_PINNED_ENV)
    if env != dict(os.environ):
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _parse_args(argv: list[str], default_seed: int, full_seconds: float) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the four workloads (see README.md)")
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(full_seconds),
        help=f"measuring budget; scales the number of days, {full_seconds} is full size",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replays", type=int, help="replays per run (default 3)")
    parser.add_argument(
        "--selfcheck",
        action="store_true",
        help="run two sets of runs per workload and compare their medians",
    )
    parser.add_argument("--runs", type=int, default=3, help="runs per set for --selfcheck")
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required (or --selfcheck)")
    if (args.replays is not None and args.replays < 1) or args.seconds <= 0:
        parser.error("--replays and --seconds must be positive")
    return args


# -- reporting ---------------------------------------------------------------


def _report(result: dict, declared: list[tuple[str, str]]) -> int:
    """Print every declared metric, the breaches, and the final JSON line."""
    metrics = result["metrics"]
    width = max(len(name) for name, _ in declared)
    for name, unit in declared:
        print(f"{name:<{width}}  {metrics[name]!r:>22}  {unit}")
    for breach in result["breaches"]:
        print(f"BREACH: {breach}")
    failed = result["failed"] + len(result["breaches"])
    print(
        json.dumps(
            {
                "correct": not result["breaches"],
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared
                },
            }
        )
    )
    return 1 if result["breaches"] else 0


def main(argv: list[str]) -> int:
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # imported here, not at the top: the re-exec in ``_pin_environment``
    # would otherwise pay for importing the program twice
    from measure import measure, measure_traced
    from metrics import END_TO_END, PER_LAYER
    from workloads import DEFAULT_SEED, FULL_SECONDS, WORKLOADS

    import_s = time.perf_counter() - _PROCESS_START
    args = _parse_args(argv, DEFAULT_SEED, FULL_SECONDS)
    if args.selfcheck:
        import selfcheck

        return selfcheck.main(args.runs, args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    if args.trace:
        result = measure_traced(spec, args.seed, args.seconds, import_s)
        declared = [(m.name, m.unit) for m in PER_LAYER]
        print(f"spans: {result['spans_path'].relative_to(ROOT)}")
    else:
        result = measure(spec, args.seed, args.seconds, import_s, args.replays)
        declared = [(m.name, m.unit) for m in END_TO_END]
    return _report(result, declared)


if __name__ == "__main__":
    _pin_environment()
    sys.exit(main(sys.argv[1:]))
