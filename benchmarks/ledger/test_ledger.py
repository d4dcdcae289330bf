"""Checks of the ledger itself, at smoke size (2 days, 2 replays per run).

Run explicitly — ``python -m pytest benchmarks/ledger/test_ledger.py -q`` —
it is not part of tier-1 (``testpaths = tests``) and takes a few minutes:
every workload is set up several times.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from metrics import END_TO_END, PER_LAYER
from tracing import read_spans, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOAD_NAMES = tuple(WORKLOADS)
SMOKE = ("--seconds", "2", "--replays", "2")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_ledger(*args: str, cwd: Path = ROOT, script: Path | None = None):
    script = script or HERE / "run.py"
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180, check=False,
    )


def parse(stdout: str) -> tuple[dict[str, tuple[float, str]], dict]:
    """The printed ``name value unit`` rows and the final JSON object."""
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and NAME.fullmatch(parts[0]):
            printed[parts[0]] = (float(parts[1]), parts[2])
    return printed, json.loads(lines[-1])


_cache: dict[tuple, tuple] = {}


def smoke(workload: str, trace: int, attempt: int = 0):
    key = (workload, trace, attempt)
    if key not in _cache:
        done = run_ledger("--workload", workload, "--trace", str(trace), *SMOKE)
        assert done.returncode == 0, done.stdout + done.stderr
        _cache[key] = parse(done.stdout)
    return _cache[key]


def test_manifest_lists_what_the_ledger_declares():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert manifest["workloads"] == [
        {"name": spec.name, "why": spec.why} for spec in WORKLOADS.values()
    ]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOAD_NAMES)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_end_to_end_metric(workload):
    printed, result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in END_TO_END]
    for metric in END_TO_END:
        value, unit = printed[metric.name]
        assert unit == metric.unit == result["metrics"][metric.name]["unit"]
        assert value == result["metrics"][metric.name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_exactly(workload):
    _, first = smoke(workload, trace=0)
    _, second = smoke(workload, trace=0, attempt=1)
    assert (
        first["metrics"]["optimizer_invocations"]
        == second["metrics"]["optimizer_invocations"]
    )
    assert first["attempted"] == second["attempted"]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_every_layer_and_a_sound_span_file(workload):
    printed, result = smoke(workload, trace=1)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m.name for m in PER_LAYER]
    for metric in PER_LAYER:
        assert printed[metric.name][1] == metric.unit
        assert printed[metric.name][0] >= 0 or metric.unit == "%"
    assert result["metrics"]["scope.optimizer.engine.invocations"]["value"] > 0

    header, spans = read_spans(HERE / "out" / f"{workload}.spans.jsonl")
    assert spans and tuple(header["fields"]) == spans[0]._fields
    ids = {span.id for span in spans}
    assert len(ids) == len(spans)
    assert all(span.parent is None or span.parent in ids for span in spans)
    assert all(span.seconds >= 0 and str(span.thread) in header["threads"] for span in spans)
    own = self_times(spans)
    assert min(own.values()) > -1e-9
    # per thread, self times add up to no more than the thread was observed for
    busy, first, last = defaultdict(float), {}, {}
    for span in spans:
        busy[span.thread] += own[span.id]
        first[span.thread] = min(first.get(span.thread, span.start), span.start)
        last[span.thread] = max(last.get(span.thread, span.end), span.end)
    for thread, total in busy.items():
        assert total <= last[thread] - first[thread] + 1e-6


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "journals", "*.spans.jsonl"),
    )
    done = run_ledger(
        "--workload", "cold_bootstrap", "--seed", "1", "--seconds", "2", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "ledger" / "run.py",
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
