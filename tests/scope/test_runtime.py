"""Runtime simulator tests: stages, metrics, variance structure."""

import numpy as np
import pytest

from repro.scope.compile import compile_script
from repro.scope.plan import physical
from repro.scope.runtime.executor import MAX_TOKENS
from repro.scope.runtime.metrics import JobMetrics, relative_delta

from tests.conftest import COPY_SCRIPT, JOIN_AGG_SCRIPT


@pytest.fixture(scope="module")
def agg_plan(engine, small_catalog):
    return engine.optimize(compile_script(JOIN_AGG_SCRIPT, small_catalog))


def test_stage_graph_boundaries_at_exchanges(engine, agg_plan):
    graph = engine.runtime.stage_graph(agg_plan.plan)
    assert len(graph) >= 3  # at least extract stages + join stage + agg stage
    exchange_inputs = [
        inp for stage in graph for inp in stage.inputs if inp.kind == "exchange"
    ]
    assert exchange_inputs


def test_stage_graph_topological_producers_first(engine, agg_plan):
    graph = engine.runtime.stage_graph(agg_plan.plan)
    for stage in graph:
        for producer in stage.producer_ids:
            assert producer < stage.stage_id


def test_shared_subplan_counted_once(engine, agg_plan):
    graph = engine.runtime.stage_graph(agg_plan.plan)
    extract_stages = [
        s for s in graph for n in s.nodes if isinstance(n.op, physical.Extract)
    ]
    names = [
        n.op.table.name
        for s in graph
        for n in s.nodes
        if isinstance(n.op, physical.Extract)
    ]
    assert names.count("events") == 1


def test_execution_metrics_positive(engine, agg_plan):
    metrics = engine.execute(agg_plan, ("test", 0))
    assert metrics.latency_s > 0
    assert metrics.pnhours > 0
    assert metrics.vertices >= len(engine.runtime.stage_graph(agg_plan.plan))
    assert metrics.data_read > 0
    assert metrics.data_written > 0
    assert metrics.max_memory >= metrics.avg_memory > 0


def test_execution_is_deterministic_per_run_key(engine, agg_plan):
    first = engine.execute(agg_plan, ("same", 1))
    second = engine.execute(agg_plan, ("same", 1))
    assert first == second


def test_execution_varies_across_run_keys(engine, agg_plan):
    first = engine.execute(agg_plan, ("k", 1))
    second = engine.execute(agg_plan, ("k", 2))
    assert first.latency_s != second.latency_s


def test_latency_noisier_than_pnhours(engine, agg_plan):
    """The paper's core §5.1 observation, at the single-job level."""
    runs = [engine.execute(agg_plan, ("aa", i)) for i in range(12)]
    latency = np.array([m.latency_s for m in runs])
    pnhours = np.array([m.pnhours for m in runs])
    latency_cv = latency.std(ddof=1) / latency.mean()
    pnhours_cv = pnhours.std(ddof=1) / pnhours.mean()
    assert latency_cv > pnhours_cv
    assert pnhours_cv < 0.05


def test_data_volumes_stable_across_runs(engine, agg_plan):
    """I/O is data-bound: identical across A/A runs (paper §4.3)."""
    first = engine.execute(agg_plan, ("io", 1))
    second = engine.execute(agg_plan, ("io", 2))
    assert first.data_read == second.data_read
    assert first.data_written == second.data_written
    assert first.vertices == second.vertices


def test_copy_job_has_single_stage(engine, small_catalog):
    result = engine.optimize(compile_script(COPY_SCRIPT, small_catalog))
    graph = engine.runtime.stage_graph(result.plan)
    assert len(graph) == 1
    assert graph.stages[0].inputs[0].kind == "extract"


def test_relative_delta_convention():
    assert relative_delta(90.0, 100.0) == pytest.approx(-0.1)
    assert relative_delta(0.0, 0.0) == 0.0
    assert relative_delta(1.0, 0.0) == float("inf")


def test_metrics_delta():
    a = JobMetrics(100, 1.0, 10, 1e9, 1e8, 1e6, 1e6, 50, 50)
    b = JobMetrics(200, 2.0, 20, 2e9, 2e8, 1e6, 1e6, 100, 100)
    delta = a.delta(b)
    assert delta.latency == pytest.approx(-0.5)
    assert delta.pnhours == pytest.approx(-0.5)
    assert delta.vertices == pytest.approx(-0.5)


def test_parallelism_respects_max_tokens(engine, agg_plan):
    graph = engine.runtime.stage_graph(agg_plan.plan)
    for stage in graph:
        assert 1 <= stage.dop <= MAX_TOKENS
