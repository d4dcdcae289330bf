"""Shared fixtures: a small catalog, engine and workload.

Set ``REPRO_QA_LOCKS=1`` to run the whole suite under the runtime
lock-order tracer (:mod:`repro.qa.lockgraph`): every lock-bearing object
constructed during the session self-instruments, and the session fails
at teardown on any lock-order cycle or fan-out hazard observed anywhere
in the run.  Off by default — the toggle costs nothing when unset.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

import pytest

from repro.config import SimulationConfig, WorkloadConfig
from repro.rng import stable_hash
from repro.scope.catalog import Catalog, ColumnStats, TableDef
from repro.scope.engine import ScopeEngine
from repro.scope.jobs import JobInstance
from repro.scope.types import Column, DataType, Schema
from repro.workload.generator import Workload, build_workload
import dataclasses


@pytest.fixture(scope="session", autouse=True)
def _qa_lock_tracing():
    """Opt-in session-wide deadlock detection (``REPRO_QA_LOCKS=1``)."""
    if os.environ.get("REPRO_QA_LOCKS") != "1":
        yield
        return
    from repro.qa import LockRegistry, auto_instrument_constructors

    registry = LockRegistry()
    undo = auto_instrument_constructors(registry)
    try:
        yield
    finally:
        undo()
    registry.assert_clean()


@pytest.fixture(scope="session")
def small_catalog() -> Catalog:
    catalog = Catalog(stats_seed=3, stats_staleness_sigma=0.1)
    catalog.add_table(
        TableDef(
            "users",
            Schema(
                [
                    Column("uid", DataType.LONG),
                    Column("age", DataType.INT),
                    Column("region", DataType.INT),
                ]
            ),
            1_000_000,
            {
                "uid": ColumnStats(0, 1e6, 1_000_000),
                "age": ColumnStats(0, 100, 100),
                "region": ColumnStats(0, 50, 50),
            },
        )
    )
    catalog.add_table(
        TableDef(
            "events",
            Schema(
                [
                    Column("uid", DataType.LONG),
                    Column("etype", DataType.INT),
                    Column("val", DataType.DOUBLE),
                ]
            ),
            20_000_000,
            {
                "uid": ColumnStats(0, 1e6, 900_000),
                "etype": ColumnStats(0, 20, 20),
                "val": ColumnStats(0, 1e4, 100_000),
            },
        )
    )
    return catalog


JOIN_AGG_SCRIPT = """
raw = EXTRACT uid:long, etype:int, val:double FROM "/shares/data/events.ss";
filtered = SELECT uid, val FROM raw WHERE etype == 3 AND val > 10.5;
joined = SELECT u.region, f.val FROM filtered AS f JOIN users AS u ON f.uid == u.uid;
agg = SELECT region, COUNT(*) AS cnt, SUM(val) AS total FROM joined GROUP BY region;
OUTPUT agg TO "/out/agg.ss";
OUTPUT filtered TO "/out/filtered.ss";
"""

SIMPLE_SCRIPT = """
raw = EXTRACT uid:long, etype:int FROM "/shares/data/events.ss";
slim = SELECT uid FROM raw WHERE etype == 3;
OUTPUT slim TO "/out/slim.ss";
"""

COPY_SCRIPT = """
raw = EXTRACT uid:long, age:int FROM "/shares/data/users.ss";
OUTPUT raw TO "/out/copy.ss";
"""


def plan_identity(result) -> tuple:
    """What two compiles of one (script, configuration) must agree on."""
    return (
        result.plan.pretty(),
        result.est_cost,
        result.signature.rule_ids,
        result.config,
    )


@pytest.fixture(scope="session")
def engine(small_catalog) -> ScopeEngine:
    return ScopeEngine(small_catalog, SimulationConfig(seed=101))


@pytest.fixture(scope="session")
def join_agg_job() -> JobInstance:
    return JobInstance("j-agg", "t-agg", "join_agg", JOIN_AGG_SCRIPT, day=0)


@pytest.fixture(scope="session")
def simple_job() -> JobInstance:
    return JobInstance("j-simple", "t-simple", "simple", SIMPLE_SCRIPT, day=0)


@pytest.fixture(scope="session")
def copy_job() -> JobInstance:
    return JobInstance("j-copy", "t-copy", "copy", COPY_SCRIPT, day=0)


@pytest.fixture(scope="session")
def tiny_config() -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=42),
        workload=WorkloadConfig(num_templates=16, num_tables=10),
    )


@pytest.fixture(scope="session")
def tiny_workload(tiny_config) -> Workload:
    return build_workload(tiny_config)


@pytest.fixture(scope="session")
def tiny_engine(tiny_workload, tiny_config) -> ScopeEngine:
    return ScopeEngine(tiny_workload.catalog, tiny_config, tiny_workload.registry)


# ---------------------------------------------------------------------------
# the featurizer oracle
# ---------------------------------------------------------------------------
# The featurizer and scorer as they stood before the rank path shared the
# context part across a job's actions (PR 13): every feature hashed afresh,
# the whole vector rebuilt per action, one sequential sum per vector.  Kept
# as the reference the shared-context path must equal bit for bit
# (tests/test_bandit.py, tests/test_policies.py) — do not "tidy" it towards
# the code under test.


def reference_joint_features(context, action, bits, interaction_order=3) -> dict[int, float]:
    values: dict[int, float] = {}

    def add(namespace, name):
        index = stable_hash("feat", namespace, name) & ((1 << bits) - 1)
        values[index] = values.get(index, 0.0) + 1.0

    def bucket(value):
        return "neg" if value <= 0 else str(int(math.log10(value + 1.0)))

    span = tuple(sorted(context.span))
    for rule_id in span:
        add("span", f"s{rule_id}")
    if interaction_order >= 2:
        for a, b in combinations(span, 2):
            add("span2", f"s{a}&s{b}")
    if interaction_order >= 3:
        for a, b, c in combinations(span, 3):
            add("span3", f"s{a}&s{b}&s{c}")
    add("job", f"cost_{bucket(context.estimated_cost)}")
    add("job", f"card_{bucket(context.estimated_cardinality)}")
    add("job", f"rows_{bucket(context.row_count)}")
    add("job", f"read_{bucket(context.bytes_read)}")
    add("job", f"verts_{bucket(context.vertices)}")
    add("job", f"width_{bucket(context.avg_row_length)}")
    if context.job_name:
        add("job", f"name_{context.job_name.split('_')[0]}")
    if action.rule_id is None:
        add("action", "noop")
        return values
    add("action", f"rule_{action.rule_id}")
    add("action", f"dir_{'on' if action.turn_on else 'off'}")
    if action.category:
        add("action", f"cat_{action.category}")
    for span_rule in context.span:
        add("cross", f"s{span_rule}|a{action.rule_id}")
    add("cross", f"self|{'in' if action.rule_id in context.span else 'out'}")
    return values


def reference_score(weights, values: dict[int, float]) -> float:
    total = 0.0
    for index, value in values.items():
        total += weights[index] * value
    return total


class PerIndexOnly:
    """A policy seen through ``action_probability`` alone — the off-policy
    estimators' call pattern before policies offered the whole distribution."""

    def __init__(self, policy):
        self.action_probability = policy.action_probability
