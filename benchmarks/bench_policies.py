"""Fleet-scale counterfactual face-off between the steering policies.

Every :data:`~repro.policies.POLICY_NAMES` entry — the paper's contextual
bandit, the Bao-style per-action value model, and the Neo-style
plan-guided scorer — drives the *same* fleet (2 shards × 4 workers, same
workload stream) through bootstrap-free uniform-logging warm-up followed
by learned steering, and is then measured three ways:

* **deployment**: hinted-vs-default latency/PNhours on a fresh day
  (Table-2 style), plus the regression count the cost filter caught and
  the compile overhead (optimizer invocations / script compilations);
* **counterfactual**: IPS / SNIPS / DR estimates of the learned policy's
  value over its *own* uniform-propensity log (§6's offline loop);
* **Table-3 face-off**: the policy vs uniformly-random flips on a fresh
  serial harness (lower/higher/failure fractions, total-cost factor).

Writes ``BENCH_policies.json`` at the repo root so later PRs can track
per-policy trajectories without re-deriving them from bench output text.
"""

import dataclasses
import json
import math
from pathlib import Path

from repro import QOAdvisor, SimulationConfig
from repro.analysis.aggregate import measure_hinted_day
from repro.analysis.report import ComparisonRow
from repro.analysis.table3 import run_table3_experiment
from repro.bandit.offpolicy import dr_estimate, ips_estimate, snips_estimate
from repro.config import (
    ExecutionConfig,
    FlightingConfig,
    PolicyConfig,
    ShardingConfig,
    WorkloadConfig,
)
from repro.core.recompile import CostOutcome
from repro.policies import POLICY_NAMES

from benchmarks.conftest import record

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_policies.json"

_BOOTSTRAP_DAYS = 6
_FLEET_DAYS = 6
_LEARNED_AFTER = 2


def _fleet_config(policy_name: str) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=20220613),
        workload=WorkloadConfig(
            num_templates=12, num_tables=10, manual_hint_fraction=0.0
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        policy=PolicyConfig(name=policy_name),
        execution=ExecutionConfig(workers=4, backend="thread"),
        sharding=ShardingConfig(shards=2),
    )


def _table3_config(policy_name: str) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=20220613),
        workload=WorkloadConfig(
            num_templates=10, num_tables=8, manual_hint_fraction=0.0
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        policy=PolicyConfig(name=policy_name),
    )


def _run_policy(policy_name: str) -> dict:
    advisor = QOAdvisor(_fleet_config(policy_name))
    advisor.bootstrap(start_day=0, days=_BOOTSTRAP_DAYS)
    reports = advisor.simulate(
        start_day=_BOOTSTRAP_DAYS, days=_FLEET_DAYS, learned_after=_LEARNED_AFTER
    )
    deployment = measure_hinted_day(advisor, day=_BOOTSTRAP_DAYS + _FLEET_DAYS)

    stats = advisor.engine.compilation.stats
    stats = stats.snapshot() if hasattr(stats, "snapshot") else stats

    log = advisor.policy.event_log
    mean_reward = (
        sum(event.reward for event in log) / len(log) if log else 0.0
    )
    estimates = {
        "ips": ips_estimate(log, advisor.policy),
        "snips": snips_estimate(log, advisor.policy),
        "dr": dr_estimate(
            log, advisor.policy, lambda context, action: mean_reward
        ),
        "events": len(log),
        "mean_logged_reward": round(mean_reward, 4),
    }

    learned_reports = reports[_LEARNED_AFTER:]
    regressions_caught = sum(
        report.outcome_counts()[CostOutcome.HIGHER] for report in learned_reports
    )
    lower_cost = sum(
        report.outcome_counts()[CostOutcome.LOWER] for report in learned_reports
    )
    row = {
        "policy": policy_name,
        "model_version": advisor.policy.model_version,
        "latency_saved_frac": round(-deployment.latency_reduction, 4),
        "pnhours_saved_frac": round(-deployment.pnhours_reduction, 4),
        "hinted_jobs": deployment.matched_jobs,
        "active_hints": deployment.active_hints,
        "lower_cost_recompiles": lower_cost,
        "regressions_caught": regressions_caught,
        "deployed_latency_regressions": sum(
            1 for delta in deployment.latency_deltas if delta > 0.05
        ),
        "compile_overhead": {
            "optimizer_invocations": stats.optimizer_invocations,
            "script_compilations": stats.script_compilations,
        },
        "offpolicy": {
            key: round(value, 4) if isinstance(value, float) else value
            for key, value in estimates.items()
        },
    }
    if policy_name == "plan_guided":
        row["plan_feature_hits"] = advisor.policy.plan_feature_hits
        row["plan_feature_misses"] = advisor.policy.plan_feature_misses
    advisor.close()

    # Table-3 face-off on a fresh serial harness (its own fresh policy in
    # uniform-logging mode, trained off-policy by the experiment itself)
    t3_advisor = QOAdvisor(_table3_config(policy_name))
    table3 = run_table3_experiment(
        t3_advisor.engine,
        t3_advisor.workload,
        training_days=range(0, 3),
        eval_days=range(3, 5),
        policy=t3_advisor.policy,
    )
    row["table3"] = {
        "random_lower_frac": round(table3.random.fraction("lower"), 4),
        "lower_frac": round(table3.bandit.fraction("lower"), 4),
        "higher_frac": round(table3.bandit.fraction("higher"), 4),
        "failures_frac": round(table3.bandit.fraction("failures"), 4),
        "cost_improvement_factor": (
            round(table3.cost_improvement_factor, 2)
            if math.isfinite(table3.cost_improvement_factor)
            else "inf"
        ),
    }
    t3_advisor.close()
    return row


def test_policy_bench():
    rows = {name: _run_policy(name) for name in POLICY_NAMES}

    for name, row in rows.items():
        # every policy logged decisions and yields finite counterfactual
        # estimates of its own learned behaviour
        assert row["offpolicy"]["events"] > 0, name
        assert math.isfinite(row["offpolicy"]["ips"]), name
        assert math.isfinite(row["offpolicy"]["dr"]), name
        assert row["offpolicy"]["snips"] > 0.0, name
        # the pipeline deployed hints and measured them
        assert row["active_hints"] > 0, name
        assert row["model_version"] > 0, name
    # the Neo-style policy really scored plans out of the cache — for
    # free: the fleet never compiled more than the bandit's schedule did
    assert rows["plan_guided"]["plan_feature_hits"] > 0
    bandit_compiles = rows["bandit"]["compile_overhead"]["optimizer_invocations"]
    for name, row in rows.items():
        overhead = (
            row["compile_overhead"]["optimizer_invocations"] / bandit_compiles
        )
        assert 0.5 < overhead < 2.0, (name, overhead)

    payload = {
        "fleet": {
            "seed": 20220613,
            "templates": 12,
            "shards": 2,
            "workers": 4,
            "bootstrap_days": _BOOTSTRAP_DAYS,
            "days": _FLEET_DAYS,
            "learned_after": _LEARNED_AFTER,
        },
        "policies": rows,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    record(
        "steering-policy face-off — bandit vs value_model vs plan_guided",
        [
            ComparisonRow(
                f"{name}: latency saved / regressions / compiles",
                "CB-like shape (Table 2 saves, few regressions)",
                f"{row['latency_saved_frac']:+.1%} / {row['regressions_caught']} / "
                f"{row['compile_overhead']['optimizer_invocations']}",
                holds=row["offpolicy"]["snips"] > 0.0,
            )
            for name, row in rows.items()
        ]
        + [
            ComparisonRow(
                f"{name}: SNIPS value of own log",
                "> uniform baseline when learning helps",
                f"{row['offpolicy']['snips']:.3f} "
                f"(mean logged {row['offpolicy']['mean_logged_reward']:.3f})",
                holds=row["offpolicy"]["snips"] > 0.0,
            )
            for name, row in rows.items()
        ],
    )
