"""Fleet-scale evaluation of the steering policy, the paper's contextual bandit.

At the ledger seed and at a held-out seed, the bandit drives a fleet
(2 shards × 4 workers) through bootstrap, uniform-logging days and learned
steering, and is then measured three ways:

* **deployment**: hinted-vs-default latency/PNhours on a fresh day
  (Table-2 style), plus the regressions the cost filter caught and the
  compile overhead (optimizer invocations / script compilations); every
  flip validation accepted on a simulated day must have flown with no
  PNhours regression;
* **counterfactual**: IPS / SNIPS / DR estimates of the learned policy's
  value over its *own* uniform-propensity log (§6's offline loop);
* **Table 3**: the bandit vs uniformly-random flips on a fresh serial
  harness (lower/higher/failure fractions, total-cost factor).

Writes ``BENCH_policies.json`` at the repo root, one row per seed, so a
publish gate on the estimators can read it without re-deriving it from
bench output text.  Run with ``python -m pytest benchmarks/bench_policies.py``.
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
    ShardingConfig,
    WorkloadConfig,
)
from repro.core.recompile import CostOutcome

_RESULT_PATH = Path(__file__).resolve().parents[1] / "BENCH_policies.json"

#: the ledger's seed and the held-out seed
_SEEDS = (20220613, 20240907)
_BOOTSTRAP_DAYS = 6
_FLEET_DAYS = 6
_LEARNED_AFTER = 2


def _fleet_config(seed: int) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(
            num_templates=12, num_tables=10, manual_hint_fraction=0.0
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
        execution=ExecutionConfig(workers=4),
        sharding=ShardingConfig(shards=2),
    )


def _table3_config(seed: int) -> SimulationConfig:
    return dataclasses.replace(
        SimulationConfig(seed=seed),
        workload=WorkloadConfig(
            num_templates=10, num_tables=8, manual_hint_fraction=0.0
        ),
        flighting=FlightingConfig(filtered_prob=0.0, failure_prob=0.0),
    )


def _run_bandit(seed: int) -> dict:
    advisor = QOAdvisor(_fleet_config(seed))
    advisor.bootstrap(start_day=0, days=_BOOTSTRAP_DAYS)
    reports = advisor.simulate(
        start_day=_BOOTSTRAP_DAYS, days=_FLEET_DAYS, learned_after=_LEARNED_AFTER
    )
    # validation's veto: no flip that flew as a PNhours regression is
    # accepted, whatever the model predicted for it
    dearer = [
        (report.day, validated.template_id, validated.flight.pnhours_delta)
        for report in reports
        for validated in report.validated
        if validated.flight.pnhours_delta > 0
    ]
    assert not dearer, (seed, dearer)
    deployment = measure_hinted_day(advisor, day=_BOOTSTRAP_DAYS + _FLEET_DAYS)
    stats = advisor.engine.compilation.stats

    log = advisor.policy.event_log
    greedy, learner = advisor.policy.greedy_policy, advisor.policy.learner
    mean_reward = (
        sum(event.reward for event in log) / len(log) if log else 0.0
    )
    estimates = {
        "ips": ips_estimate(log, greedy, scorer=learner),
        "snips": snips_estimate(log, greedy, scorer=learner),
        "dr": dr_estimate(
            log, greedy, lambda context, action: mean_reward, scorer=learner
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
    advisor.close()

    # Table 3 on a fresh serial harness (its own fresh bandit in
    # uniform-logging mode, trained off-policy by the experiment itself)
    t3_advisor = QOAdvisor(_table3_config(seed))
    table3 = run_table3_experiment(
        t3_advisor.engine,
        t3_advisor.workload,
        training_days=range(0, 3),
        eval_days=range(3, 5),
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


def test_policy_bench(summary):
    rows = {seed: _run_bandit(seed) for seed in _SEEDS}

    for seed, row in rows.items():
        # the bandit logged decisions and yields finite counterfactual
        # estimates of its own learned behaviour
        assert row["offpolicy"]["events"] > 0, seed
        assert math.isfinite(row["offpolicy"]["ips"]), seed
        assert math.isfinite(row["offpolicy"]["dr"]), seed
        assert row["offpolicy"]["snips"] > 0.0, seed
        # the pipeline deployed hints and measured them
        assert row["active_hints"] > 0, seed
        assert row["model_version"] > 0, seed

    payload = {
        "fleet": {
            "templates": 12,
            "shards": 2,
            "workers": 4,
            "bootstrap_days": _BOOTSTRAP_DAYS,
            "days": _FLEET_DAYS,
            "learned_after": _LEARNED_AFTER,
        },
        "bandit": {str(seed): row for seed, row in rows.items()},
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    summary.append((
        "steering policy — the bandit at the ledger and held-out seeds",
        [
            ComparisonRow(
                f"seed {seed}: latency saved / deployed regressions",
                "Table 2 saves, few regressions",
                f"{row['latency_saved_frac']:+.1%} / "
                f"{row['deployed_latency_regressions']}",
            )
            for seed, row in rows.items()
        ]
        + [
            ComparisonRow(
                f"seed {seed}: SNIPS value of own log",
                "> uniform baseline when learning helps",
                f"{row['offpolicy']['snips']:.3f} "
                f"(mean logged {row['offpolicy']['mean_logged_reward']:.3f})",
                holds=row["offpolicy"]["snips"] > row["offpolicy"]["mean_logged_reward"],
            )
            for seed, row in rows.items()
        ]
        + [
            ComparisonRow(
                f"seed {seed}: Table 3 lower-cost, CB vs random",
                "CB ≈ 3× random",
                f"{row['table3']['lower_frac']:.1%} vs "
                f"{row['table3']['random_lower_frac']:.1%}",
                holds=row["table3"]["lower_frac"] > row["table3"]["random_lower_frac"],
            )
            for seed, row in rows.items()
        ],
    ))
