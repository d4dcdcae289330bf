"""Counterfactual (off-policy) evaluation of steering policies.

The paper tunes QO-Advisor with counterfactual evaluation over logged
telemetry instead of live experiments (§6).  This example gathers a
uniform-logging event log, then scores three candidate policies offline —
uniform, greedy and epsilon-greedy — with IPS / SNIPS / DR estimators,
without recompiling a single extra job.

    python examples/counterfactual_evaluation.py
"""

from __future__ import annotations

import dataclasses

from repro import QOAdvisor, SimulationConfig
from repro.bandit.offpolicy import dr_estimate, ips_estimate, snips_estimate
from repro.bandit.policy import EpsilonGreedyPolicy, UniformPolicy
from repro.config import WorkloadConfig
from repro.core.recommend import train_off_policy
from repro.core.spans import SpanComputer


def main() -> None:
    config = dataclasses.replace(
        SimulationConfig(seed=21),
        workload=WorkloadConfig(num_templates=25, num_tables=14),
    )
    advisor = QOAdvisor(config)
    spans = SpanComputer(advisor.engine)

    print("gathering a uniform-logging event log (6 days)...")
    events = train_off_policy(
        advisor.engine, advisor.workload, spans, advisor.policy, range(6)
    )
    log = advisor.policy.event_log
    print(f"  {events} events logged, mean logged reward "
          f"{sum(e.reward for e in log) / len(log):.3f}")

    learner = advisor.policy.learner
    acting = advisor.policy.greedy_policy  # the learned mode's epsilon-greedy
    policies = {
        "uniform (logging)": UniformPolicy(),
        "greedy (eps=0)": EpsilonGreedyPolicy(0.0, acting.bits, acting.interaction_order),
        f"eps-greedy (eps={acting.epsilon})": acting,
    }
    print(f"\n{'policy':24s} {'IPS':>8s} {'SNIPS':>8s} {'DR':>8s}")
    for name, policy in policies.items():
        ips = ips_estimate(log, policy, scorer=learner)
        snips = snips_estimate(log, policy, scorer=learner)
        dr = dr_estimate(log, policy, advisor.policy.predicted_reward, scorer=learner)
        print(f"{name:24s} {ips:8.3f} {snips:8.3f} {dr:8.3f}")
    print("\nhigher is better (reward = clipped estimated-cost ratio; 1.0 = no-op)")
    print("the greedy policy should dominate the uniform logger it learned from.")


if __name__ == "__main__":
    main()
