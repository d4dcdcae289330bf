"""Quickstart: deploy QO-Advisor on a synthetic SCOPE workload tier.

Runs the full loop at small scale: bootstrap (validation-model corpus +
off-policy bandit warm-up), a few pipeline days, and a look at the hints
that reached SIS.

    python examples/quickstart.py   # ~2 minutes
"""

from __future__ import annotations

from repro import QOAdvisor, SimulationConfig


def main() -> None:
    advisor = QOAdvisor(SimulationConfig(seed=7))
    print(f"workload: {len(advisor.workload.templates)} templates, "
          f"{len(advisor.workload.catalog)} tables, "
          f"{len(advisor.registry)} optimizer rules")

    print("bootstrapping (uniform logging + validation corpus)...")
    advisor.bootstrap(start_day=0, days=10)
    print(f"  validation model fitted on "
          f"{advisor.pipeline.validation_model.training_samples} flights; "
          f"{len(advisor.policy.event_log)} bandit events logged")

    print("running 6 pipeline days...")
    reports = advisor.simulate(start_day=10, days=6, learned_after=2)
    for report in reports:
        counts = {k.value: v for k, v in report.outcome_counts().items() if v}
        print(
            f"  day {report.day}: {len(report.production_runs)} jobs, "
            f"{report.steerable_fraction:.0%} steerable, outcomes={counts}, "
            f"{len(report.flight_results)} flighted, "
            f"{len(report.validated)} validated, "
            f"{report.active_hint_count} active hints"
        )

    hints = advisor.sis.active_hints()
    print(f"\nactive hints ({len(hints)}):")
    for template_id, flip in sorted(hints.items()):
        print(f"  {template_id}: {flip.describe(advisor.registry)}")

    evaluation = advisor.policy.counterfactual_evaluate()
    print("\ncounterfactual evaluation of the learned policy:")
    for name in ("ips", "snips", "dr", "logged_mean"):
        print(f"  {name:12s} {evaluation[name]:.3f}")


if __name__ == "__main__":
    main()
