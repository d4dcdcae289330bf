"""Pluggable steering policies (see :mod:`repro.policies.base`).

The recommendation layer talks to :class:`SteeringPolicy` and nothing
else; :func:`build_policy` turns a :class:`~repro.config.PolicyConfig`
into a live policy.  Three implementations ship:

* ``"bandit"`` — :class:`BanditSteeringPolicy`, the paper's
  CB/Personalizer stack (the byte-identical default);
* ``"value_model"`` — :class:`ValueModelPolicy`, Bao-style per-hint-set
  reward regressors;
* ``"plan_guided"`` — :class:`PlanGuidedPolicy`, Neo-style scoring of
  hint-sets against the compiled plan's structure (plan-cache peeks only;
  no extra optimizer invocations).
"""

from __future__ import annotations

from repro.config import SimulationConfig
from repro.errors import ValidationError
from repro.policies.bandit import BanditSteeringPolicy
from repro.policies.base import LearnedSteeringPolicy, PolicyVersion, SteeringPolicy
from repro.policies.plan_guided import PlanGuidedPolicy
from repro.policies.value_model import ValueModelPolicy

__all__ = [
    "SteeringPolicy",
    "LearnedSteeringPolicy",
    "PolicyVersion",
    "BanditSteeringPolicy",
    "ValueModelPolicy",
    "PlanGuidedPolicy",
    "POLICY_NAMES",
    "build_policy",
]

POLICY_NAMES = ("bandit", "value_model", "plan_guided")


def build_policy(config: SimulationConfig, engine=None) -> SteeringPolicy:
    """Construct the steering policy ``config.policy`` selects.

    ``engine`` is the :class:`~repro.scope.engine.ScopeEngine` whose shard
    plan caches the plan-guided policy peeks; policies that
    don't consult plans ignore it.  The bandit takes its parameters from
    ``config.bandit``, the other two from ``config.policy``.
    """
    name = config.policy.name
    if name == "bandit":
        return BanditSteeringPolicy(config.bandit, seed=config.seed)
    if name == "value_model":
        return ValueModelPolicy(
            epsilon=config.policy.epsilon,
            seed=config.seed,
            max_samples_per_action=config.policy.max_samples_per_action,
        )
    if name == "plan_guided":
        return PlanGuidedPolicy(
            engine=engine,
            epsilon=config.policy.epsilon,
            seed=config.seed,
            bits=config.policy.hash_bits,
            learning_rate=config.policy.learning_rate,
        )
    raise ValidationError(
        f"unknown steering policy {name!r}; expected one of {POLICY_NAMES}"
    )
