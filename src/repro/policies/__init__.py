"""The steering policy (see :mod:`repro.policies.base`).

The recommendation layer ranks through one policy:
:class:`BanditSteeringPolicy`, the paper's CB/Personalizer stack, built on
the :class:`LearnedSteeringPolicy` Rank/Reward skeleton.
"""

from __future__ import annotations

from repro.policies.bandit import BanditSteeringPolicy
from repro.policies.base import LearnedSteeringPolicy, PolicyVersion

__all__ = [
    "LearnedSteeringPolicy",
    "PolicyVersion",
    "BanditSteeringPolicy",
]
