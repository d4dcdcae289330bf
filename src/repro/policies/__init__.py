"""The steering policy (see :mod:`repro.policies.base`).

The recommendation layer ranks through one policy, the paper's
CB/Personalizer stack: :class:`LearnedSteeringPolicy`, built by the
pipeline under its telemetry name :class:`BanditSteeringPolicy`.
"""

from __future__ import annotations

from repro.policies.bandit import BanditSteeringPolicy
from repro.policies.base import LearnedSteeringPolicy

__all__ = [
    "LearnedSteeringPolicy",
    "BanditSteeringPolicy",
]
