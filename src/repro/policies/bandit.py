"""The paper's contextual bandit under the name the pipeline builds.

:class:`BanditSteeringPolicy` adds nothing to
:class:`~repro.policies.base.LearnedSteeringPolicy` but its telemetry
name.  It stays a subclass, not an alias, because the perf ledger's tracer
wraps ``rank`` and ``observe`` on both classes by name: an alias would
wrap one function twice, and an override calling ``super()`` would open
two spans per call.
"""

from __future__ import annotations

from repro.policies.base import LearnedSteeringPolicy

__all__ = ["BanditSteeringPolicy"]


class BanditSteeringPolicy(LearnedSteeringPolicy):
    """The Personalizer stand-in the pipeline ranks through."""

    name = "bandit"
