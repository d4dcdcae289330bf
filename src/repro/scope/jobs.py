"""Jobs and recurring job templates.

A *template* is the paper's recurring unit: the same script shape submitted
periodically with different input cardinalities and filter constants
(§2.1).  A :class:`JobInstance` is one dated submission of a template.
QO-Advisor keys its hints by template id, exactly as SIS does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scope.optimizer.rules.base import RuleFlip

__all__ = ["JobTemplate", "JobInstance"]


@dataclass(frozen=True)
class JobTemplate:
    """A recurring script shape."""

    template_id: str
    name: str
    #: True when the template is re-submitted daily
    recurring: bool = True


@dataclass(frozen=True)
class JobInstance:
    """One dated submission of a job template."""

    job_id: str
    template_id: str
    name: str
    script: str
    day: int
    #: a user-provided hint overriding the default configuration (§2.1:
    #: up to 9 % of SCOPE jobs carry manual hints)
    manual_hint: RuleFlip | None = None

    def run_key(self, attempt: int = 0) -> tuple:
        """A stable key identifying one execution of this job."""
        return ("run", self.job_id, self.day, attempt)
