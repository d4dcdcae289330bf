"""Hint Generation: validated flips → SIS hint file (paper §4.4).

Validated (template, flip) pairs are exploded to all jobs of the template
simply by keying the SIS file on the template id — the optimizer applies
the hint to every future instance.  The daily upload merges with the
currently active hints (newest wins) under a per-day cap.
"""

from __future__ import annotations

from repro.core.validate import ValidatedFlip
from repro.scope.optimizer.rules.base import RuleRegistry
from repro.sis.hints import HintEntry
from repro.sis.service import HintFileVersion, SISService

__all__ = ["HintGenerationTask"]

#: most rule flips uploaded to SIS per day
_MAX_HINTS_PER_DAY = 50


class HintGenerationTask:
    """Publishes validated flips through SIS."""

    def __init__(
        self,
        sis: SISService,
        registry: RuleRegistry,
        max_hints_per_day: int = _MAX_HINTS_PER_DAY,
    ) -> None:
        self.sis = sis
        self.registry = registry
        self.max_hints_per_day = max_hints_per_day

    def run(self, validated: list[ValidatedFlip], day: int) -> HintFileVersion | None:
        """Upload the merged hint file; returns None when nothing changed."""
        ranked = sorted(validated, key=lambda v: v.predicted_pnhours_delta)
        fresh: dict[str, HintEntry] = {}
        for item in ranked:
            if len(fresh) >= self.max_hints_per_day:
                break
            if item.template_id not in fresh:
                fresh[item.template_id] = HintEntry(item.template_id, item.flip)
        if not fresh:
            return None
        merged: dict[str, HintEntry] = {
            template_id: HintEntry(template_id, flip)
            for template_id, flip in self.sis.active_hints().items()
        }
        merged.update(fresh)
        entries = [merged[key] for key in sorted(merged)]
        return self.sis.upload(entries, day)
