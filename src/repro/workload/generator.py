"""The daily workload: recurring template instances plus one-offs.

The generated stream reproduces the workload facts the paper leans on:
most jobs are recurring (>60 %), roughly two thirds have non-empty spans
(shape mix), and up to ~9 % carry manual optimizer hints (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import SimulationConfig
from repro.rng import keyed_rng, stable_hash
from repro.scope.catalog import Catalog
from repro.scope.jobs import JobInstance, JobTemplate
from repro.scope.optimizer.rules.base import RuleFlip, RuleRegistry
from repro.workload.schemas import build_catalog, grow_catalog
from repro.workload.templates import ScriptTemplate, make_templates

__all__ = ["Workload", "build_workload"]

#: day-to-day input growth factor range for recurring instances
_DAILY_GROWTH_LOW = 0.85
_DAILY_GROWTH_HIGH = 1.25
#: relative staleness of the optimizer's base-table row counts
_STATS_STALENESS_SIGMA = 0.10


@dataclass
class Workload:
    """A workload tier: catalog + templates + daily job stream."""

    catalog: Catalog
    templates: list[ScriptTemplate]
    config: SimulationConfig
    registry: RuleRegistry
    _base_rows: dict[str, int] = field(default_factory=dict)
    _current_day: int | None = None

    def __post_init__(self) -> None:
        if not self._base_rows:
            self._base_rows = {table.name: table.row_count for table in self.catalog}

    @property
    def job_templates(self) -> list[JobTemplate]:
        return [
            JobTemplate(t.template_id, t.name, recurring=t.recurring) for t in self.templates
        ]

    def advance_to_day(self, day: int) -> None:
        """Scale the catalog — the one every engine and shard reads, and this
        its one writer — to day ``day`` (growth is absolute per
        ``(seed, table, day)``, so days may be visited in any order)."""
        if self._current_day == day:
            return
        grow_catalog(
            self.catalog,
            self._base_rows,
            day,
            self.config.seed,
            _DAILY_GROWTH_LOW,
            _DAILY_GROWTH_HIGH,
        )
        self._current_day = day

    def jobs_for_day(self, day: int) -> list[JobInstance]:
        """The job instances submitted on ``day`` (catalog is advanced too)."""
        self.advance_to_day(day)
        rng = keyed_rng(self.config.seed, "submissions", day)
        # users hand-enable experimental (off-by-default) rules — hints that
        # disable a sole implementation would fail their own jobs
        from repro.scope.optimizer.rules.base import RuleCategory

        hintable = self.registry.ids_in_category(RuleCategory.OFF_BY_DEFAULT)
        jobs: list[JobInstance] = []
        for template in self.templates:
            # one-off templates appear sporadically; stable_hash (not the
            # per-process-salted builtin) keeps the schedule reproducible
            # across processes without pinning PYTHONHASHSEED
            if not template.recurring and day % 7 != stable_hash(template.template_id) % 7:
                continue
            instances = 1 + int(rng.random() < 0.15)  # some templates submit twice
            for attempt in range(instances):
                job_id = f"{template.template_id}-d{day:03d}-{attempt}"
                manual_hint = None
                if hintable and rng.random() < self.config.workload.manual_hint_fraction:
                    rule_id = int(hintable[int(rng.integers(0, len(hintable)))])
                    manual_hint = RuleFlip(rule_id, turn_on=True)
                jobs.append(
                    JobInstance(
                        job_id=job_id,
                        template_id=template.template_id,
                        name=template.name,
                        script=template.script_for_day(day),
                        day=day,
                        manual_hint=manual_hint,
                    )
                )
        return jobs


def build_workload(
    config: SimulationConfig | None = None, registry: RuleRegistry | None = None
) -> Workload:
    """Build the standard synthetic workload tier for ``config``."""
    from repro.scope.optimizer.rules.base import default_registry

    config = config or SimulationConfig()
    registry = registry or default_registry()
    catalog = build_catalog(config.workload, config.seed, _STATS_STALENESS_SIGMA)
    templates = make_templates(
        catalog,
        config.workload.num_templates,
        config.seed,
        shared_subtree_fraction=config.workload.shared_subtree_fraction,
        shared_subtree_pool=config.workload.shared_subtree_pool,
    )
    return Workload(catalog=catalog, templates=templates, config=config, registry=registry)
