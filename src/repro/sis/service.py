"""SIS service: versioned hint installation and compile-time lookup.

SIS manages versioning and validates hint files before installing them in
the SCOPE optimizer (paper §4.4).  The engine consults
:meth:`SISService.lookup` for every compiled job; wiring happens through
``ScopeEngine.hint_provider``.

SIS is the **single shared hint store** of a deployment, however many
shards compile against it: attaching sets the one engine's
``hint_provider``, which every shard's compiles resolve their configuration
through, exactly as one SIS deployment steers many SCOPE clusters in
production.

A publication is **one rebinding of the active hint set** and nothing
else.  Versions only rise: a hint is retired by uploading a file without
it.  SIS does not know compiled plans are cached, and need not (the
looked-up hint is part of every cache key, see :mod:`repro.scope.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import RuleFlip, RuleRegistry
from repro.sis.hints import HintEntry, parse_hint_file, render_hint_file, validate_entries

__all__ = ["SISService", "HintFileVersion"]


@dataclass
class HintFileVersion:
    """One installed hint file."""

    version: int
    day: int
    content: str
    entries: list[HintEntry] = field(default_factory=list)


class SISService:
    """Hint store with versioning and validation."""

    def __init__(self, registry: RuleRegistry) -> None:
        self.registry = registry
        #: hint files installed so far; the newest is the active one
        self._version = 0
        self._active: dict[str, RuleFlip] = {}

    def upload(self, entries: list[HintEntry], day: int) -> HintFileVersion:
        """Validate and install a new hint file; returns the new version.

        Installation replaces the full active hint set, matching the daily
        pipeline's behaviour of publishing a complete file per run; the
        one rebinding of ``_active`` is the atomic publication step.
        """
        validate_entries(entries, self.registry)
        content = render_hint_file(entries, day)
        # round-trip through the file format: what is installed is what
        # would be read back from the stored file
        parsed = parse_hint_file(content)
        self._version += 1
        self._active = {entry.template_id: entry.flip for entry in parsed}
        return HintFileVersion(
            version=self._version, day=day, content=content, entries=parsed
        )

    def lookup(self, template_id: str) -> RuleFlip | None:
        """Hint for a template, or None (the optimizer's compile-time probe)."""
        return self._active.get(template_id)

    def active_hints(self) -> dict[str, RuleFlip]:
        return dict(self._active)

    @property
    def current_version(self) -> int:
        return self._version

    def attach(self, engine: ScopeEngine) -> None:
        """Wire this SIS instance into the engine's compile path.

        One attribute: every shard service — those added later included —
        resolves a job's configuration through the engine it was built
        over, so the lookup reaches them all.
        """
        engine.hint_provider = self.lookup
