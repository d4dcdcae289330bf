"""Shared finding model for the QA analyzers.

Every analyzer in :mod:`repro.qa` reports :class:`Finding` objects and
shares the one way to accept a finding: a **suppression comment** —
``# qa: <tag> <reason>`` on the offending line (or alone on the line
above, or on the enclosing ``def`` line for lock findings) accepts a
single site, with the justification living next to the code.  A
suppression without a reason is itself a finding (``QA-SUP-BARE``): an
unexplained exemption is exactly the kind of convention rot the suite
exists to stop.  Anything else is fixed in the code; there is no file of
accepted findings.

The tag → rule mapping is the single source of truth in
:data:`SUPPRESSION_TAGS`; analyzers never parse comments themselves.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Finding",
    "SourceFile",
    "SUPPRESSION_TAGS",
    "RULE_TO_TAG",
    "RULE_HASH",
    "RULE_ID",
    "RULE_RNG",
    "RULE_TIME",
    "RULE_SETITER",
    "RULE_UNGUARDED",
    "RULE_BARE_SUPPRESSION",
    "RULE_UNKNOWN_SUPPRESSION",
]

# -- rule identifiers ---------------------------------------------------------

RULE_HASH = "QA-DET-HASH"
RULE_ID = "QA-DET-ID"
RULE_RNG = "QA-DET-RNG"
RULE_TIME = "QA-DET-TIME"
RULE_SETITER = "QA-DET-SETITER"
RULE_UNGUARDED = "QA-LOCK-UNGUARDED"
RULE_BARE_SUPPRESSION = "QA-SUP-BARE"
RULE_UNKNOWN_SUPPRESSION = "QA-SUP-UNKNOWN"

#: suppression tag → the rule it silences
SUPPRESSION_TAGS = {
    "hash-ok": RULE_HASH,
    "id-ok": RULE_ID,
    "rng-ok": RULE_RNG,
    "wallclock-ok": RULE_TIME,
    "set-iter-ok": RULE_SETITER,
    "unlocked-ok": RULE_UNGUARDED,
}

RULE_TO_TAG = {rule: tag for tag, rule in SUPPRESSION_TAGS.items()}

_QA_COMMENT = re.compile(r"#\s*qa:\s*(?P<tag>[A-Za-z0-9_-]+)\s*:?\s*(?P<reason>.*)$")


@dataclass(frozen=True)
class Finding:
    """One analyzer verdict, anchored to a source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass(frozen=True)
class _Suppression:
    tag: str
    reason: str
    line: int
    #: True when the comment is alone on its line (applies to the next code line)
    standalone: bool


class SourceFile:
    """One parsed source file: text, lines, and its ``# qa:`` suppressions.

    The suppression index is computed from real tokenizer output (not a
    line regex), so ``# qa:`` sequences inside string literals cannot
    silence anything.
    """

    def __init__(self, path: Path, root: Path) -> None:
        self.path = path
        self.relpath = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self._by_line: dict[int, _Suppression] = {}
        self.comment_findings: list[Finding] = []
        self._index_comments()

    def _index_comments(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, SyntaxError):  # pragma: no cover — defensive
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _QA_COMMENT.search(token.string)
            if match is None:
                continue
            tag = match.group("tag").lower()
            reason = match.group("reason").strip()
            line = token.start[0]
            standalone = self.lines[line - 1].lstrip().startswith("#")
            if tag not in SUPPRESSION_TAGS:
                self.comment_findings.append(
                    Finding(
                        RULE_UNKNOWN_SUPPRESSION,
                        self.relpath,
                        line,
                        f"unknown suppression tag {tag!r} "
                        f"(expected one of {sorted(SUPPRESSION_TAGS)})",
                    )
                )
                continue
            if not reason:
                self.comment_findings.append(
                    Finding(
                        RULE_BARE_SUPPRESSION,
                        self.relpath,
                        line,
                        f"suppression '{tag}' has no reason text — every "
                        "exemption must say why it is safe",
                    )
                )
                continue  # a bare suppression suppresses nothing
            self._by_line[line] = _Suppression(tag, reason, line, standalone)

    def suppressed(self, rule: str, line: int, *, def_line: int | None = None) -> bool:
        """Is ``rule`` suppressed at ``line``?

        Checks the line itself, a standalone comment on the line above,
        and (when given) the enclosing ``def`` line — the latter lets a
        single ``# qa: unlocked-ok`` annotate a whole caller-holds-lock
        helper method.
        """
        tag = RULE_TO_TAG.get(rule)
        if tag is None:
            return False
        at = self._by_line.get(line)
        if at is not None and at.tag == tag:
            return True
        above = self._by_line.get(line - 1)
        if above is not None and above.standalone and above.tag == tag:
            return True
        if def_line is not None and def_line != line:
            at_def = self._by_line.get(def_line)
            if at_def is not None and at_def.tag == tag:
                return True
        return False
