"""Static-analysis suite tests: seeded fixtures, suppressions, CLI.

The fixture modules under ``tests/qa_fixtures/`` each plant one rule's
violation at a known line; the tests assert the analyzers report exactly
those (rule ID + file:line), that the triage machinery (``# qa:``
comments) behaves, and that the real tree passes the CI gate.
"""

from __future__ import annotations

from pathlib import Path

from repro.qa import Finding, SourceFile
from repro.qa import cli as qa_cli
from repro.qa import determinism, locks
from repro.qa.findings import (
    RULE_BARE_SUPPRESSION,
    RULE_HASH,
    RULE_ID,
    RULE_RNG,
    RULE_SETITER,
    RULE_TIME,
    RULE_UNGUARDED,
    RULE_UNKNOWN_SUPPRESSION,
)

FIXTURES = Path(__file__).parent / "qa_fixtures"
REPRO_ROOT = Path(__file__).parent.parent / "src" / "repro"


def _scan(name: str) -> list[Finding]:
    source = SourceFile(FIXTURES / name, FIXTURES)
    return sorted(
        determinism.scan_file(source) + locks.scan_file(source),
        key=lambda f: (f.line, f.rule),
    )


def _anchors(findings: list[Finding]) -> list[tuple[str, str, int]]:
    return [(f.rule, f.path, f.line) for f in findings]


# -- one seeded violation per rule, exact anchor -------------------------------


def test_fixture_builtin_hash():
    assert _anchors(_scan("det_hash.py")) == [(RULE_HASH, "det_hash.py", 5)]


def test_fixture_id_ordering():
    assert _anchors(_scan("det_id.py")) == [(RULE_ID, "det_id.py", 5)]


def test_fixture_rng_construction():
    assert _anchors(_scan("det_rng.py")) == [
        (RULE_RNG, "det_rng.py", 3),
        (RULE_RNG, "det_rng.py", 9),
        (RULE_RNG, "det_rng.py", 10),
    ]


def test_fixture_wallclock():
    # line 7 flagged; line 11's read is suppressed with a reasoned comment
    assert _anchors(_scan("det_time.py")) == [(RULE_TIME, "det_time.py", 7)]


def test_wallclock_is_allowed_only_under_obs(tmp_path):
    # the serving stats surface reads no clock, so it has no exemption
    for relpath in ("serving/stats.py", "obs/trace.py"):
        module = tmp_path / relpath
        module.parent.mkdir(exist_ok=True)
        module.write_text(
            "import time\ndef f():\n    return time.perf_counter()\n",
            encoding="utf-8",
        )
    flagged = determinism.scan_tree(tmp_path)
    assert _anchors(flagged) == [(RULE_TIME, "serving/stats.py", 3)]


def test_fixture_set_iteration():
    # the iterating loop is flagged; sum(ids) is order-insensitive and clean
    assert _anchors(_scan("det_setiter.py")) == [
        (RULE_SETITER, "det_setiter.py", 6)
    ]


def test_fixture_unguarded_access():
    findings = _scan("lock_unguarded.py")
    assert _anchors(findings) == [(RULE_UNGUARDED, "lock_unguarded.py", 16)]
    assert "Counter._count" in findings[0].message
    assert "self._lock" in findings[0].message


def test_fixture_published_snapshot_convention():
    """A tuple/frozenset attribute that is only ever rebound needs its lock
    for writes and none for reads; one in-place mutation anywhere in the
    class turns its unguarded reads back into findings."""
    findings = _scan("lock_snapshot.py")
    assert _anchors(findings) == [
        (RULE_UNGUARDED, "lock_snapshot.py", 23),  # Fleet.reset: unlocked write
        (RULE_UNGUARDED, "lock_snapshot.py", 42),  # LeakyFleet.names: read
    ]
    assert "write to 'Fleet._members'" in findings[0].message
    assert "read of 'LeakyFleet._members'" in findings[1].message


def test_fixture_bare_suppression_is_a_finding_and_suppresses_nothing():
    findings = _scan("sup_bare.py")
    assert _anchors(findings) == [
        (RULE_HASH, "sup_bare.py", 5),
        (RULE_BARE_SUPPRESSION, "sup_bare.py", 5),
    ]


def test_fixture_unknown_suppression_tag():
    findings = _scan("sup_unknown.py")
    assert _anchors(findings) == [
        (RULE_UNKNOWN_SUPPRESSION, "sup_unknown.py", 5)
    ]
    assert "totally-fine" in findings[0].message


# -- suppression mechanics -----------------------------------------------------


def test_suppression_applies_same_line_and_line_above(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(x):\n"
        "    a = hash(x)  # qa: hash-ok same-line reason\n"
        "    # qa: hash-ok line-above reason\n"
        "    b = hash(x)\n"
        "    c = hash(x)\n",
        encoding="utf-8",
    )
    findings = determinism.scan_file(SourceFile(module, tmp_path))
    assert _anchors(findings) == [(RULE_HASH, "mod.py", 5)]


def test_trailing_comment_does_not_suppress_next_line(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(x):\n"
        "    a = 1  # qa: hash-ok reason attached to an unrelated line\n"
        "    b = hash(x)\n",
        encoding="utf-8",
    )
    findings = determinism.scan_file(SourceFile(module, tmp_path))
    assert _anchors(findings) == [(RULE_HASH, "mod.py", 3)]


def test_suppression_inside_string_literal_is_inert(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        'TEXT = "# qa: hash-ok not a comment"\n'
        "def f(x):\n"
        "    return hash(x)\n",
        encoding="utf-8",
    )
    findings = determinism.scan_file(SourceFile(module, tmp_path))
    assert _anchors(findings) == [(RULE_HASH, "mod.py", 3)]


def test_wrong_tag_does_not_suppress_other_rule(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "def f(x):\n"
        "    return hash(x)  # qa: wallclock-ok wrong tag for this rule\n",
        encoding="utf-8",
    )
    findings = determinism.scan_file(SourceFile(module, tmp_path))
    assert _anchors(findings) == [(RULE_HASH, "mod.py", 2)]


def test_def_line_suppression_covers_lock_helper(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._x = 0\n"
        "    def set(self):\n"
        "        with self._lock:\n"
        "            self._x = 1\n"
        "    def peek(self):  # qa: unlocked-ok monitoring read, staleness fine\n"
        "        return self._x\n",
        encoding="utf-8",
    )
    findings = locks.scan_file(SourceFile(module, tmp_path))
    assert findings == []


# -- the real tree -------------------------------------------------------------


def test_real_tree_determinism_clean():
    assert determinism.scan_tree(REPRO_ROOT) == []


def test_real_tree_locks_fully_baselined():
    """Every lock finding on the real tree is fixed in code or carries an
    inline reason (the name predates the baseline file's deletion)."""
    assert locks.scan_tree(REPRO_ROOT) == []


# -- CLI -----------------------------------------------------------------------


def test_cli_strict_clean_on_real_tree(capsys):
    assert qa_cli.main([]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_cli_fails_on_seeded_fixtures(capsys):
    assert qa_cli.main(["--root", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    for rule in (RULE_HASH, RULE_ID, RULE_RNG, RULE_TIME, RULE_SETITER,
                 RULE_UNGUARDED, RULE_BARE_SUPPRESSION, RULE_UNKNOWN_SUPPRESSION):
        assert rule in out


def test_cli_rejects_missing_root(capsys):
    assert qa_cli.main(["--root", "/no/such/dir"]) == 2
