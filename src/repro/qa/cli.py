"""``python -m repro.qa`` — run the static analyzers and report.

Exit status: ``0`` — no findings; ``1`` — findings; ``2`` — the scan root
is not a directory.  A finding is fixed in the code or accepted inline
with a suppression comment (:mod:`repro.qa.findings`); there is no other
mode.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.qa import determinism, locks
from repro.qa.findings import Finding

__all__ = ["main"]

_DEFAULT_ROOT = Path(__file__).resolve().parent.parent  # src/repro


def _collect(root: Path) -> list[Finding]:
    findings = determinism.scan_tree(root) + locks.scan_tree(root)
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.qa",
        description="determinism + lock-discipline static analysis",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=_DEFAULT_ROOT,
        help="package directory to scan (default: the installed repro tree)",
    )
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not root.is_dir():
        print(f"error: scan root {root} is not a directory", file=sys.stderr)
        return 2

    findings = _collect(root)
    for finding in findings:
        print(finding.render())
    print(f"repro.qa: {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
