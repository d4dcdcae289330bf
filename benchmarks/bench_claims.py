"""The paper's figure, table, ablation and workload claims at the bench seed.

One test per claim in ``benchmarks/claims.py``; each hands its rows to the
terminal summary.  Run with ``python -m pytest benchmarks/bench_claims.py``.
"""

from types import SimpleNamespace

import pytest

from benchmarks import claims


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda claim: claim.__name__)
def test_claim(claim, paper_artifacts, summary):
    title, rows = claim(paper_artifacts)
    assert all(row.holds is None or isinstance(row.holds, bool) for row in rows), title
    summary.append((title, rows))


def test_fig09_failed_accuracy_is_a_mismatch():
    """Fig. 9 withholds its claim only when the model selects no flight."""
    stub = SimpleNamespace(
        validation_stats={
            "samples": 64.0,
            "selected": 5.0,
            "hit_rate_minus_0_1": 0.4,
            "hit_rate_zero": 0.5,
        }
    )
    assert [row.holds for row in claims.fig09_rows(stub)] == [False, False, None]
    with pytest.raises(AssertionError):
        claims.fig09_validation_model(stub)

    stub.validation_stats = {"samples": 64.0, "selected": 0.0}
    assert [row.holds for row in claims.fig09_rows(stub)] == [None, None, None]
