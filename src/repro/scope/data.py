"""Ground-truth data model: true vs. estimated cardinality ingredients.

The paper's evaluation hinges on one physical fact about real systems: the
optimizer's *estimated* costs diverge from *true* runtime behaviour
(Fig. 6), because estimators assume uniformity and independence while real
data is skewed and correlated.

We reproduce this generatively instead of materializing petabytes:

* **Estimated** selectivities/fanouts use the textbook formulas over the
  catalog statistics (uniformity, independence, containment) — exactly what
  a production estimator computes.
* **True** values are the same formulas *multiplied by a deterministic
  "reality factor"* — a lognormal draw keyed by the predicate/join identity
  (:func:`repro.rng.keyed_rng`).  The factor plays the role of the data's
  actual correlation and skew: it is stable across recompilations of the
  same job (real data does not change between compiles) but unknown to the
  estimator.

Errors therefore compound multiplicatively with plan depth, matching the
empirical behaviour reported by Leis et al. (VLDB'15) and relied upon by the
paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rng import keyed_rng
from repro.scope.catalog import Catalog, ColumnStats
from repro.scope.language import ast
from repro.scope.types import DataType

__all__ = ["ColumnOrigin", "SelEstimate", "DataModel"]

#: default selectivities for predicates the estimator cannot analyse
_DEFAULT_EQ_SEL = 0.08
_DEFAULT_RANGE_SEL = 0.33
_DEFAULT_NEQ_SEL = 0.9

_MIN_SEL = 1e-7

#: sigma of the lognormal reality factor per predicate or join; the
#: estimate misses it at every plan level, so errors compound with depth,
#: as observed for real optimizers (Leis et al., "How good are query
#: optimizers, really?")
_REALITY_SIGMA = 0.55


@dataclass(frozen=True)
class ColumnOrigin:
    """Provenance of a plan column: a base table column, or derived."""

    table: str | None
    column: str | None

    @property
    def is_base(self) -> bool:
        return self.table is not None and self.column is not None

    @staticmethod
    def derived() -> "ColumnOrigin":
        return ColumnOrigin(None, None)

    def key(self) -> str:
        if self.is_base:
            return f"{self.table}.{self.column}"
        return "<derived>"


@dataclass(frozen=True)
class SelEstimate:
    """A (true, estimated) selectivity or fanout pair."""

    true: float
    est: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "true", float(self.true))
        object.__setattr__(self, "est", float(self.est))


class DataModel:
    """Computes true and estimated selectivities, fanouts and distincts.

    ``truth_seed`` keys the reality factors: two data models with the same
    seed describe the same (virtual) data.  Recurring-job day-over-day drift
    is modelled by the workload generator scaling table row counts, not by
    changing the truth seed.
    """

    def __init__(self, catalog: Catalog, truth_seed: int) -> None:
        self.catalog = catalog
        self.truth_seed = truth_seed
        #: the data does not change between compiles: one draw per identity
        self._factors: dict[tuple, float] = {}

    # -- helpers -----------------------------------------------------------

    def _reality_factor(self, *key_parts: object, sigma: float = _REALITY_SIGMA) -> float:
        key = (key_parts, sigma)
        factor = self._factors.get(key)
        if factor is None:
            rng = keyed_rng(self.truth_seed, "reality", *key_parts)
            factor = self._factors[key] = float(rng.lognormal(mean=0.0, sigma=sigma))
        return factor

    def _stats(self, origin: ColumnOrigin) -> ColumnStats | None:
        if not origin.is_base:
            return None
        table = self.catalog.table(origin.table)
        return table.stats_for(origin.column)

    # -- predicate selectivity ----------------------------------------------

    def predicate_selectivity(
        self, predicate: ast.Expr, origins: dict[str, ColumnOrigin]
    ) -> SelEstimate:
        """Return the (true, estimated) selectivity of a boolean predicate."""
        result = self._selectivity(predicate, origins)
        return SelEstimate(
            true=min(1.0, max(_MIN_SEL, result.true)),
            est=min(1.0, max(_MIN_SEL, result.est)),
        )

    def _selectivity(self, expr: ast.Expr, origins: dict[str, ColumnOrigin]) -> SelEstimate:
        if isinstance(expr, ast.BinaryOp) and expr.op == "AND":
            left = self._selectivity(expr.left, origins)
            right = self._selectivity(expr.right, origins)
            # independence for the estimate; keyed correlation for the truth
            corr = self._reality_factor(
                "and-corr", self._pred_key(expr.left), self._pred_key(expr.right), sigma=0.35
            )
            return SelEstimate(true=left.true * right.true * corr, est=left.est * right.est)
        if isinstance(expr, ast.BinaryOp) and expr.op == "OR":
            left = self._selectivity(expr.left, origins)
            right = self._selectivity(expr.right, origins)
            true = 1.0 - (1.0 - min(1.0, left.true)) * (1.0 - min(1.0, right.true))
            est = 1.0 - (1.0 - min(1.0, left.est)) * (1.0 - min(1.0, right.est))
            return SelEstimate(true=true, est=est)
        if isinstance(expr, ast.UnaryOp) and expr.op == "NOT":
            inner = self._selectivity(expr.operand, origins)
            return SelEstimate(true=1.0 - min(1.0, inner.true), est=1.0 - min(1.0, inner.est))
        if isinstance(expr, ast.BinaryOp) and expr.is_comparison:
            return self._comparison_selectivity(expr, origins)
        # anything else (bare boolean column, exotic expression)
        return SelEstimate(
            true=_DEFAULT_RANGE_SEL * self._reality_factor("opaque", self._pred_key(expr)),
            est=_DEFAULT_RANGE_SEL,
        )

    def _comparison_selectivity(
        self, expr: ast.BinaryOp, origins: dict[str, ColumnOrigin]
    ) -> SelEstimate:
        column, literal = self._column_vs_literal(expr)
        pred_key = self._pred_key(expr)
        if column is None or literal is None:
            # column-to-column comparison or computed operands
            est = _DEFAULT_EQ_SEL if expr.op == "==" else _DEFAULT_RANGE_SEL
            return SelEstimate(true=est * self._reality_factor("colcol", pred_key), est=est)
        origin = origins.get(column.name, ColumnOrigin.derived())
        stats = self._stats(origin)
        est = self._estimated_comparison(expr.op, stats, literal)
        truth_key = ("cmp", origin.key(), expr.op, self._literal_bucket(literal))
        return SelEstimate(true=est * self._reality_factor(*truth_key), est=est)

    @staticmethod
    def _column_vs_literal(expr: ast.BinaryOp) -> tuple[ast.ColumnRef | None, ast.Literal | None]:
        left, right = expr.left, expr.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            return left, right
        if isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            return right, left
        return None, None

    @staticmethod
    def _estimated_comparison(op: str, stats: ColumnStats | None, literal: ast.Literal) -> float:
        if stats is None:
            if op == "==":
                return _DEFAULT_EQ_SEL
            if op == "!=":
                return _DEFAULT_NEQ_SEL
            return _DEFAULT_RANGE_SEL
        if op == "==":
            return 1.0 / stats.ndv
        if op == "!=":
            return 1.0 - 1.0 / stats.ndv
        if literal.dtype.is_numeric:
            value = float(literal.value)
            width = stats.max_value - stats.min_value
            if width <= 0:
                return _DEFAULT_RANGE_SEL
            fraction = (value - stats.min_value) / width
            fraction = min(1.0, max(0.0, fraction))
            if op in ("<", "<="):
                return max(_MIN_SEL, fraction)
            return max(_MIN_SEL, 1.0 - fraction)
        return _DEFAULT_RANGE_SEL

    @staticmethod
    def _literal_bucket(literal: ast.Literal) -> str:
        """Bucket literals so recurring instances with slightly different
        constants share (most of) their reality factor."""
        if literal.dtype.is_numeric:
            value = float(literal.value)
            if value == 0:
                return "0"
            magnitude = 0
            absolute = abs(value)
            while absolute >= 10:
                absolute /= 10
                magnitude += 1
            return f"{'-' if value < 0 else ''}e{magnitude}b{int(absolute)}"
        return str(literal.value)

    @staticmethod
    def _pred_key(expr: ast.Expr) -> str:
        return expr.sql()

    # -- joins ---------------------------------------------------------------

    def join_selectivity(
        self,
        equi_keys: tuple[tuple[str, str], ...],
        origins: dict[str, ColumnOrigin],
    ) -> SelEstimate:
        """Selectivity of an equi-join relative to the cross product.

        Estimated uses the System-R containment formula ``1/max(ndv_l,
        ndv_r)`` per key pair (independence across pairs); truth multiplies
        in a keyed reality factor capturing key skew and partial overlap.
        """
        if not equi_keys:
            # pure theta join: the estimator guesses, reality disagrees more
            est = _DEFAULT_EQ_SEL
            return SelEstimate(true=est * self._reality_factor("theta-join"), est=est)
        true = 1.0
        est = 1.0
        for left_col, right_col in equi_keys:
            left_origin = origins.get(left_col, ColumnOrigin.derived())
            right_origin = origins.get(right_col, ColumnOrigin.derived())
            left_stats = self._stats(left_origin)
            right_stats = self._stats(right_origin)
            left_ndv = left_stats.ndv if left_stats else 1000
            right_ndv = right_stats.ndv if right_stats else 1000
            pair_est = 1.0 / max(left_ndv, right_ndv, 1)
            factor = self._reality_factor(
                "join", left_origin.key(), right_origin.key(), sigma=0.9
            )
            est *= pair_est
            true *= pair_est * factor
        return SelEstimate(true=max(true, 0.0), est=max(est, 0.0))

    # -- aggregation -----------------------------------------------------------

    def group_count(
        self,
        child_rows: SelEstimate,
        keys: tuple[str, ...],
        origins: dict[str, ColumnOrigin],
    ) -> SelEstimate:
        """Number of groups produced by a GROUP BY over ``keys``.

        ``child_rows`` carries the (true, est) input cardinalities.  Global
        aggregates (no keys) produce exactly one row.
        """
        if not keys:
            return SelEstimate(true=1.0, est=1.0)
        est_ndv = 1.0
        key_ids = []
        for key in keys:
            origin = origins.get(key, ColumnOrigin.derived())
            stats = self._stats(origin)
            est_ndv *= stats.ndv if stats else 100
            key_ids.append(origin.key())
        est = min(child_rows.est, est_ndv)
        factor = self._reality_factor("groups", *sorted(key_ids), sigma=0.5)
        true = min(child_rows.true, max(1.0, est_ndv * factor))
        return SelEstimate(true=true, est=max(1.0, est))
