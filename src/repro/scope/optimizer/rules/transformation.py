"""Transformation rules: logical → logical alternatives inside the memo.

Each rule declares its pattern — ``root``, the operator class it fires on,
and for nested patterns ``inner`` / ``inner_child``, the operator class of
a logical expression in one child group (standard cascades one-level
binding) — and implements ``rewrite``: the substitute for one bound
pattern, built over :class:`~repro.scope.optimizer.memo.GroupHandle`
leaves, or None when a condition the classes cannot express does not hold.
The engine matches ``root``; the base class binds ``inner``.

Categories follow the paper: widely safe rewrites are *on-by-default*;
rewrites that are experimental or sensitive to cardinality estimates are
*off-by-default* (these are the rules QO-Advisor most often turns **on**).
"""

from __future__ import annotations

from repro.scope.language import ast
from repro.scope.optimizer.memo import GroupExpression, GroupHandle, Memo
from repro.scope.optimizer.rules.base import RuleCategory, RuleRegistry, TransformationRule
from repro.scope.optimizer.rules.normalization import substitute_columns
from repro.scope.plan import logical

__all__ = ["register_transformation_rules"]


def _columns_of(expr: ast.Expr) -> set[str]:
    return {ref.name for ref in ast.columns_in(expr)}


def _children(expr: GroupExpression, memo: Memo) -> list[GroupHandle]:
    """Handles on the child groups of ``expr``."""
    return [memo.handle(memo.group(child_id)) for child_id in expr.child_ids]


def _split_on(
    predicate: ast.Expr, columns: set[str]
) -> tuple[list[ast.Expr], list[ast.Expr]]:
    """Conjuncts of ``predicate`` that read only ``columns`` (and at least
    one of them) — what can move below an operator exposing them — and the
    rest."""
    pushable: list[ast.Expr] = []
    rest: list[ast.Expr] = []
    for conjunct in ast.split_conjuncts(predicate):
        cols = _columns_of(conjunct)
        if cols and cols <= columns:
            pushable.append(conjunct)
        else:
            rest.append(conjunct)
    return pushable, rest


def _under_rest(op: logical.LogicalOp, rest: list[ast.Expr]) -> logical.LogicalOp:
    """``op`` below a Filter of the conjuncts that stayed above it, if any."""
    return logical.Filter(op, ast.make_conjunction(rest)) if rest else op


class FilterMerge(TransformationRule):
    """Filter(Filter(X)) → Filter(X) with the conjoined predicate."""

    name = "FilterMerge"
    root = logical.Filter
    inner = logical.Filter

    def rewrite(self, expr, inner, memo):
        merged = ast.make_conjunction(
            ast.split_conjuncts(expr.op.predicate) + ast.split_conjuncts(inner.op.predicate)
        )
        (grand,) = _children(inner, memo)
        return logical.Filter(grand, merged)


class FilterPushThroughProject(TransformationRule):
    """Filter(Project(X)) → Project(Filter'(X)); predicate is substituted."""

    name = "FilterPushThroughProject"
    root = logical.Filter
    inner = logical.Project

    def rewrite(self, expr, inner, memo):
        mapping = {name: item for name, item in inner.op.items}
        pushed = substitute_columns(expr.op.predicate, mapping)
        (grand,) = _children(inner, memo)
        return logical.Project(logical.Filter(grand, pushed), inner.op.items, inner.op.schema)


class _FilterPushThroughJoinSide(TransformationRule):
    """Move single-side conjuncts of Filter(Join(L,R)) below the join."""

    root = logical.Filter
    inner = logical.Join
    side: int = 0  # 0 = left, 1 = right

    def rewrite(self, expr, inner, memo):
        target = memo.group(inner.child_ids[self.side])
        pushable, rest = _split_on(expr.op.predicate, set(target.schema.names))
        if not pushable:
            return None
        sides = _children(inner, memo)
        sides[self.side] = logical.Filter(sides[self.side], ast.make_conjunction(pushable))
        return _under_rest(inner.op.with_children(tuple(sides)), rest)


class FilterPushThroughJoinLeft(_FilterPushThroughJoinSide):
    name = "FilterPushThroughJoinLeft"
    side = 0


class FilterPushThroughJoinRight(_FilterPushThroughJoinSide):
    name = "FilterPushThroughJoinRight"
    side = 1


class FilterPushThroughUnion(TransformationRule):
    """Filter(UnionAll(A,B)) → UnionAll(Filter(A), Filter(B'))."""

    name = "FilterPushThroughUnion"
    root = logical.Filter
    inner = logical.UnionAll

    def rewrite(self, expr, inner, memo):
        left, right = _children(inner, memo)
        mapping = {
            left_name: ast.ColumnRef(right_name)
            for left_name, right_name in zip(left.schema.names, right.schema.names)
        }
        right_pred = substitute_columns(expr.op.predicate, mapping)
        return logical.UnionAll(
            logical.Filter(left, expr.op.predicate), logical.Filter(right, right_pred)
        )


class FilterPushThroughAggregate(TransformationRule):
    """Push conjuncts that only touch group keys below the aggregation."""

    name = "FilterPushThroughAggregate"
    root = logical.Filter
    inner = logical.Aggregate

    def rewrite(self, expr, inner, memo):
        if inner.op.is_partial:
            return None
        pushable, rest = _split_on(expr.op.predicate, set(inner.op.keys))
        if not pushable:
            return None
        (grand,) = _children(inner, memo)
        agg = inner.op.with_children((logical.Filter(grand, ast.make_conjunction(pushable)),))
        return _under_rest(agg, rest)


class FilterPushThroughSort(TransformationRule):
    """Filter(Sort(X)) → Sort(Filter(X)) — filter earlier, sort less."""

    name = "FilterPushThroughSort"
    root = logical.Filter
    inner = logical.Sort

    def rewrite(self, expr, inner, memo):
        (grand,) = _children(inner, memo)
        return logical.Sort(logical.Filter(grand, expr.op.predicate), inner.op.keys)


def _new_equi_keys(
    predicate: ast.Expr, join: logical.Join, left: GroupHandle, right: GroupHandle
) -> tuple[list[tuple[str, str]], list[ast.Expr]]:
    """Cross-side equality conjuncts of ``predicate`` that are not yet
    equi-keys of ``join`` (over ``left`` and ``right``), as key pairs, and
    the conjuncts that stay a predicate."""
    left_cols = set(left.schema.names)
    right_cols = set(right.schema.names)
    new_keys: list[tuple[str, str]] = []
    rest: list[ast.Expr] = []
    for conjunct in ast.split_conjuncts(predicate):
        pair = _equi_pair(conjunct, left_cols, right_cols)
        if pair is not None and pair not in join.equi_keys:
            new_keys.append(pair)
        else:
            rest.append(conjunct)
    return new_keys, rest


class FilterIntoJoin(TransformationRule):
    """Promote cross-side equality conjuncts of Filter(Join) to join keys."""

    name = "FilterIntoJoin"
    root = logical.Filter
    inner = logical.Join

    def rewrite(self, expr, inner, memo):
        join = inner.op
        if join.kind != "INNER":
            return None
        left, right = _children(inner, memo)
        new_keys, rest = _new_equi_keys(expr.op.predicate, join, left, right)
        if not new_keys:
            return None
        keys = join.equi_keys + tuple(new_keys)
        return _under_rest(logical.Join(left, right, join.kind, keys, join.residual), rest)


class JoinResidualToKeys(TransformationRule):
    """Promote equality conjuncts in a join residual to equi-keys."""

    name = "JoinResidualToKeys"
    root = logical.Join

    def rewrite(self, expr, inner, memo):
        join = expr.op
        if join.residual is None or join.kind != "INNER":
            return None
        left, right = _children(expr, memo)
        new_keys, rest = _new_equi_keys(join.residual, join, left, right)
        if not new_keys:
            return None
        keys = join.equi_keys + tuple(new_keys)
        return logical.Join(left, right, join.kind, keys, ast.make_conjunction(rest))


def _equi_pair(
    conjunct: ast.Expr, left_cols: set[str], right_cols: set[str]
) -> tuple[str, str] | None:
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=="):
        return None
    a, b = conjunct.left, conjunct.right
    if not (isinstance(a, ast.ColumnRef) and isinstance(b, ast.ColumnRef)):
        return None
    if a.name in left_cols and b.name in right_cols:
        return (a.name, b.name)
    if b.name in left_cols and a.name in right_cols:
        return (b.name, a.name)
    return None


class JoinCommute(TransformationRule):
    """Join(L,R) → reorder-Project(Join(R,L)) for inner joins."""

    name = "JoinCommute"
    root = logical.Join

    def rewrite(self, expr, inner, memo):
        op = expr.op
        if op.kind != "INNER":
            return None
        left, right = _children(expr, memo)
        swapped_keys = tuple((r, l) for l, r in op.equi_keys)
        commuted = logical.Join(right, left, op.kind, swapped_keys, op.residual)
        items = tuple((name, ast.ColumnRef(name)) for name in op.schema.names)
        return logical.Project(commuted, items, op.schema)


def _plain_inner(op: logical.Join) -> bool:
    """An inner join whose condition is all equi-keys (what associates)."""
    return op.kind == "INNER" and not op.residual


class JoinAssociateLeft(TransformationRule):
    """(A ⋈ B) ⋈ C → A ⋈ (B ⋈ C), keys permitting."""

    name = "JoinAssociateLeft"
    root = logical.Join
    inner = logical.Join
    inner_child = 0

    def rewrite(self, expr, inner, memo):
        top, bottom = expr.op, inner.op
        if not (_plain_inner(top) and _plain_inner(bottom)):
            return None
        a_cols = set(memo.group(inner.child_ids[0]).schema.names)
        b_cols = set(memo.group(inner.child_ids[1]).schema.names)
        # split the top join's keys by which side of the bottom join they hit
        bc_keys = [(l, r) for l, r in top.equi_keys if l in b_cols]
        a_top_keys = [(l, r) for l, r in top.equi_keys if l in a_cols]
        if not bc_keys:
            return None  # would create a cross join of B and C
        new_top_keys = tuple(bottom.equi_keys) + tuple(a_top_keys)
        if not new_top_keys:
            return None
        a, b = _children(inner, memo)
        _, c = _children(expr, memo)
        inner_join = logical.Join(b, c, "INNER", tuple(bc_keys), None)
        return logical.Join(a, inner_join, "INNER", new_top_keys, None)


class JoinAssociateRight(TransformationRule):
    """A ⋈ (B ⋈ C) → (A ⋈ B) ⋈ C, keys permitting."""

    name = "JoinAssociateRight"
    root = logical.Join
    inner = logical.Join
    inner_child = 1

    def rewrite(self, expr, inner, memo):
        top, bottom = expr.op, inner.op
        if not (_plain_inner(top) and _plain_inner(bottom)):
            return None
        b_cols = set(memo.group(inner.child_ids[0]).schema.names)
        c_cols = set(memo.group(inner.child_ids[1]).schema.names)
        ab_keys = [(l, r) for l, r in top.equi_keys if r in b_cols]
        c_top_keys = [(l, r) for l, r in top.equi_keys if r in c_cols]
        if not ab_keys:
            return None
        new_top_keys = tuple(c_top_keys) + tuple(bottom.equi_keys)
        if not new_top_keys:
            return None
        a, _ = _children(expr, memo)
        b, c = _children(inner, memo)
        inner_join = logical.Join(a, b, "INNER", tuple(ab_keys), None)
        return logical.Join(inner_join, c, "INNER", new_top_keys, None)


class ProjectMergeRule(TransformationRule):
    """Project(Project(X)) → Project(X) inside the memo."""

    name = "ProjectMerge"
    root = logical.Project
    inner = logical.Project

    def rewrite(self, expr, inner, memo):
        mapping = {name: item for name, item in inner.op.items}
        items = tuple(
            (name, substitute_columns(item, mapping)) for name, item in expr.op.items
        )
        (grand,) = _children(inner, memo)
        return logical.Project(grand, items, expr.op.schema)


_MERGEABLE_FUNCS = frozenset({"COUNT", "SUM", "MIN", "MAX"})

_MERGE_FUNC = {"COUNT": "SUM", "SUM": "SUM", "MIN": "MIN", "MAX": "MAX"}


def _splittable(op: logical.Aggregate) -> bool:
    return (
        not op.is_partial
        and bool(op.aggs)
        and all(spec.func in _MERGEABLE_FUNCS and not spec.distinct for spec in op.aggs)
    )


def _final_specs(op: logical.Aggregate) -> tuple[logical.AggSpec, ...]:
    return tuple(
        logical.AggSpec(_MERGE_FUNC[spec.func], spec.output, spec.output) for spec in op.aggs
    )


class LocalGlobalAggregation(TransformationRule):
    """Aggregate → Final(Partial(X)): pre-aggregate before the shuffle.

    This is the paper's canonical "data reduction" rewrite: the partial
    aggregate shrinks the rows that cross the exchange, cutting DataRead /
    DataWritten and hence PNhours.  Off by default — the classic
    estimate-sensitive rule: when the grouping keys are nearly unique the
    partial pass burns CPU without reducing anything, and the optimizer
    only has (unreliable) distinct-count estimates to tell the cases apart.
    Turning it on for the right recurring jobs is QO-Advisor's bread and
    butter.
    """

    name = "LocalGlobalAggregation"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Aggregate

    def rewrite(self, expr, inner, memo):
        op = expr.op
        if not _splittable(op) or not op.keys:
            return None
        (child,) = _children(expr, memo)
        partial = logical.Aggregate(child, op.keys, op.aggs, is_partial=True)
        return logical.Aggregate(partial, op.keys, _final_specs(op))


class DistinctToGroupBy(TransformationRule):
    """COUNT(DISTINCT x) → COUNT(x) over a deduplicating group-by.

    Off by default: the inner dedup can explode when x has many distinct
    values per group — profitable only under the right data shape.
    """

    name = "DistinctToGroupBy"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Aggregate

    def rewrite(self, expr, inner, memo):
        op = expr.op
        if op.is_partial or len(op.aggs) != 1:
            return None
        spec = op.aggs[0]
        if not (spec.distinct and spec.func == "COUNT" and spec.arg is not None):
            return None
        (child,) = _children(expr, memo)
        dedup = logical.Aggregate(child, op.keys + (spec.arg,), ())
        return logical.Aggregate(
            dedup, op.keys, (logical.AggSpec("COUNT", spec.arg, spec.output),)
        )


class PredicateTransfer(TransformationRule):
    """Infer a filter on the other join side through equi-join keys.

    ``L.k == 5 AND L.k == R.k`` implies ``R.k == 5``.  Off by default:
    profitable only when the transferred predicate is selective, which the
    optimizer can easily mis-estimate.
    """

    name = "PredicateTransfer"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Join
    inner = logical.Filter
    inner_child = 0

    def rewrite(self, expr, inner, memo):
        op = expr.op
        if op.kind != "INNER" or not op.equi_keys:
            return None
        key_map = dict(op.equi_keys)
        transferred: list[ast.Expr] = []
        for conjunct in ast.split_conjuncts(inner.op.predicate):
            mapped = self._transfer(conjunct, key_map)
            if mapped is not None:
                transferred.append(mapped)
        if not transferred:
            return None
        left, right = _children(expr, memo)
        new_right = logical.Filter(right, ast.make_conjunction(transferred))
        return logical.Join(left, new_right, op.kind, op.equi_keys, op.residual)

    _TRANSFERABLE = {"==": "==", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
    _MIRRORED = {"==": "==", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

    @classmethod
    def _transfer(cls, conjunct: ast.Expr, key_map: dict[str, str]) -> ast.Expr | None:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op in cls._TRANSFERABLE):
            return None
        left, right = conjunct.left, conjunct.right
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            column, literal, op = left, right, conjunct.op
        elif isinstance(right, ast.ColumnRef) and isinstance(left, ast.Literal):
            # "5 < k" is "k > 5" from the column's point of view
            column, literal, op = right, left, cls._MIRRORED[conjunct.op]
        else:
            return None
        if column.name not in key_map:
            return None
        return ast.BinaryOp(op, ast.ColumnRef(key_map[column.name]), literal)


class GroupByBelowUnion(TransformationRule):
    """Aggregate(Union(A,B)) → Final(Union(Partial(A), Partial(B))).

    Off by default: pays off only when both branches reduce heavily.
    """

    name = "GroupByBelowUnion"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Aggregate
    inner = logical.UnionAll

    def rewrite(self, expr, inner, memo):
        op = expr.op
        if not _splittable(op) or not op.keys:
            return None
        left, right = _children(inner, memo)
        mapping = dict(zip(left.schema.names, right.schema.names))
        if any(key not in mapping for key in op.keys):
            return None
        if any(spec.arg is not None and spec.arg not in mapping for spec in op.aggs):
            return None
        left_partial = logical.Aggregate(left, op.keys, op.aggs, is_partial=True)
        right_keys = tuple(mapping[key] for key in op.keys)
        right_aggs = tuple(
            logical.AggSpec(
                spec.func,
                mapping[spec.arg] if spec.arg is not None else None,
                spec.output,
                spec.distinct,
            )
            for spec in op.aggs
        )
        right_partial = logical.Aggregate(right, right_keys, right_aggs, is_partial=True)
        union = logical.UnionAll(left_partial, right_partial)
        return logical.Aggregate(union, op.keys, _final_specs(op))


class SortPushThroughProject(TransformationRule):
    """Sort(Project(X)) → Project(Sort(X)) when keys are pure renames."""

    name = "SortPushThroughProject"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Sort
    inner = logical.Project

    def rewrite(self, expr, inner, memo):
        mapping = {name: item for name, item in inner.op.items}
        keys: list[tuple[str, bool]] = []
        for col, asc in expr.op.keys:
            mapped = mapping.get(col)
            if not isinstance(mapped, ast.ColumnRef):
                return None
            keys.append((mapped.name, asc))
        (grand,) = _children(inner, memo)
        return logical.Project(
            logical.Sort(grand, tuple(keys)), inner.op.items, inner.op.schema
        )


def register_transformation_rules(registry: RuleRegistry) -> None:
    registry.register(FilterMerge())
    registry.register(FilterPushThroughProject())
    registry.register(FilterPushThroughJoinLeft())
    registry.register(FilterPushThroughJoinRight())
    registry.register(FilterPushThroughUnion())
    registry.register(FilterPushThroughAggregate())
    registry.register(FilterPushThroughSort())
    registry.register(FilterIntoJoin())
    registry.register(JoinResidualToKeys())
    registry.register(JoinCommute())
    registry.register(JoinAssociateLeft())
    registry.register(JoinAssociateRight())
    registry.register(ProjectMergeRule())
    registry.register(LocalGlobalAggregation())
    registry.register(DistinctToGroupBy())
    registry.register(PredicateTransfer())
    registry.register(GroupByBelowUnion())
    registry.register(SortPushThroughProject())
