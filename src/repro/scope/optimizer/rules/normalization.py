"""Required normalization rules.

These run as deterministic tree rewrites *before* memo insertion and must
always be enabled — they are SCOPE's "required" rule category (§2.1), so
they are excluded from job spans and can never be flipped by QO-Advisor.
Each rule reports whether it changed the plan so the engine can record it
in the rule signature.

The two enforcer pseudo-rules (data exchange and sort order) are also
registered here: the engine attributes enforcer operators it inserts to
their rule ids.
"""

from __future__ import annotations

from repro.scope.language import ast
from repro.scope.optimizer.rules.base import (
    NormalizationRule,
    Rule,
    RuleCategory,
    RuleRegistry,
)
from repro.scope.plan import logical
from repro.scope.types import Column, DataType, Schema

__all__ = [
    "ConstantFolding",
    "PredicateNormalization",
    "ProjectNormalization",
    "ColumnPruning",
    "EnforceDataExchange",
    "EnforceSortOrder",
    "register_normalization_rules",
]


def _rewrite_dag(root: logical.LogicalOp, rewrite_op) -> tuple[logical.LogicalOp, bool]:
    """Bottom-up rewrite preserving DAG sharing (memoized on node identity).

    Every rewrite returns ``None`` or a different node, and a replaced node
    rebuilds the spine above it, so "anything changed" is exactly "the root
    is a different object".
    """
    new_root = _rewrite_node(root, rewrite_op, {})
    return new_root, new_root is not root


def _rewrite_node(op: logical.LogicalOp, rewrite_op, cache: dict) -> logical.LogicalOp:
    # module-level, not a closure inside _rewrite_dag: a nested function that
    # calls itself is a function/cell cycle only the cycle collector frees
    if id(op) in cache:
        return cache[id(op)]
    new_children = tuple(_rewrite_node(child, rewrite_op, cache) for child in op.children)
    node = op if new_children == op.children else op.with_children(new_children)
    replacement = rewrite_op(node)
    if replacement is not None:
        node = replacement
    cache[id(op)] = node
    return node


class ConstantFolding(NormalizationRule):
    """Fold literal-only arithmetic and boolean sub-expressions."""

    name = "ConstantFolding"

    def normalize(self, root, origins):
        def rewrite(op: logical.LogicalOp) -> logical.LogicalOp | None:
            if isinstance(op, logical.Filter):
                folded = fold_expr(op.predicate)
                if folded is not op.predicate:
                    return logical.Filter(op.children[0], folded)
            if isinstance(op, logical.Project):
                items = tuple((name, fold_expr(expr)) for name, expr in op.items)
                if any(new is not old for (_, new), (_, old) in zip(items, op.items)):
                    return logical.Project(op.children[0], items, op.schema)
            return None

        return _rewrite_dag(root, rewrite)


def fold_expr(expr: ast.Expr) -> ast.Expr:
    """Recursively fold constants; returns the original object if unchanged."""
    if isinstance(expr, ast.BinaryOp):
        left = fold_expr(expr.left)
        right = fold_expr(expr.right)
        if isinstance(left, ast.Literal) and isinstance(right, ast.Literal):
            folded = _fold_binary(expr.op, left, right)
            if folded is not None:
                return folded
        if left is not expr.left or right is not expr.right:
            return ast.BinaryOp(expr.op, left, right)
        return expr
    if isinstance(expr, ast.UnaryOp):
        operand = fold_expr(expr.operand)
        if isinstance(operand, ast.Literal):
            if expr.op == "NOT" and operand.dtype == DataType.BOOL:
                return ast.Literal(not operand.value, DataType.BOOL)
            if expr.op == "-" and operand.dtype.is_numeric:
                return ast.Literal(-operand.value, operand.dtype)
        if operand is not expr.operand:
            return ast.UnaryOp(expr.op, operand)
        return expr
    if isinstance(expr, ast.FuncCall):
        args = tuple(arg if isinstance(arg, ast.Star) else fold_expr(arg) for arg in expr.args)
        if any(new is not old for new, old in zip(args, expr.args)):
            return ast.FuncCall(expr.name, args, expr.distinct)
        return expr
    return expr


def _fold_binary(op: str, left: ast.Literal, right: ast.Literal) -> ast.Literal | None:
    try:
        if op in ("+", "-", "*", "/", "%"):
            a, b = left.value, right.value
            if op == "+":
                value = a + b
            elif op == "-":
                value = a - b
            elif op == "*":
                value = a * b
            elif op == "/":
                value = a / b
            else:
                value = a % b
            dtype = DataType.DOUBLE if isinstance(value, float) else DataType.LONG
            return ast.Literal(value, dtype)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            a, b = left.value, right.value
            result = {
                "==": a == b,
                "!=": a != b,
                "<": a < b,
                "<=": a <= b,
                ">": a > b,
                ">=": a >= b,
            }[op]
            return ast.Literal(result, DataType.BOOL)
    except (TypeError, ZeroDivisionError):
        return None
    return None


class PredicateNormalization(NormalizationRule):
    """Deduplicate conjuncts and drop literal TRUE terms from filters."""

    name = "PredicateNormalization"

    def normalize(self, root, origins):
        def rewrite(op: logical.LogicalOp) -> logical.LogicalOp | None:
            if not isinstance(op, logical.Filter):
                return None
            conjuncts = ast.split_conjuncts(op.predicate)
            seen: list[ast.Expr] = []
            for conjunct in conjuncts:
                if isinstance(conjunct, ast.Literal) and conjunct.value is True:
                    continue
                if conjunct not in seen:
                    seen.append(conjunct)
            if len(seen) == len(conjuncts):
                return None
            if not seen:
                return op.children[0]
            return logical.Filter(op.children[0], ast.make_conjunction(seen))

        return _rewrite_dag(root, rewrite)


class ProjectNormalization(NormalizationRule):
    """Merge adjacent projections and remove identity projections."""

    name = "ProjectNormalization"

    def normalize(self, root, origins):
        def rewrite(op: logical.LogicalOp) -> logical.LogicalOp | None:
            if not isinstance(op, logical.Project):
                return None
            child = op.children[0]
            # identity projection: same names, same order, pure columns
            if (
                op.is_rename_only
                and op.schema.names == child.schema.names
                and all(
                    isinstance(expr, ast.ColumnRef) and expr.name == name
                    for name, expr in op.items
                )
            ):
                return child
            if isinstance(child, logical.Project):
                mapping = {name: expr for name, expr in child.items}
                items = tuple(
                    (name, substitute_columns(expr, mapping)) for name, expr in op.items
                )
                return logical.Project(child.children[0], items, op.schema)
            return None

        return _rewrite_dag(root, rewrite)


def substitute_columns(expr: ast.Expr, mapping: dict[str, ast.Expr]) -> ast.Expr:
    """Replace column references via ``mapping`` (missing names unchanged)."""
    if isinstance(expr, ast.ColumnRef):
        return mapping.get(expr.name, expr)
    if isinstance(expr, ast.BinaryOp):
        return ast.BinaryOp(
            expr.op,
            substitute_columns(expr.left, mapping),
            substitute_columns(expr.right, mapping),
        )
    if isinstance(expr, ast.UnaryOp):
        return ast.UnaryOp(expr.op, substitute_columns(expr.operand, mapping))
    if isinstance(expr, ast.FuncCall):
        args = tuple(
            arg if isinstance(arg, ast.Star) else substitute_columns(arg, mapping)
            for arg in expr.args
        )
        return ast.FuncCall(expr.name, args, expr.distinct)
    return expr


class ColumnPruning(NormalizationRule):
    """Drop columns no consumer needs; narrows Gets and projections.

    Works on the whole job DAG: demands are accumulated across *all*
    consumers of a shared rowset before any pruning happens, so a column
    needed by one output tree is never pruned away from another.
    """

    name = "ColumnPruning"

    def normalize(self, root, origins):
        demands = self._collect_demands(root)
        cache: dict[int, logical.LogicalOp] = {}
        changed = [False]
        new_root = self._prune(root, demands, cache, changed)
        return new_root, changed[0]

    # demand collection: parents first (reverse topological order)
    def _collect_demands(self, root: logical.LogicalOp) -> dict[int, set[str]]:
        order: list[logical.LogicalOp] = []
        indegree: dict[int, int] = {}
        nodes: dict[int, logical.LogicalOp] = {}
        stack = [root]
        while stack:
            op = stack.pop()
            if id(op) in nodes:
                continue
            nodes[id(op)] = op
            for child in op.children:
                stack.append(child)
        for op in nodes.values():
            for child in op.children:
                indegree[id(child)] = indegree.get(id(child), 0) + 1
        demands: dict[int, set[str]] = {id(op): set() for op in nodes.values()}
        demands[id(root)] = set(root.schema.names)
        ready = [root]
        while ready:
            op = ready.pop()
            order.append(op)
            self._propagate(op, demands)
            for child in op.children:
                indegree[id(child)] -= 1
                if indegree[id(child)] == 0:
                    ready.append(child)
        return demands

    @staticmethod
    def _propagate(op: logical.LogicalOp, demands: dict[int, set[str]]) -> None:
        demand = demands[id(op)]
        if isinstance(op, (logical.Output, logical.SuperRoot)):
            for child in op.children:
                demands[id(child)].update(child.schema.names)
        elif isinstance(op, logical.Filter):
            child = op.children[0]
            needed = set(demand)
            needed.update(ref.name for ref in ast.columns_in(op.predicate))
            demands[id(child)].update(needed & set(child.schema.names))
        elif isinstance(op, logical.Project):
            child = op.children[0]
            needed: set[str] = set()
            for name, expr in op.items:
                if name in demand:
                    needed.update(ref.name for ref in ast.columns_in(expr))
            demands[id(child)].update(needed & set(child.schema.names))
        elif isinstance(op, logical.Join):
            left, right = op.children
            needed = set(demand)
            needed.update(op.left_keys)
            needed.update(op.right_keys)
            if op.residual is not None:
                needed.update(ref.name for ref in ast.columns_in(op.residual))
            demands[id(left)].update(needed & set(left.schema.names))
            demands[id(right)].update(needed & set(right.schema.names))
        elif isinstance(op, logical.Aggregate):
            child = op.children[0]
            needed = set(op.keys)
            needed.update(spec.arg for spec in op.aggs if spec.arg is not None)
            demands[id(child)].update(needed & set(child.schema.names))
        elif isinstance(op, logical.UnionAll):
            left, right = op.children
            demands[id(left)].update(demand & set(left.schema.names))
            positions = [i for i, name in enumerate(left.schema.names) if name in demand]
            right_names = right.schema.names
            demands[id(right)].update(right_names[i] for i in positions)
        elif isinstance(op, logical.Sort):
            child = op.children[0]
            needed = set(demand)
            needed.update(col for col, _ in op.keys)
            demands[id(child)].update(needed & set(child.schema.names))

    def _prune(
        self,
        op: logical.LogicalOp,
        demands: dict[int, set[str]],
        cache: dict[int, logical.LogicalOp],
        changed: list[bool],
    ) -> logical.LogicalOp:
        if id(op) in cache:
            return cache[id(op)]
        children = tuple(self._prune(child, demands, cache, changed) for child in op.children)
        demand = demands[id(op)]
        result: logical.LogicalOp
        if isinstance(op, logical.Get):
            keep = tuple(col for col in op.schema.columns if col.name in demand)
            if not keep:
                keep = (op.schema.columns[0],)
            if len(keep) != len(op.schema.columns):
                changed[0] = True
                result = logical.Get(op.table, keep, op.rowset)
            else:
                result = op
        elif isinstance(op, logical.Project):
            items = tuple(
                (name, expr) for name, expr in op.items if name in demand
            )
            if not items:
                items = op.items[:1]
            if len(items) != len(op.items):
                changed[0] = True
                schema = Schema([op.schema.column(name) for name, _ in items])
                result = logical.Project(children[0], items, schema)
            else:
                result = op if children == op.children else op.with_children(children)
        else:
            result = op if children == op.children else op.with_children(children)
        cache[id(op)] = result
        return result


class EnforceDataExchange(Rule):
    """Pseudo-rule: exchanges inserted by the property enforcement step."""

    name = "EnforceDataExchange"
    category = RuleCategory.REQUIRED


class EnforceSortOrder(Rule):
    """Pseudo-rule: sorts inserted by the property enforcement step."""

    name = "EnforceSortOrder"
    category = RuleCategory.REQUIRED


def register_normalization_rules(registry: RuleRegistry) -> None:
    registry.register(ConstantFolding())
    registry.register(PredicateNormalization())
    registry.register(ProjectNormalization())
    registry.register(ColumnPruning())
    registry.register(EnforceDataExchange())
    registry.register(EnforceSortOrder())
