"""Implementation rules: logical operators → physical operator templates.

The *implementation* category is flippable (QO-Advisor may turn any of
these off).  When a flip disables the only implementation available for
some logical operator the optimizer raises
:class:`~repro.errors.OptimizationError` — the paper's "recompile failure"
(Table 3).  A few implementations are *required* (Extract, Output,
SuperRoot): without them no job at all would compile, so SCOPE keeps them
outside the flippable set — this is also why trivial copy jobs end up with
empty spans.

Each rule declares ``root``, the logical operator class it implements (the
engine matches it), and ``build``s at most one physical operator from the
logical one — the engine wires it over the expression's child groups.
"""

from __future__ import annotations

from repro.scope.language import ast
from repro.scope.optimizer.rules.base import ImplementationRule, RuleCategory, RuleRegistry
from repro.scope.plan import logical, physical

__all__ = ["register_implementation_rules"]


class ExtractImpl(ImplementationRule):
    """Get → Extract.  Required: the only way to read a stream."""

    name = "ExtractImpl"
    category = RuleCategory.REQUIRED
    root = logical.Get

    def build(self, op):
        return physical.Extract(op.table, op.schema)


class FilterImpl(ImplementationRule):
    """Filter → FilterExec.  The sole filter implementation."""

    name = "FilterImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Filter

    def build(self, op):
        return physical.FilterExec(op.predicate, op.schema)


class FusedFilterImpl(ImplementationRule):
    """Filter → fused (compute-machinery) filter; the shadow alternative.

    The fused evaluator only supports simple (single-conjunct) predicates,
    so compound filters still depend on the primary implementation — jobs
    carrying them fail to recompile when ``FilterImpl`` is flipped off,
    which is one source of the paper's recompile failures (Table 3).
    """

    name = "FusedFilterImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Filter

    def build(self, op):
        if len(ast.split_conjuncts(op.predicate)) > 1:
            return None
        return physical.FilterExec(op.predicate, op.schema, fused=True)


class ComputeImpl(ImplementationRule):
    """Project → ComputeScalar (vectorized)."""

    name = "ComputeImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Project

    def build(self, op):
        return physical.ComputeScalar(op.items, op.schema)


class LazyComputeImpl(ImplementationRule):
    """Project → row-at-a-time ComputeScalar; the shadow alternative."""

    name = "LazyComputeImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Project

    def build(self, op):
        return physical.ComputeScalar(op.items, op.schema, lazy=True)


class HashJoinPairImpl(ImplementationRule):
    """Equi-join → pairwise (shuffle) hash join."""

    name = "HashJoinPairImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Join

    def build(self, op):
        if not op.equi_keys:
            return None
        return physical.HashJoin(op.kind, op.equi_keys, op.residual, op.schema, broadcast=False)


class HashJoinBroadcastImpl(ImplementationRule):
    """Equi-join → broadcast hash join (build side replicated)."""

    name = "HashJoinBroadcastImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Join

    def build(self, op):
        if not op.equi_keys:
            return None
        return physical.HashJoin(op.kind, op.equi_keys, op.residual, op.schema, broadcast=True)


class MergeJoinImpl(ImplementationRule):
    """Equi-join → sort-merge join.  Off by default (sort-sensitive)."""

    name = "MergeJoinImpl"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Join

    def build(self, op):
        if not op.equi_keys or op.kind != "INNER":
            return None
        return physical.MergeJoin(op.kind, op.equi_keys, op.residual, op.schema)


class NestedLoopJoinImpl(ImplementationRule):
    """Any join → nested loops; the only option without equi-keys."""

    name = "NestedLoopJoinImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Join

    def build(self, op):
        # fold equi keys back into the residual: NL evaluates everything
        condition: ast.Expr | None = op.residual
        for left, right in op.equi_keys:
            equality = ast.BinaryOp("==", ast.ColumnRef(left), ast.ColumnRef(right))
            condition = (
                equality if condition is None else ast.BinaryOp("AND", condition, equality)
            )
        return physical.NestedLoopJoin(op.kind, (), condition, op.schema)


class HashAggregateImpl(ImplementationRule):
    """Final/global aggregation → hash aggregate."""

    name = "HashAggregateImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Aggregate

    def build(self, op):
        if op.is_partial:
            return None
        return physical.HashAggregate(op.keys, op.aggs, op.schema)


class PartialHashAggregateImpl(ImplementationRule):
    """Partial aggregation → in-place hash aggregate."""

    name = "PartialHashAggregateImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Aggregate

    def build(self, op):
        if not op.is_partial:
            return None
        return physical.HashAggregate(op.keys, op.aggs, op.schema, is_partial=True)


class StreamAggregateImpl(ImplementationRule):
    """Final aggregation → stream aggregate.  Off by default."""

    name = "StreamAggregateImpl"
    category = RuleCategory.OFF_BY_DEFAULT
    root = logical.Aggregate

    def build(self, op):
        if op.is_partial or not op.keys:
            return None
        return physical.StreamAggregate(op.keys, op.aggs, op.schema)


class SortImpl(ImplementationRule):
    """Sort → SortExec.  The sole sort implementation."""

    name = "SortImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.Sort

    def build(self, op):
        return physical.SortExec(op.keys, op.schema)


class UnionAllImpl(ImplementationRule):
    """UnionAll → UnionAllExec.  The sole union implementation."""

    name = "UnionAllImpl"
    category = RuleCategory.IMPLEMENTATION
    root = logical.UnionAll

    def build(self, op):
        return physical.UnionAllExec(op.schema)


class OutputImpl(ImplementationRule):
    """Output → OutputExec.  Required."""

    name = "OutputImpl"
    category = RuleCategory.REQUIRED
    root = logical.Output

    def build(self, op):
        return physical.OutputExec(op.path, op.schema)


class SuperRootImpl(ImplementationRule):
    """SuperRoot → SuperRootExec.  Required."""

    name = "SuperRootImpl"
    category = RuleCategory.REQUIRED
    root = logical.SuperRoot

    def build(self, op):
        return physical.SuperRootExec(len(op.children))


def register_implementation_rules(registry: RuleRegistry) -> None:
    registry.register(ExtractImpl())
    registry.register(FilterImpl())
    registry.register(FusedFilterImpl())
    registry.register(ComputeImpl())
    registry.register(LazyComputeImpl())
    registry.register(HashJoinPairImpl())
    registry.register(HashJoinBroadcastImpl())
    registry.register(MergeJoinImpl())
    registry.register(NestedLoopJoinImpl())
    registry.register(HashAggregateImpl())
    registry.register(PartialHashAggregateImpl())
    registry.register(StreamAggregateImpl())
    registry.register(SortImpl())
    registry.register(UnionAllImpl())
    registry.register(OutputImpl())
    registry.register(SuperRootImpl())
