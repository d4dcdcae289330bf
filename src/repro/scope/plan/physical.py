"""Physical operators and the executed plan tree.

Physical operators are created by implementation rules during optimization.
During search they are *templates* paired with memo child groups; the engine
extracts a :class:`PhysicalPlanNode` tree (annotated with estimated and true
cardinalities) once a winner is chosen.  Distribution/sort handling follows
the required/delivered property scheme of
:mod:`repro.scope.plan.properties`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scope.catalog import TableDef
from repro.scope.language import ast
from repro.scope.plan.logical import AggSpec, KeyedOp
from repro.scope.plan.properties import Distribution, DistributionKind, PhysProps
from repro.scope.types import Column, Schema

__all__ = [
    "PhysicalOp",
    "Extract",
    "FilterExec",
    "ComputeScalar",
    "HashJoin",
    "MergeJoin",
    "NestedLoopJoin",
    "HashAggregate",
    "StreamAggregate",
    "SortExec",
    "Exchange",
    "UnionAllExec",
    "OutputExec",
    "SuperRootExec",
    "PhysicalPlanNode",
]


class PhysicalOp(KeyedOp):
    """Base class for physical operator templates."""

    name: str = "physical"
    #: True for operators that move data between vertices (stage boundaries)
    is_exchange: bool = False
    _child_reqs: tuple[PhysProps, ...] | None = None

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def child_requirements(self) -> tuple[PhysProps, ...]:
        """Physical properties this operator requires from each child.

        Built once per instance (operators are immutable), like
        ``local_key()``; costing asks once per (expression, required
        properties) pair."""
        reqs = self._child_reqs
        if reqs is None:
            reqs = self._child_reqs = self._child_requirements()  # qa: unlocked-ok pure-function memo; a plan's ops reach other pool threads through the plan cache and a racing recompute writes an equal value
        return reqs

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        raise NotImplementedError

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        """Properties delivered given the children's delivered properties."""
        raise NotImplementedError


class Extract(PhysicalOp):
    """Partitioned scan of a store stream."""

    name = "Extract"

    def __init__(self, table: TableDef, schema: Schema) -> None:
        super().__init__(schema)
        self.table = table

    def _render_key(self) -> str:
        return f"Extract({self.table.name};{','.join(self.schema.names)})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return ()

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(Distribution.random())


class FilterExec(PhysicalOp):
    """Predicate evaluation; preserves distribution and order.

    ``fused`` marks the fallback strategy that evaluates the predicate
    inside the scalar-compute machinery — slightly slower, but it keeps
    jobs compilable when the primary filter implementation is disabled.
    """

    name = "Filter"

    def __init__(self, predicate: ast.Expr, schema: Schema, *, fused: bool = False) -> None:
        super().__init__(schema)
        self.predicate = predicate
        self.fused = fused

    def _render_key(self) -> str:
        prefix = "FusedFilter" if self.fused else "Filter"
        return f"{prefix}({self.predicate.sql()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return child_props[0]


class ComputeScalar(PhysicalOp):
    """Projection / scalar computation.

    ``lazy`` marks the fallback row-at-a-time strategy (no vectorized
    expression compilation) — the shadow alternative used when the primary
    compute implementation is disabled.
    """

    name = "Compute"

    def __init__(
        self,
        items: tuple[tuple[str, ast.Expr], ...],
        schema: Schema,
        *,
        lazy: bool = False,
    ) -> None:
        super().__init__(schema)
        self.items = items
        self.lazy = lazy

    def _render_key(self) -> str:
        inner = ",".join(f"{name}={expr.sql()}" for name, expr in self.items)
        prefix = "LazyCompute" if self.lazy else "Compute"
        return f"{prefix}({inner})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        mapping: dict[str, str] = {}
        for out_name, expr in self.items:
            if isinstance(expr, ast.ColumnRef):
                mapping.setdefault(expr.name, out_name)
        dist = child_props[0].distribution.remap(mapping)
        sort_keys: list[tuple[str, bool]] = []
        for col, asc in child_props[0].sort_keys:
            if col not in mapping:
                break
            sort_keys.append((mapping[col], asc))
        return PhysProps(dist, tuple(sort_keys))


class _JoinBase(PhysicalOp):
    def __init__(
        self,
        kind: str,
        equi_keys: tuple[tuple[str, str], ...],
        residual: ast.Expr | None,
        schema: Schema,
    ) -> None:
        super().__init__(schema)
        self.kind = kind
        self.equi_keys = equi_keys
        self.residual = residual

    @property
    def left_keys(self) -> tuple[str, ...]:
        return tuple(left for left, _ in self.equi_keys)

    @property
    def right_keys(self) -> tuple[str, ...]:
        return tuple(right for _, right in self.equi_keys)

    def _key_suffix(self) -> str:
        keys = ",".join(f"{l}={r}" for l, r in self.equi_keys)
        residual = self.residual.sql() if self.residual is not None else ""
        return f"{self.kind};{keys};{residual}"


class HashJoin(_JoinBase):
    """Hash join; ``broadcast`` picks the broadcast-build strategy."""

    name = "HashJoin"

    def __init__(
        self,
        kind: str,
        equi_keys: tuple[tuple[str, str], ...],
        residual: ast.Expr | None,
        schema: Schema,
        *,
        broadcast: bool,
    ) -> None:
        super().__init__(kind, equi_keys, residual, schema)
        self.broadcast = broadcast

    def _render_key(self) -> str:
        strategy = "broadcast" if self.broadcast else "pair"
        return f"HashJoin({strategy};{self._key_suffix()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        if self.broadcast:
            return (PhysProps.any(), PhysProps(Distribution.broadcast()))
        return (
            PhysProps(Distribution.hash(self.left_keys)),
            PhysProps(Distribution.hash(self.right_keys)),
        )

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        if self.broadcast:
            return PhysProps(child_props[0].distribution)
        return PhysProps(Distribution.hash(self.left_keys))


class MergeJoin(_JoinBase):
    """Sort-merge join; requires co-partitioned, key-sorted children."""

    name = "MergeJoin"

    def _render_key(self) -> str:
        return f"MergeJoin({self._key_suffix()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        left_sort = tuple((key, True) for key in self.left_keys)
        right_sort = tuple((key, True) for key in self.right_keys)
        return (
            PhysProps(Distribution.hash(self.left_keys), left_sort),
            PhysProps(Distribution.hash(self.right_keys), right_sort),
        )

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        sort = tuple((key, True) for key in self.left_keys)
        return PhysProps(Distribution.hash(self.left_keys), sort)


class NestedLoopJoin(_JoinBase):
    """Block nested-loop join with a broadcast inner side.

    The only implementation able to evaluate joins without equi-keys; kept
    off the fast path by its quadratic CPU cost.
    """

    name = "NestedLoopJoin"

    def _render_key(self) -> str:
        return f"NestedLoopJoin({self._key_suffix()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(), PhysProps(Distribution.broadcast()))

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(child_props[0].distribution)


class _AggBase(PhysicalOp):
    def __init__(
        self,
        keys: tuple[str, ...],
        aggs: tuple[AggSpec, ...],
        schema: Schema,
        *,
        is_partial: bool = False,
    ) -> None:
        super().__init__(schema)
        self.keys = keys
        self.aggs = aggs
        self.is_partial = is_partial

    def _key_suffix(self) -> str:
        aggs = ",".join(spec.key() for spec in self.aggs)
        partial = "partial;" if self.is_partial else ""
        return f"{partial}{','.join(self.keys)};{aggs}"


class HashAggregate(_AggBase):
    """Hash-based aggregation.

    Partial aggregates run in place (any distribution); final aggregates
    require hash distribution on the keys (or a singleton for global
    aggregates).
    """

    name = "HashAggregate"

    def _render_key(self) -> str:
        return f"HashAggregate({self._key_suffix()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        if self.is_partial:
            return (PhysProps.any(),)
        if not self.keys:
            return (PhysProps(Distribution.singleton()),)
        return (PhysProps(Distribution.hash(self.keys)),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        if self.is_partial:
            return PhysProps(child_props[0].distribution)
        if not self.keys:
            return PhysProps(Distribution.singleton())
        return PhysProps(Distribution.hash(self.keys))


class StreamAggregate(_AggBase):
    """Sort-based aggregation; requires key-sorted input."""

    name = "StreamAggregate"

    def _render_key(self) -> str:
        return f"StreamAggregate({self._key_suffix()})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        sort = tuple((key, True) for key in self.keys)
        if not self.keys:
            return (PhysProps(Distribution.singleton()),)
        return (PhysProps(Distribution.hash(self.keys), sort),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        if not self.keys:
            return PhysProps(Distribution.singleton())
        sort = tuple((key, True) for key in self.keys)
        return PhysProps(Distribution.hash(self.keys), sort)


class SortExec(PhysicalOp):
    """Per-partition sort (an enforcer; also implements logical Sort)."""

    name = "Sort"

    def __init__(self, keys: tuple[tuple[str, bool], ...], schema: Schema) -> None:
        super().__init__(schema)
        self.keys = keys

    def _render_key(self) -> str:
        keys = ",".join(f"{col}{'+' if asc else '-'}" for col, asc in self.keys)
        return f"Sort({keys})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(child_props[0].distribution, self.keys)


class Exchange(PhysicalOp):
    """Data movement enforcer: repartition / broadcast / gather."""

    name = "Exchange"
    is_exchange = True

    def __init__(self, target: Distribution, schema: Schema) -> None:
        super().__init__(schema)
        if target.kind in (DistributionKind.ANY,):
            raise ValueError("exchange target must be a concrete distribution")
        self.target = target

    def _render_key(self) -> str:
        return f"Exchange({self.target})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(self.target)


class UnionAllExec(PhysicalOp):
    """Bag union of two streams."""

    name = "UnionAll"

    def _render_key(self) -> str:
        return "UnionAll()"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(), PhysProps.any())

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(Distribution.random())


class OutputExec(PhysicalOp):
    """Write the child rowset to the store."""

    name = "Output"

    def __init__(self, path: str, schema: Schema) -> None:
        super().__init__(schema)
        self.path = path

    def _render_key(self) -> str:
        return f"Output({self.path})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return (PhysProps.any(),)

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return child_props[0]


class SuperRootExec(PhysicalOp):
    """Artificial root joining the job's output trees."""

    name = "SuperRoot"

    def __init__(self, arity: int) -> None:
        super().__init__(Schema([]))
        self.arity = arity

    def _render_key(self) -> str:
        return f"SuperRoot({self.arity})"

    def _child_requirements(self) -> tuple[PhysProps, ...]:
        return tuple(PhysProps.any() for _ in range(self.arity))

    def delivered(self, child_props: tuple[PhysProps, ...]) -> PhysProps:
        return PhysProps(Distribution.singleton())


@dataclass
class PhysicalPlanNode:
    """One node of the final executable plan, annotated with cardinalities.

    ``group_id`` identifies the memo group the node came from, which lets the
    runtime deduplicate shared subplans (common subexpressions across output
    trees of the same job).
    """

    op: PhysicalOp
    children: list["PhysicalPlanNode"] = field(default_factory=list)
    est_rows: float = 0.0
    true_rows: float = 0.0
    props: PhysProps = field(default_factory=PhysProps.any)
    group_id: int = -1

    @property
    def schema(self) -> Schema:
        return self.op.schema

    @property
    def est_bytes(self) -> float:
        return self.est_rows * self.op.schema.row_width

    @property
    def true_bytes(self) -> float:
        return self.true_rows * self.op.schema.row_width

    def walk(self):
        """Yield nodes pre-order, visiting shared subtrees once."""
        seen: set[int] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.children)

    def pretty(self, indent: int = 0) -> str:
        """Render an indented plan tree (for debugging and examples)."""
        pad = "  " * indent
        line = (
            f"{pad}{self.op.local_key()}  "
            f"[est={self.est_rows:.0f} true={self.true_rows:.0f} {self.props}]"
        )
        lines = [line]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)
