"""Logical operators.

A job compiles into a DAG of logical operators: one tree per ``OUTPUT``
statement, stitched under a single :class:`SuperRoot` (the paper's
"super root node", §4.1).  Column names are made globally unique during
compilation, so every expression here references columns by bare name.

Operators are immutable; ``local_key()`` returns a stable string describing
the operator *excluding its children* — the memo keys group expressions by
``(local_key, child group ids)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.scope.catalog import TableDef
from repro.scope.language import ast
from repro.scope.types import Column, DataType, Schema

__all__ = [
    "KeyedOp",
    "LogicalOp",
    "Get",
    "Filter",
    "Project",
    "Join",
    "AggSpec",
    "Aggregate",
    "UnionAll",
    "Sort",
    "Output",
    "SuperRoot",
    "walk",
]


class KeyedOp:
    """An immutable operator identified by a stable ``local_key()`` string."""

    _key: str | None = None

    def local_key(self) -> str:
        """Stable key of this operator excluding children.

        Rendered once per instance (operators are immutable) and interned:
        the copies ``with_children`` makes render the same string, and a
        cached plan would otherwise keep one per copy."""
        key = self._key
        if key is None:
            key = self._key = sys.intern(self._render_key())
        return key

    def _render_key(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.local_key()


class LogicalOp(KeyedOp):
    """Base class for logical operators."""

    name: str = "logical"

    def __init__(self, children: tuple["LogicalOp", ...], schema: Schema) -> None:
        self.children = children
        self.schema = schema

    def with_children(self, children: tuple["LogicalOp", ...]) -> "LogicalOp":
        """Return a copy of this operator over different children."""
        raise NotImplementedError


class Get(LogicalOp):
    """Leaf: read a subset of columns from a catalog stream."""

    name = "Get"

    def __init__(self, table: TableDef, columns: tuple[Column, ...], rowset: str) -> None:
        super().__init__((), Schema(list(columns)))
        self.table = table
        #: names of the source columns inside the table, positionally aligned
        #: with ``columns`` (whose names are job-unique)
        self.rowset = rowset
        self.source_columns = tuple(col.name.rsplit("__", 1)[-1] for col in columns)

    def _render_key(self) -> str:
        cols = ",".join(self.schema.names)
        return f"Get({self.table.name};{cols})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Get":
        assert not children
        return self


class Filter(LogicalOp):
    """Row filter with a boolean predicate over the child's columns."""

    name = "Filter"

    def __init__(self, child: LogicalOp, predicate: ast.Expr) -> None:
        super().__init__((child,), child.schema)
        self.predicate = predicate

    def _render_key(self) -> str:
        return f"Filter({self.predicate.sql()})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Filter":
        (child,) = children
        return Filter(child, self.predicate)


class Project(LogicalOp):
    """Projection / column computation; items are (output name, expression)."""

    name = "Project"

    def __init__(
        self,
        child: LogicalOp,
        items: tuple[tuple[str, ast.Expr], ...],
        schema: Schema,
    ) -> None:
        super().__init__((child,), schema)
        self.items = items

    @property
    def is_rename_only(self) -> bool:
        """True when every item is a bare column reference (a pure rename)."""
        return all(isinstance(expr, ast.ColumnRef) for _, expr in self.items)

    def _render_key(self) -> str:
        inner = ",".join(f"{name}={expr.sql()}" for name, expr in self.items)
        return f"Project({inner})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Project":
        (child,) = children
        return Project(child, self.items, self.schema)


class Join(LogicalOp):
    """Join with extracted equi-keys and an optional residual predicate."""

    name = "Join"

    def __init__(
        self,
        left: LogicalOp,
        right: LogicalOp,
        kind: str,
        equi_keys: tuple[tuple[str, str], ...],
        residual: ast.Expr | None,
    ) -> None:
        schema = left.schema.concat(right.schema, disambiguate=False)
        super().__init__((left, right), schema)
        self.kind = kind
        self.equi_keys = equi_keys
        self.residual = residual

    @property
    def left_keys(self) -> tuple[str, ...]:
        return tuple(left for left, _ in self.equi_keys)

    @property
    def right_keys(self) -> tuple[str, ...]:
        return tuple(right for _, right in self.equi_keys)

    def _render_key(self) -> str:
        keys = ",".join(f"{l}={r}" for l, r in self.equi_keys)
        residual = self.residual.sql() if self.residual is not None else ""
        return f"Join({self.kind};{keys};{residual})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Join":
        left, right = children
        return Join(left, right, self.kind, self.equi_keys, self.residual)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: function, input column (None = ``*``), output name."""

    func: str
    arg: str | None
    output: str
    distinct: bool = False

    def key(self) -> str:
        mark = "distinct " if self.distinct else ""
        return f"{self.output}={self.func}({mark}{self.arg or '*'})"

    def output_type(self, input_schema: Schema) -> DataType:
        if self.func == "COUNT":
            return DataType.LONG
        if self.func == "AVG":
            return DataType.DOUBLE
        assert self.arg is not None
        return input_schema.column(self.arg).dtype


class Aggregate(LogicalOp):
    """Group-by aggregation over key columns."""

    name = "Aggregate"

    def __init__(
        self,
        child: LogicalOp,
        keys: tuple[str, ...],
        aggs: tuple[AggSpec, ...],
        *,
        is_partial: bool = False,
    ) -> None:
        columns = [child.schema.column(key) for key in keys]
        columns += [Column(spec.output, spec.output_type(child.schema)) for spec in aggs]
        super().__init__((child,), Schema(columns))
        self.keys = keys
        self.aggs = aggs
        #: partial (local) aggregates are produced by the partial-agg rule and
        #: must be finalized by a downstream Aggregate
        self.is_partial = is_partial

    def _render_key(self) -> str:
        aggs = ",".join(spec.key() for spec in self.aggs)
        partial = "partial;" if self.is_partial else ""
        return f"Aggregate({partial}{','.join(self.keys)};{aggs})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Aggregate":
        (child,) = children
        return Aggregate(child, self.keys, self.aggs, is_partial=self.is_partial)


class UnionAll(LogicalOp):
    """Bag union; output schema adopts the left child's column names."""

    name = "UnionAll"

    def __init__(self, left: LogicalOp, right: LogicalOp) -> None:
        super().__init__((left, right), left.schema)

    def _render_key(self) -> str:
        return "UnionAll()"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "UnionAll":
        left, right = children
        return UnionAll(left, right)


class Sort(LogicalOp):
    """Total order on (column, ascending) keys."""

    name = "Sort"

    def __init__(self, child: LogicalOp, keys: tuple[tuple[str, bool], ...]) -> None:
        super().__init__((child,), child.schema)
        self.keys = keys

    def _render_key(self) -> str:
        keys = ",".join(f"{col}{'+' if asc else '-'}" for col, asc in self.keys)
        return f"Sort({keys})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Sort":
        (child,) = children
        return Sort(child, self.keys)


class Output(LogicalOp):
    """Write the child rowset to a store path; root of one query tree."""

    name = "Output"

    def __init__(self, child: LogicalOp, path: str) -> None:
        super().__init__((child,), child.schema)
        self.path = path

    def _render_key(self) -> str:
        return f"Output({self.path})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "Output":
        (child,) = children
        return Output(child, self.path)


class SuperRoot(LogicalOp):
    """Artificial root aggregating all Output trees of a job (paper §4.1)."""

    name = "SuperRoot"

    def __init__(self, outputs: tuple[LogicalOp, ...]) -> None:
        super().__init__(outputs, Schema([]))

    def _render_key(self) -> str:
        return f"SuperRoot({len(self.children)})"

    def with_children(self, children: tuple[LogicalOp, ...]) -> "SuperRoot":
        return SuperRoot(children)


def walk(op: LogicalOp):
    """Yield every operator of the DAG under ``op`` exactly once (pre-order)."""
    seen: set[int] = set()
    stack = [op]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children)
