"""Name and type resolution for parsed scripts.

The binder walks a script top to bottom, maintaining the environment of
named rowsets.  It produces a :class:`BoundScript` whose statements are
*normalized*:

* every :class:`~repro.scope.language.ast.ColumnRef` carries an explicit
  qualifier naming the FROM-clause binding it resolves to,
* every select item carries an explicit output alias,
* ``SELECT *`` is expanded to the full column list.

The compiler (:mod:`repro.scope.compile`) can then build logical operators
without re-doing any name resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BindError
from repro.scope.catalog import Catalog, TableDef
from repro.scope.language import ast
from repro.scope.types import Column, DataType, Schema

__all__ = ["Binder", "BoundScript"]


@dataclass
class BoundScript:
    """A normalized script plus resolved schema information."""

    script: ast.Script
    rowset_schemas: dict[str, Schema] = field(default_factory=dict)
    #: rowset name of each EXTRACT statement → the catalog table it reads
    extract_tables: dict[str, TableDef] = field(default_factory=dict)


class _Scope:
    """FROM-clause bindings of a single SELECT query."""

    def __init__(self) -> None:
        self.bindings: dict[str, Schema] = {}
        self.order: list[str] = []

    def add(self, name: str, schema: Schema) -> None:
        if name in self.bindings:
            raise BindError(f"duplicate FROM-clause binding {name!r}")
        self.bindings[name] = schema
        self.order.append(name)

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, Column]:
        """Return (binding name, column) for ``ref``."""
        if ref.qualifier is not None:
            if ref.qualifier not in self.bindings:
                raise BindError(f"unknown qualifier {ref.qualifier!r} for column {ref.name!r}")
            schema = self.bindings[ref.qualifier]
            if ref.name not in schema:
                raise BindError(f"column {ref.name!r} not found in {ref.qualifier!r}")
            return ref.qualifier, schema.column(ref.name)
        matches = [name for name in self.order if ref.name in self.bindings[name]]
        if not matches:
            raise BindError(f"column {ref.name!r} not found in any FROM-clause source")
        if len(matches) > 1:
            raise BindError(f"ambiguous column {ref.name!r} (found in {', '.join(matches)})")
        return matches[0], self.bindings[matches[0]].column(ref.name)


class Binder:
    """Binds scripts against a :class:`~repro.scope.catalog.Catalog`."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def bind(self, script: ast.Script) -> BoundScript:
        bound = BoundScript(script=ast.Script())
        env: dict[str, Schema] = {}
        statements: list[ast.Statement] = []
        outputs = 0
        for statement in script.statements:
            if isinstance(statement, ast.ExtractStatement):
                statements.append(self._bind_extract(statement, env, bound))
            elif isinstance(statement, ast.AssignStatement):
                statements.append(self._bind_assign(statement, env))
            elif isinstance(statement, ast.OutputStatement):
                if statement.source not in env:
                    raise BindError(f"OUTPUT of undefined rowset {statement.source!r}")
                outputs += 1
                statements.append(statement)
            else:  # pragma: no cover - parser cannot produce others
                raise BindError(f"unsupported statement {type(statement).__name__}")
        if outputs == 0:
            raise BindError("script has no OUTPUT statement")
        bound.script = ast.Script(tuple(statements))
        bound.rowset_schemas = env
        return bound

    # -- statements -------------------------------------------------------

    def _bind_extract(
        self,
        statement: ast.ExtractStatement,
        env: dict[str, Schema],
        bound: BoundScript,
    ) -> ast.ExtractStatement:
        if statement.target in env:
            raise BindError(f"rowset {statement.target!r} redefined")
        table = self._table_for_path(statement.path)
        schema = Schema(list(statement.columns))
        for column in schema:
            if column.name not in table.schema:
                raise BindError(
                    f"EXTRACT column {column.name!r} not present in stream {statement.path!r}"
                )
            actual = table.schema.column(column.name).dtype
            if actual != column.dtype:
                raise BindError(
                    f"EXTRACT column {column.name!r} has type {actual.value}, "
                    f"script declares {column.dtype.value}"
                )
        env[statement.target] = schema
        bound.extract_tables[statement.target] = table
        return statement

    def _table_for_path(self, path: str) -> TableDef:
        for table in self.catalog:
            if table.path == path:
                return table
        # fall back to a bare table name used as a path
        name = path.rsplit("/", 1)[-1].split(".")[0]
        if name in self.catalog:
            return self.catalog.table(name)
        raise BindError(f"no catalog stream matches path {path!r}")

    def _bind_assign(self, statement: ast.AssignStatement, env: dict[str, Schema]) -> ast.AssignStatement:
        if statement.target in env:
            raise BindError(f"rowset {statement.target!r} redefined")
        query, schema = self._bind_query(statement.query, env)
        env[statement.target] = schema
        return ast.AssignStatement(statement.target, query)

    # -- queries ----------------------------------------------------------

    def _bind_query(
        self, query: ast.SelectQuery, env: dict[str, Schema]
    ) -> tuple[ast.SelectQuery, Schema]:
        scope = _Scope()
        source = self._bind_source(query.source, env, scope)

        where = None
        if query.where is not None:
            where = self._bind_expr(query.where, scope)
            if self._infer_type(where, scope) != DataType.BOOL:
                raise BindError("WHERE predicate must be boolean")

        group_by = tuple(self._bind_expr(key, scope) for key in query.group_by)
        items, schema = self._bind_items(query, scope, group_by)

        having = None
        if query.having is not None:
            having = self._bind_expr(query.having, scope)
            if not query.group_by:
                raise BindError("HAVING requires GROUP BY")

        aliases = {item.alias for item in items if item.alias}
        order_by = []
        for item in query.order_by:
            expr = item.expr
            if isinstance(expr, ast.ColumnRef) and expr.qualifier is None and expr.name in aliases:
                # ORDER BY on a select-list alias: resolved against the output
                order_by.append(ast.OrderItem(expr, item.ascending))
            else:
                order_by.append(ast.OrderItem(self._bind_expr(expr, scope), item.ascending))
        order_by = tuple(order_by)

        union_all = None
        if query.union_all is not None:
            union_all, union_schema = self._bind_query(query.union_all, env)
            if tuple(c.dtype for c in union_schema) != tuple(c.dtype for c in schema):
                raise BindError("UNION ALL branches have mismatched column types")

        bound_query = ast.SelectQuery(
            items=items,
            source=source,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            union_all=union_all,
        )
        return bound_query, schema

    def _bind_source(self, source: ast.Source, env: dict[str, Schema], scope: _Scope) -> ast.Source:
        if isinstance(source, ast.TableSource):
            schema = self._schema_of_source(source.name, env)
            scope.add(source.binding_name, schema)
            return source
        if isinstance(source, ast.JoinSource):
            left = self._bind_source(source.left, env, scope)
            right = self._bind_source(source.right, env, scope)
            condition = self._bind_expr(source.condition, scope)
            if self._infer_type(condition, scope) != DataType.BOOL:
                raise BindError("JOIN condition must be boolean")
            return ast.JoinSource(left, right, condition, source.kind)
        raise BindError(f"unsupported source {type(source).__name__}")  # pragma: no cover

    def _schema_of_source(self, name: str, env: dict[str, Schema]) -> Schema:
        if name in env:
            return env[name]
        if name in self.catalog:
            return self.catalog.table(name).schema
        raise BindError(f"unknown rowset or table {name!r}")

    def _bind_items(
        self,
        query: ast.SelectQuery,
        scope: _Scope,
        group_by: tuple[ast.Expr, ...],
    ) -> tuple[tuple[ast.SelectItem, ...], Schema]:
        expanded: list[ast.SelectItem] = []
        for item in query.items:
            if isinstance(item.expr, ast.Star):
                for binding in scope.order:
                    for column in scope.bindings[binding]:
                        expanded.append(
                            ast.SelectItem(ast.ColumnRef(column.name, qualifier=binding))
                        )
            else:
                expanded.append(item)

        has_aggregates = bool(group_by) or any(
            ast.contains_aggregate(item.expr) for item in expanded
        )

        items: list[ast.SelectItem] = []
        columns: list[Column] = []
        taken: set[str] = set()
        for index, item in enumerate(expanded):
            expr = self._bind_expr(item.expr, scope)
            dtype = self._infer_type(expr, scope)
            name = item.alias or self._derived_name(expr, index)
            while name in taken:
                name = name + "_1"
            taken.add(name)
            if has_aggregates and not ast.contains_aggregate(expr):
                if expr not in group_by:
                    raise BindError(
                        f"select item {expr.sql()} is neither aggregated nor in GROUP BY"
                    )
            items.append(ast.SelectItem(expr, name))
            columns.append(Column(name, dtype))
        return tuple(items), Schema(columns)

    @staticmethod
    def _derived_name(expr: ast.Expr, index: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FuncCall) and len(expr.args) == 1:
            arg = expr.args[0]
            if isinstance(arg, ast.ColumnRef):
                return f"{expr.name.lower()}_{arg.name}"
        return f"expr_{index}"

    # -- expressions ------------------------------------------------------

    def _bind_expr(self, expr: ast.Expr, scope: _Scope) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            binding, column = scope.resolve(expr)
            return ast.ColumnRef(column.name, qualifier=binding)
        if isinstance(expr, ast.BinaryOp):
            left = self._bind_expr(expr.left, scope)
            right = self._bind_expr(expr.right, scope)
            bound = ast.BinaryOp(expr.op, left, right)
            self._infer_type(bound, scope)  # type check eagerly
            return bound
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._bind_expr(expr.operand, scope))
        if isinstance(expr, ast.FuncCall):
            args = tuple(
                arg if isinstance(arg, ast.Star) else self._bind_expr(arg, scope)
                for arg in expr.args
            )
            return ast.FuncCall(expr.name, args, expr.distinct)
        if isinstance(expr, (ast.Literal, ast.Star)):
            return expr
        raise BindError(f"unsupported expression {type(expr).__name__}")  # pragma: no cover

    def _infer_type(self, expr: ast.Expr, scope: _Scope) -> DataType:
        if isinstance(expr, ast.ColumnRef):
            _, column = scope.resolve(expr)
            return column.dtype
        if isinstance(expr, ast.Literal):
            return expr.dtype
        if isinstance(expr, ast.Star):
            return DataType.LONG
        if isinstance(expr, ast.UnaryOp):
            inner = self._infer_type(expr.operand, scope)
            if expr.op == "NOT":
                if inner != DataType.BOOL:
                    raise BindError("NOT requires a boolean operand")
                return DataType.BOOL
            if not inner.is_numeric:
                raise BindError("unary minus requires a numeric operand")
            return inner
        if isinstance(expr, ast.BinaryOp):
            return self._infer_binary(expr, scope)
        if isinstance(expr, ast.FuncCall):
            return self._infer_func(expr, scope)
        raise BindError(f"cannot type expression {type(expr).__name__}")  # pragma: no cover

    def _infer_binary(self, expr: ast.BinaryOp, scope: _Scope) -> DataType:
        left = self._infer_type(expr.left, scope)
        right = self._infer_type(expr.right, scope)
        if expr.is_logical:
            if left != DataType.BOOL or right != DataType.BOOL:
                raise BindError(f"{expr.op} requires boolean operands")
            return DataType.BOOL
        if expr.is_comparison:
            comparable = (
                left == right
                or (left.is_numeric and right.is_numeric)
            )
            if not comparable:
                raise BindError(
                    f"cannot compare {left.value} with {right.value} using {expr.op}"
                )
            return DataType.BOOL
        # arithmetic
        if not (left.is_numeric and right.is_numeric):
            raise BindError(f"operator {expr.op} requires numeric operands")
        if DataType.DOUBLE in (left, right) or expr.op == "/":
            return DataType.DOUBLE
        return DataType.LONG

    def _infer_func(self, expr: ast.FuncCall, scope: _Scope) -> DataType:
        if expr.name == "COUNT":
            return DataType.LONG
        if expr.name in ("SUM", "MIN", "MAX"):
            if len(expr.args) != 1 or isinstance(expr.args[0], ast.Star):
                raise BindError(f"{expr.name} requires exactly one column argument")
            arg_type = self._infer_type(expr.args[0], scope)
            if expr.name == "SUM" and not arg_type.is_numeric:
                raise BindError("SUM requires a numeric argument")
            return arg_type
        if expr.name == "AVG":
            if len(expr.args) != 1:
                raise BindError("AVG requires exactly one argument")
            if not self._infer_type(expr.args[0], scope).is_numeric:
                raise BindError("AVG requires a numeric argument")
            return DataType.DOUBLE
        raise BindError(f"unknown function {expr.name!r}")
