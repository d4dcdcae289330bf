"""Compilation of bound scripts into logical operator DAGs.

The compiler assigns every intermediate column a *job-unique* name of the
form ``{rowset}__{column}`` (or ``{rowset}__{binding}__{column}`` inside a
query), so plan expressions can reference columns by bare name and the
optimizer never needs scoped resolution.  Shared rowsets become shared
logical sub-plans: each consumer adds a thin rename
:class:`~repro.scope.plan.logical.Project` on top, and the memo dedups the
shared part structurally.

Alongside the plan, the compiler records every column's
:class:`~repro.scope.data.ColumnOrigin` so the cardinality model can find
base-table statistics through arbitrarily many renames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CompileError
from repro.scope.catalog import Catalog
from repro.scope.data import ColumnOrigin
from repro.scope.language import ast
from repro.scope.language.binder import Binder, BoundScript
from repro.scope.language.parser import parse_script
from repro.scope.plan import logical
from repro.scope.types import Column, DataType, Schema

__all__ = ["CompiledScript", "Compiler", "compile_script"]


@dataclass
class CompiledScript:
    """A compiled job: the logical DAG plus column provenance."""

    root: logical.SuperRoot
    origins: dict[str, ColumnOrigin]
    bound: BoundScript

    @property
    def output_roots(self) -> tuple[logical.LogicalOp, ...]:
        return self.root.children


@dataclass
class _QueryScope:
    """Per-query mapping from (binding, column) to job-unique names."""

    mapping: dict[tuple[str, str], str] = field(default_factory=dict)
    binding_columns: dict[str, list[str]] = field(default_factory=dict)

    def add(self, binding: str, column: str, unique: str) -> None:
        self.mapping[(binding, column)] = unique
        self.binding_columns.setdefault(binding, []).append(unique)

    def resolve(self, ref: ast.ColumnRef) -> str:
        if ref.qualifier is None:
            raise CompileError(f"unqualified column {ref.name!r} reached the compiler")
        try:
            return self.mapping[(ref.qualifier, ref.name)]
        except KeyError as exc:
            raise CompileError(f"unresolved column {ref.qualifier}.{ref.name}") from exc


class Compiler:
    """Compiles bound scripts against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog

    def compile(self, bound: BoundScript) -> CompiledScript:
        origins: dict[str, ColumnOrigin] = {}
        env: dict[str, logical.LogicalOp] = {}
        outputs: list[logical.LogicalOp] = []
        for statement in bound.script.statements:
            if isinstance(statement, ast.ExtractStatement):
                env[statement.target] = self._compile_extract(statement, bound, origins)
            elif isinstance(statement, ast.AssignStatement):
                env[statement.target] = self._compile_assign(statement, env, origins)
            elif isinstance(statement, ast.OutputStatement):
                child = env[statement.source]
                outputs.append(logical.Output(child, statement.path))
        if not outputs:
            raise CompileError("compiled script produced no outputs")
        return CompiledScript(logical.SuperRoot(tuple(outputs)), origins, bound)

    # -- statements ---------------------------------------------------------

    def _compile_extract(
        self,
        statement: ast.ExtractStatement,
        bound: BoundScript,
        origins: dict[str, ColumnOrigin],
    ) -> logical.LogicalOp:
        table = bound.extract_tables[statement.target]
        columns = []
        for column in statement.columns:
            unique = f"{statement.target}__{column.name}"
            columns.append(Column(unique, column.dtype))
            origins[unique] = ColumnOrigin(table.name, column.name)
        return logical.Get(table, tuple(columns), statement.target)

    def _compile_assign(
        self,
        statement: ast.AssignStatement,
        env: dict[str, logical.LogicalOp],
        origins: dict[str, ColumnOrigin],
    ) -> logical.LogicalOp:
        return self._compile_query(statement.query, statement.target, env, origins, branch=0)

    # -- queries --------------------------------------------------------------

    def _compile_query(
        self,
        query: ast.SelectQuery,
        target: str,
        env: dict[str, logical.LogicalOp],
        origins: dict[str, ColumnOrigin],
        branch: int,
    ) -> logical.LogicalOp:
        prefix = target if branch == 0 else f"{target}__u{branch}"
        scope = _QueryScope()
        plan = self._compile_source(query.source, prefix, env, origins, scope)

        if query.where is not None:
            plan = logical.Filter(plan, self._translate(query.where, scope))

        has_aggregates = bool(query.group_by) or any(
            ast.contains_aggregate(item.expr) for item in query.items
        )
        if has_aggregates:
            plan = self._compile_aggregate(query, plan, prefix, scope, origins)
        else:
            plan = self._compile_projection(query.items, plan, prefix, scope, origins)

        if query.order_by:
            plan = self._compile_sort(query, plan, prefix, scope)

        if query.union_all is not None:
            right = self._compile_query(query.union_all, target, env, origins, branch + 1)
            # positional alignment: adopt the left branch's names
            for left_col, right_col in zip(plan.schema.names, right.schema.names):
                origins.setdefault(left_col, origins.get(right_col, ColumnOrigin.derived()))
            plan = logical.UnionAll(plan, right)
        return plan

    def _compile_source(
        self,
        source: ast.Source,
        prefix: str,
        env: dict[str, logical.LogicalOp],
        origins: dict[str, ColumnOrigin],
        scope: _QueryScope,
    ) -> logical.LogicalOp:
        if isinstance(source, ast.TableSource):
            return self._compile_table_source(source, prefix, env, origins, scope)
        if isinstance(source, ast.JoinSource):
            return self._compile_join_source(source, prefix, env, origins, scope)
        raise CompileError(f"unsupported source {type(source).__name__}")  # pragma: no cover

    def _compile_table_source(
        self,
        source: ast.TableSource,
        prefix: str,
        env: dict[str, logical.LogicalOp],
        origins: dict[str, ColumnOrigin],
        scope: _QueryScope,
    ) -> logical.LogicalOp:
        binding = source.binding_name
        if source.name in env:
            # consume a named rowset: rename its unique columns for this use
            child = env[source.name]
            items: list[tuple[str, ast.Expr]] = []
            columns: list[Column] = []
            for column in child.schema:
                short = column.name.rsplit("__", 1)[-1]
                unique = f"{prefix}__{binding}__{short}"
                items.append((unique, ast.ColumnRef(column.name)))
                columns.append(Column(unique, column.dtype))
                origins[unique] = origins.get(column.name, ColumnOrigin.derived())
                scope.add(binding, short, unique)
            return logical.Project(child, tuple(items), Schema(columns))
        if source.name in self.catalog:
            table = self.catalog.table(source.name)
            columns = []
            for column in table.schema:
                unique = f"{prefix}__{binding}__{column.name}"
                columns.append(Column(unique, column.dtype))
                origins[unique] = ColumnOrigin(table.name, column.name)
                scope.add(binding, column.name, unique)
            return logical.Get(table, tuple(columns), binding)
        raise CompileError(f"unknown rowset or table {source.name!r}")

    def _compile_join_source(
        self,
        source: ast.JoinSource,
        prefix: str,
        env: dict[str, logical.LogicalOp],
        origins: dict[str, ColumnOrigin],
        scope: _QueryScope,
    ) -> logical.LogicalOp:
        left = self._compile_source(source.left, prefix, env, origins, scope)
        right = self._compile_source(source.right, prefix, env, origins, scope)
        left_cols = set(left.schema.names)
        right_cols = set(right.schema.names)

        left_filters: list[ast.Expr] = []
        right_filters: list[ast.Expr] = []
        residual: list[ast.Expr] = []
        for conjunct in ast.split_conjuncts(source.condition):
            translated = self._translate(conjunct, scope)
            refs = {ref.name for ref in ast.columns_in(translated)}
            if refs and refs <= left_cols:
                left_filters.append(translated)
            elif refs and refs <= right_cols:
                right_filters.append(translated)
            else:
                # cross-side conjuncts (equality included) stay in the join
                # residual: recognizing hash-join keys is the optimizer's
                # JoinResidualToKeys rule, not the compiler's job — exactly
                # like predicate-to-key conversion in cascades systems
                residual.append(translated)

        if left_filters:
            left = logical.Filter(left, ast.make_conjunction(left_filters))
        if right_filters:
            right = logical.Filter(right, ast.make_conjunction(right_filters))
        return logical.Join(
            left,
            right,
            source.kind,
            (),
            ast.make_conjunction(residual),
        )

    # -- projection & aggregation ---------------------------------------------

    def _compile_projection(
        self,
        items: tuple[ast.SelectItem, ...],
        plan: logical.LogicalOp,
        prefix: str,
        scope: _QueryScope,
        origins: dict[str, ColumnOrigin],
    ) -> logical.LogicalOp:
        out_items: list[tuple[str, ast.Expr]] = []
        columns: list[Column] = []
        for item in items:
            assert item.alias is not None, "binder must assign aliases"
            unique = f"{prefix}__{item.alias}"
            expr = self._translate(item.expr, scope)
            out_items.append((unique, expr))
            dtype = self._expr_type(expr, plan.schema)
            columns.append(Column(unique, dtype))
            if isinstance(expr, ast.ColumnRef):
                origins[unique] = origins.get(expr.name, ColumnOrigin.derived())
            else:
                origins[unique] = ColumnOrigin.derived()
        return logical.Project(plan, tuple(out_items), Schema(columns))

    def _compile_aggregate(
        self,
        query: ast.SelectQuery,
        plan: logical.LogicalOp,
        prefix: str,
        scope: _QueryScope,
        origins: dict[str, ColumnOrigin],
    ) -> logical.LogicalOp:
        # 1. group keys must be bare columns: pre-project computed keys
        key_names: list[str] = []
        prep_items: list[tuple[str, ast.Expr]] = []
        for index, key in enumerate(query.group_by):
            translated = self._translate(key, scope)
            if isinstance(translated, ast.ColumnRef):
                key_names.append(translated.name)
            else:
                unique = f"{prefix}__gk{index}"
                prep_items.append((unique, translated))
                origins[unique] = ColumnOrigin.derived()
                key_names.append(unique)

        # 2. collect aggregate calls from select items and HAVING
        agg_specs: list[logical.AggSpec] = []
        agg_rewrites: dict[ast.FuncCall, str] = {}

        def agg_output(call: ast.FuncCall) -> str:
            translated_args = tuple(
                arg if isinstance(arg, ast.Star) else self._translate(arg, scope)
                for arg in call.args
            )
            translated = ast.FuncCall(call.name, translated_args, call.distinct)
            if translated in agg_rewrites:
                return agg_rewrites[translated]
            arg_name: str | None = None
            if translated.args and not isinstance(translated.args[0], ast.Star):
                arg = translated.args[0]
                if isinstance(arg, ast.ColumnRef):
                    arg_name = arg.name
                else:
                    arg_name = f"{prefix}__ga{len(prep_items)}"
                    prep_items.append((arg_name, arg))
                    origins[arg_name] = ColumnOrigin.derived()
            output = f"{prefix}__agg{len(agg_specs)}"
            agg_specs.append(
                logical.AggSpec(translated.name, arg_name, output, translated.distinct)
            )
            origins[output] = ColumnOrigin.derived()
            agg_rewrites[translated] = output
            return output

        item_exprs: list[tuple[str, ast.Expr]] = []
        for item in query.items:
            assert item.alias is not None
            unique = f"{prefix}__{item.alias}"
            rewritten = self._rewrite_aggregates(item.expr, scope, agg_output)
            item_exprs.append((unique, rewritten))

        having_expr = None
        if query.having is not None:
            having_expr = self._rewrite_aggregates(query.having, scope, agg_output)

        # 3. assemble: prep project → aggregate → having filter → final project
        if prep_items:
            passthrough = [(name, ast.ColumnRef(name)) for name in plan.schema.names]
            all_items = tuple(passthrough + prep_items)
            columns = list(plan.schema.columns) + [
                Column(name, self._expr_type(expr, plan.schema)) for name, expr in prep_items
            ]
            plan = logical.Project(plan, all_items, Schema(columns))

        plan = logical.Aggregate(plan, tuple(key_names), tuple(agg_specs))
        if having_expr is not None:
            plan = logical.Filter(plan, having_expr)

        columns = []
        for unique, expr in item_exprs:
            columns.append(Column(unique, self._expr_type(expr, plan.schema)))
            if isinstance(expr, ast.ColumnRef):
                origins[unique] = origins.get(expr.name, ColumnOrigin.derived())
            else:
                origins[unique] = ColumnOrigin.derived()
        return logical.Project(plan, tuple(item_exprs), Schema(columns))

    def _rewrite_aggregates(self, expr: ast.Expr, scope: _QueryScope, agg_output) -> ast.Expr:
        """Replace aggregate calls with refs to their Aggregate output column."""
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            return ast.ColumnRef(agg_output(expr))
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op,
                self._rewrite_aggregates(expr.left, scope, agg_output),
                self._rewrite_aggregates(expr.right, scope, agg_output),
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._rewrite_aggregates(expr.operand, scope, agg_output))
        if isinstance(expr, ast.ColumnRef):
            return ast.ColumnRef(scope.resolve(expr))
        return expr

    def _compile_sort(
        self,
        query: ast.SelectQuery,
        plan: logical.LogicalOp,
        prefix: str,
        scope: _QueryScope,
    ) -> logical.LogicalOp:
        keys: list[tuple[str, bool]] = []
        for order in query.order_by:
            expr = order.expr
            # match an ORDER BY expression against select items by alias or expr
            matched: str | None = None
            for item in query.items:
                if item.alias is not None and (
                    expr == ast.ColumnRef(item.alias) or expr == item.expr
                ):
                    matched = f"{prefix}__{item.alias}"
                    break
            if matched is None and isinstance(expr, ast.ColumnRef) and expr.qualifier is not None:
                unique = scope.resolve(expr)
                if unique in plan.schema:
                    matched = unique
            if matched is None:
                raise CompileError(f"ORDER BY key {expr.sql()} is not in the select list")
            keys.append((matched, order.ascending))
        return logical.Sort(plan, tuple(keys))

    # -- expressions ------------------------------------------------------------

    def _translate(self, expr: ast.Expr, scope: _QueryScope) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            return ast.ColumnRef(scope.resolve(expr))
        if isinstance(expr, ast.BinaryOp):
            return ast.BinaryOp(
                expr.op, self._translate(expr.left, scope), self._translate(expr.right, scope)
            )
        if isinstance(expr, ast.UnaryOp):
            return ast.UnaryOp(expr.op, self._translate(expr.operand, scope))
        if isinstance(expr, ast.FuncCall):
            args = tuple(
                arg if isinstance(arg, ast.Star) else self._translate(arg, scope)
                for arg in expr.args
            )
            return ast.FuncCall(expr.name, args, expr.distinct)
        return expr

    @staticmethod
    def _expr_type(expr: ast.Expr, schema: Schema) -> DataType:
        """Best-effort type of a translated expression over ``schema``."""
        if isinstance(expr, ast.ColumnRef):
            if expr.name in schema:
                return schema.column(expr.name).dtype
            return DataType.DOUBLE
        if isinstance(expr, ast.Literal):
            return expr.dtype
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "NOT":
                return DataType.BOOL
            return Compiler._expr_type(expr.operand, schema)
        if isinstance(expr, ast.BinaryOp):
            if expr.is_comparison or expr.is_logical:
                return DataType.BOOL
            left = Compiler._expr_type(expr.left, schema)
            right = Compiler._expr_type(expr.right, schema)
            if DataType.DOUBLE in (left, right) or expr.op == "/":
                return DataType.DOUBLE
            return DataType.LONG
        if isinstance(expr, ast.FuncCall):
            if expr.name == "COUNT":
                return DataType.LONG
            if expr.name == "AVG":
                return DataType.DOUBLE
            if expr.args and not isinstance(expr.args[0], ast.Star):
                return Compiler._expr_type(expr.args[0], schema)
            return DataType.LONG
        return DataType.DOUBLE


def compile_script(text: str, catalog: Catalog) -> CompiledScript:
    """Parse, bind and compile ``text`` in one call."""
    bound = Binder(catalog).bind(parse_script(text))
    return Compiler(catalog).compile(bound)
