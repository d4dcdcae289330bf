"""Recurring script template generation.

A :class:`ScriptTemplate` fixes the operator shape of a job (which tables,
joins, aggregates, outputs) while its daily instances vary filter constants
— exactly the paper's notion of a recurring job (§2.1).  Shapes are drawn
to cover the optimizer's whole rule surface: trivial copy jobs (empty
spans), filter/project pipelines, multi-way joins, aggregations, unions,
distinct counts, sorted outputs and multi-output DAGs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.rng import keyed_rng
from repro.scope.catalog import Catalog, TableDef
from repro.scope.types import DataType

__all__ = ["TemplateShape", "ScriptTemplate", "make_templates"]


class TemplateShape(enum.Enum):
    COPY = "copy"
    FILTER_PROJECT = "filter_project"
    JOIN = "join"
    AGGREGATE = "aggregate"
    JOIN_AGGREGATE = "join_aggregate"
    UNION_AGGREGATE = "union_aggregate"
    DISTINCT_COUNT = "distinct_count"
    SORTED_OUTPUT = "sorted_output"
    MULTI_OUTPUT = "multi_output"


#: relative frequency of each shape in a workload tier; COPY weight drives
#: the paper's ~34 % of jobs with empty spans
_SHAPE_WEIGHTS = (
    (TemplateShape.COPY, 0.30),
    (TemplateShape.FILTER_PROJECT, 0.10),
    (TemplateShape.JOIN, 0.13),
    (TemplateShape.AGGREGATE, 0.12),
    (TemplateShape.JOIN_AGGREGATE, 0.13),
    (TemplateShape.UNION_AGGREGATE, 0.07),
    (TemplateShape.DISTINCT_COUNT, 0.05),
    (TemplateShape.SORTED_OUTPUT, 0.04),
    (TemplateShape.MULTI_OUTPUT, 0.06),
)
#: fraction of templates that recur daily (paper: >60 %)
_RECURRING_FRACTION = 0.8


@dataclass(frozen=True)
class _FilterSpec:
    column: str
    op: str
    base_fraction: float  # for range predicates: fraction of the column range
    eq_value: int = 0


class ScriptTemplate:
    """One recurring job template; renders a script for any given day."""

    def __init__(
        self,
        template_id: str,
        name: str,
        shape: TemplateShape,
        catalog: Catalog,
        seed: int,
        recurring: bool = True,
    ) -> None:
        self.template_id = template_id
        self.name = name
        self.shape = shape
        self.catalog = catalog
        self.seed = seed
        self.recurring = recurring
        self._rng = keyed_rng(seed, "template", template_id)
        self._plan = self._design()
        #: id of the shared join-subtree pool entry this template draws its
        #: join block from (None: the template's own design)
        self.shared_pool: str | None = None

    # -- design: choose tables/columns once per template --------------------

    def _design(self) -> dict:
        rng = self._rng
        tables = sorted(self.catalog, key=lambda t: t.name)
        primary = tables[int(rng.integers(0, len(tables)))]
        design: dict = {"primary": primary}
        if self.shape in (TemplateShape.JOIN, TemplateShape.JOIN_AGGREGATE):
            design["joins"] = self._pick_joins(primary, rng)
            # some recurring jobs restrict the join key itself (e.g. an id
            # range of a tenant cohort) — these make PredicateTransfer shine
            if design["joins"] and rng.random() < 0.45:
                design["key_filter_fraction"] = float(rng.uniform(0.05, 0.4))
        if self.shape == TemplateShape.UNION_AGGREGATE:
            design["second_filter"] = self._pick_filter(primary, rng)
        design["filter"] = self._pick_filter(primary, rng)
        return design

    def _pick_joins(
        self, primary: TableDef, rng: np.random.Generator
    ) -> list[tuple[TableDef, str, int]]:
        """Pick up to 3 join partners; each entry is (table, key, provider).

        ``provider`` is the chain position (0 = primary, i = i-th join table)
        whose alias supplies the left side of the equi-join condition.
        """
        joins: list[tuple[TableDef, str, int]] = []
        providers: dict[str, int] = {
            c.name: 0 for c in primary.schema if c.name.endswith("_id")
        }
        candidates = [t for t in sorted(self.catalog, key=lambda t: t.name) if t is not primary]
        rng.shuffle(candidates)
        want = int(rng.integers(1, 4))
        for table in candidates:
            if len(joins) >= want:
                break
            shared = sorted(
                set(providers) & {c.name for c in table.schema if c.name.endswith("_id")}
            )
            if not shared:
                continue
            key = shared[int(rng.integers(0, len(shared)))]
            joins.append((table, key, providers[key]))
            position = len(joins)
            for column in table.schema:
                if column.name.endswith("_id"):
                    providers.setdefault(column.name, position)
        return joins

    def _pick_filter(self, table: TableDef, rng: np.random.Generator) -> _FilterSpec | None:
        dims = [
            c.name
            for c in table.schema
            if c.dtype == DataType.INT or (c.dtype == DataType.DOUBLE and not c.name.endswith("_id"))
        ]
        if not dims or rng.random() < 0.15:
            return None
        column = dims[int(rng.integers(0, len(dims)))]
        stats = table.stats_for(column)
        if rng.random() < 0.5:
            return _FilterSpec(column, "==", 0.0, eq_value=int(stats.min_value + rng.integers(0, max(1, stats.ndv))))
        return _FilterSpec(column, "<", float(rng.uniform(0.05, 0.6)))

    def adopt_join_design(self, pool_id: str, design: dict) -> None:
        """Share a pool entry's join block (table, joins, filters).

        Every rendering input of :meth:`_join_chain` is replaced, and the
        daily wiggles depend only on the global workload seed — so two
        templates adopting the same pool entry render byte-identical
        extract/join/filter text for every day, which is exactly the
        cross-template sub-plan redundancy the fragment cache exploits.
        Output paths (and any aggregation on top) stay per-template.
        """
        self._plan["primary"] = design["primary"]
        self._plan["joins"] = list(design["joins"])
        self._plan["filter"] = design["filter"]
        if "key_filter_fraction" in design:
            self._plan["key_filter_fraction"] = design["key_filter_fraction"]
        else:
            self._plan.pop("key_filter_fraction", None)
        self.shared_pool = pool_id

    # -- rendering ------------------------------------------------------------

    def script_for_day(self, day: int) -> str:
        renderer = {
            TemplateShape.COPY: self._render_copy,
            TemplateShape.FILTER_PROJECT: self._render_filter_project,
            TemplateShape.JOIN: self._render_join,
            TemplateShape.AGGREGATE: self._render_aggregate,
            TemplateShape.JOIN_AGGREGATE: self._render_join_aggregate,
            TemplateShape.UNION_AGGREGATE: self._render_union_aggregate,
            TemplateShape.DISTINCT_COUNT: self._render_distinct_count,
            TemplateShape.SORTED_OUTPUT: self._render_sorted_output,
            TemplateShape.MULTI_OUTPUT: self._render_multi_output,
        }[self.shape]
        return renderer(day)

    # helpers ---------------------------------------------------------------

    def _extract(self, rowset: str, table: TableDef, columns: list[str]) -> str:
        cols = ", ".join(f"{c}:{table.schema.column(c).dtype.value}" for c in columns)
        return f'{rowset} = EXTRACT {cols} FROM "{table.path}";'

    def _out_path(self, suffix: str = "") -> str:
        return f"/shares/output/{self.template_id}{suffix}.ss"

    def _filter_sql(self, spec: _FilterSpec | None, table: TableDef, day: int, qual: str = "") -> str:
        if spec is None:
            return ""
        stats = table.stats_for(spec.column)
        column = f"{qual}{spec.column}"
        if spec.op == "==":
            # recurring instances probe a (slightly) different value each day
            value = int(spec.eq_value + day) % max(1, stats.ndv)
            return f"{column} == {value}"
        wiggle = 1.0 + 0.1 * np.sin(day * 0.7 + self.seed % 7)
        fraction = min(0.95, spec.base_fraction * wiggle)
        value = stats.min_value + fraction * (stats.max_value - stats.min_value)
        return f"{column} < {value:.2f}"

    def _key_and_measure(self, table: TableDef) -> tuple[str, str | None, str | None]:
        keys = [c.name for c in table.schema if c.name.endswith("_id")]
        dims = [c.name for c in table.schema if c.dtype == DataType.INT]
        measures = [c.name for c in table.schema if c.dtype == DataType.DOUBLE]
        key = keys[0] if keys else table.schema.names[0]
        dim = dims[0] if dims else None
        measure = measures[0] if measures else None
        return key, dim, measure

    def _base_columns(self, table: TableDef, spec: _FilterSpec | None) -> list[str]:
        key, dim, measure = self._key_and_measure(table)
        columns = [key]
        if dim:
            columns.append(dim)
        if measure:
            columns.append(measure)
        if spec is not None and spec.column not in columns:
            columns.append(spec.column)
        return columns

    # shape renderers ----------------------------------------------------------

    def _render_copy(self, day: int) -> str:
        table = self._plan["primary"]
        columns = self._base_columns(table, None)
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f'OUTPUT raw TO "{self._out_path()}";',
            ]
        )

    def _render_filter_project(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        columns = self._base_columns(table, spec)
        key, dim, measure = self._key_and_measure(table)
        selected = ", ".join(c for c in (key, measure or dim) if c)
        where = self._filter_sql(spec, table, day)
        where_clause = f" WHERE {where}" if where else ""
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"slim = SELECT {selected} FROM raw{where_clause};",
                f'OUTPUT slim TO "{self._out_path()}";',
            ]
        )

    def _join_chain(self, day: int) -> tuple[list[str], str, TableDef, str]:
        """Build extracts + a joined rowset; returns (lines, joined name, primary, key)."""
        table = self._plan["primary"]
        spec = self._plan["filter"]
        joins = self._plan.get("joins", [])

        # columns each chain member must extract: its own base columns plus
        # every join key its alias provides or consumes
        needed: dict[int, set[str]] = {0: set(self._base_columns(table, spec))}
        for index, (join_table, join_key, provider) in enumerate(joins):
            position = index + 1
            _, dim_j, measure_j = self._key_and_measure(join_table)
            needed.setdefault(position, set()).add(join_key)
            if dim_j:
                needed[position].add(dim_j)
            if measure_j:
                needed[position].add(measure_j)
            needed.setdefault(provider, set()).add(join_key)

        lines = [
            self._extract(
                "r0", table, [c for c in table.schema.names if c in needed[0]]
            )
        ]
        for index, (join_table, _, _) in enumerate(joins):
            columns = [c for c in join_table.schema.names if c in needed[index + 1]]
            lines.append(self._extract(f"r{index + 1}", join_table, columns))

        key0, dim0, measure0 = self._key_and_measure(table)
        from_clause = "r0 AS a0"
        for index, (_, join_key, provider) in enumerate(joins):
            alias = f"a{index + 1}"
            from_clause += (
                f" JOIN r{index + 1} AS {alias} "
                f"ON a{provider}.{join_key} == {alias}.{join_key}"
            )
        select_items = [f"a0.{key0} AS k0"]
        if measure0:
            select_items.append(f"a0.{measure0} AS m0")
        elif dim0:
            select_items.append(f"a0.{dim0} AS m0")
        for index, (join_table, _, _) in enumerate(joins):
            _, dim_j, measure_j = self._key_and_measure(join_table)
            value = measure_j or dim_j
            if value:
                select_items.append(f"a{index + 1}.{value} AS v{index + 1}")
        conjuncts = []
        where = self._filter_sql(spec, table, day, qual="a0.")
        if where:
            conjuncts.append(where)
        key_fraction = self._plan.get("key_filter_fraction")
        if key_fraction is not None and joins:
            _, first_key, provider = joins[0]
            key_stats = (table if provider == 0 else joins[provider - 1][0]).stats_for(first_key)
            wiggle = 1.0 + 0.08 * np.sin(day * 1.3 + self.seed % 5)
            bound = key_stats.min_value + min(0.95, key_fraction * wiggle) * (
                key_stats.max_value - key_stats.min_value
            )
            conjuncts.append(f"a{provider}.{first_key} < {bound:.2f}")
        where_clause = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        lines.append(
            f"joined = SELECT {', '.join(select_items)} FROM {from_clause}{where_clause};"
        )
        return lines, "joined", table, "k0"

    def _render_join(self, day: int) -> str:
        lines, joined, _, _ = self._join_chain(day)
        lines.append(f'OUTPUT {joined} TO "{self._out_path()}";')
        return "\n".join(lines)

    def _render_aggregate(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        columns = self._base_columns(table, spec)
        key, dim, measure = self._key_and_measure(table)
        group_key = dim or key
        agg = f"SUM({measure}) AS total, " if measure else ""
        where = self._filter_sql(spec, table, day)
        where_clause = f" WHERE {where}" if where else ""
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"report = SELECT {group_key}, {agg}COUNT(*) AS cnt "
                f"FROM raw{where_clause} GROUP BY {group_key};",
                f'OUTPUT report TO "{self._out_path()}";',
            ]
        )

    def _render_join_aggregate(self, day: int) -> str:
        lines, joined, _, key = self._join_chain(day)
        lines.append(
            f"report = SELECT {key}, COUNT(*) AS cnt, SUM(m0) AS total "
            f"FROM {joined} GROUP BY {key};"
        )
        lines.append(f'OUTPUT report TO "{self._out_path()}";')
        return "\n".join(lines)

    def _render_union_aggregate(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        second = self._plan["second_filter"]
        columns = self._base_columns(table, spec)
        if second is not None and second.column not in columns:
            columns.append(second.column)
        key, dim, measure = self._key_and_measure(table)
        group_key = dim or key
        value = measure or key
        where_a = self._filter_sql(spec, table, day)
        where_b = self._filter_sql(second, table, day + 1)
        clause_a = f" WHERE {where_a}" if where_a else ""
        clause_b = f" WHERE {where_b}" if where_b else ""
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"both = SELECT {group_key}, {value} FROM raw{clause_a} "
                f"UNION ALL SELECT {group_key}, {value} FROM raw{clause_b};",
                f"report = SELECT {group_key}, COUNT(*) AS cnt FROM both GROUP BY {group_key};",
                f'OUTPUT report TO "{self._out_path()}";',
            ]
        )

    def _render_distinct_count(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        columns = self._base_columns(table, spec)
        key, dim, _ = self._key_and_measure(table)
        group_key = dim or key
        where = self._filter_sql(spec, table, day)
        where_clause = f" WHERE {where}" if where else ""
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"report = SELECT {group_key}, COUNT(DISTINCT {key}) AS uniques "
                f"FROM raw{where_clause} GROUP BY {group_key};",
                f'OUTPUT report TO "{self._out_path()}";',
            ]
        )

    def _render_sorted_output(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        columns = self._base_columns(table, spec)
        key, dim, measure = self._key_and_measure(table)
        group_key = dim or key
        where = self._filter_sql(spec, table, day)
        where_clause = f" WHERE {where}" if where else ""
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"report = SELECT {group_key}, COUNT(*) AS cnt FROM raw{where_clause} "
                f"GROUP BY {group_key} ORDER BY cnt DESC;",
                f'OUTPUT report TO "{self._out_path()}";',
            ]
        )

    def _render_multi_output(self, day: int) -> str:
        table = self._plan["primary"]
        spec = self._plan["filter"]
        columns = self._base_columns(table, spec)
        key, dim, measure = self._key_and_measure(table)
        group_key = dim or key
        selected = ", ".join(dict.fromkeys([key, group_key] + ([measure] if measure else [])))
        where = self._filter_sql(spec, table, day)
        where_clause = f" WHERE {where}" if where else ""
        detail_path = self._out_path("_detail")
        summary_path = self._out_path("_summary")
        return "\n".join(
            [
                self._extract("raw", table, columns),
                f"base = SELECT {selected} FROM raw{where_clause};",
                f"report = SELECT {group_key}, COUNT(*) AS cnt FROM base GROUP BY {group_key};",
                f'OUTPUT base TO "{detail_path}";',
                f'OUTPUT report TO "{summary_path}";',
            ]
        )


def make_templates(
    catalog: Catalog,
    count: int,
    seed: int,
    shared_subtree_fraction: float = 0.0,
    shared_subtree_pool: int = 4,
) -> list[ScriptTemplate]:
    """Draw ``count`` templates with the standard shape mix.

    ``shared_subtree_fraction`` > 0 switches on cross-template sub-plan
    redundancy: a common pool of ``shared_subtree_pool`` join designs is
    drawn first, and each join-shaped template adopts a pool entry's join
    block with that probability (its shape, outputs and any aggregation on
    top stay its own).  The pool and the assignment use their own rng
    streams, so the default ``fraction == 0`` workload is byte-identical
    to workloads generated before the knob existed.
    """
    rng = keyed_rng(seed, "template-mix")
    shapes = [shape for shape, _ in _SHAPE_WEIGHTS]
    weights = np.array([w for _, w in _SHAPE_WEIGHTS])
    weights = weights / weights.sum()
    pool: list[tuple[str, dict]] = []
    assign_rng = None
    if shared_subtree_fraction > 0 and shared_subtree_pool > 0:
        # hidden donor templates: each pool entry is one join design drawn
        # from its own deterministic stream, never rendered directly
        for pool_index in range(shared_subtree_pool):
            donor = ScriptTemplate(
                f"SP{pool_index:02d}",
                f"shared_pool_{pool_index:02d}",
                TemplateShape.JOIN,
                catalog,
                seed,
            )
            if donor._plan.get("joins"):  # nothing to share without a join block
                pool.append((donor.template_id, donor._plan))
        assign_rng = keyed_rng(seed, "shared-pool-assign")
    templates: list[ScriptTemplate] = []
    for index in range(count):
        shape = shapes[int(rng.choice(len(shapes), p=weights))]
        recurring = bool(rng.random() < _RECURRING_FRACTION)
        template_id = f"T{index:04d}"
        name = f"{shape.value}_{index:04d}"
        template = ScriptTemplate(
            template_id, name, shape, catalog, seed, recurring=recurring
        )
        if (
            pool
            and shape in (TemplateShape.JOIN, TemplateShape.JOIN_AGGREGATE)
            and assign_rng.random() < shared_subtree_fraction
        ):
            pool_id, design = pool[int(assign_rng.integers(0, len(pool)))]
            template.adopt_join_design(pool_id, design)
        templates.append(template)
    return templates
