"""Catalog: table definitions and column statistics.

The catalog stores two views of the world:

* the **ground truth** (`TableDef.row_count`, `ColumnStats`) used by the
  runtime simulator (`repro.scope.data.DataModel`) to compute true
  cardinalities, and
* the **optimizer statistics** — a stale copy of the truth (row counts are
  perturbed by ``stats_staleness_sigma``), which is what the
  cost model sees.  The gap between the two is one of the mechanisms behind
  the paper's "estimated cost does not predict latency" observation (Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError
from repro.rng import keyed_rng
from repro.scope.types import Column, DataType, Schema

__all__ = ["ColumnStats", "TableDef", "Catalog"]


@dataclass(frozen=True)
class ColumnStats:
    """Ground-truth distribution summary for one column.

    Numeric columns are modelled as (optionally skewed) ranges; string
    columns as categorical domains with ``ndv`` distinct values.  ``skew`` is
    a Zipf-like exponent: 0 means uniform, larger means a handful of heavy
    values.
    """

    min_value: float
    max_value: float
    ndv: int
    skew: float = 0.0
    null_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.ndv <= 0:
            raise CatalogError("ndv must be positive")
        if self.max_value < self.min_value:
            raise CatalogError("max_value must be >= min_value")
        if not 0.0 <= self.null_fraction < 1.0:
            raise CatalogError("null_fraction must be in [0, 1)")


@dataclass
class TableDef:
    """A table (an unstructured stream in SCOPE terms) with statistics."""

    name: str
    schema: Schema
    row_count: int
    column_stats: dict[str, ColumnStats] = field(default_factory=dict)
    path: str = ""

    def __post_init__(self) -> None:
        if self.row_count < 0:
            raise CatalogError("row_count must be non-negative")
        if not self.path:
            self.path = f"/shares/data/{self.name}.ss"
        for col_name in self.column_stats:
            if col_name not in self.schema:
                raise CatalogError(
                    f"statistics refer to unknown column {col_name!r} of table {self.name!r}"
                )

    def stats_for(self, column: str) -> ColumnStats:
        """Return stats for ``column``, synthesizing a default when absent."""
        if column in self.column_stats:
            return self.column_stats[column]
        dtype = self.schema.column(column).dtype
        if dtype == DataType.BOOL:
            return ColumnStats(0, 1, 2)
        ndv = max(1, min(self.row_count, 1000))
        return ColumnStats(0, max(1.0, float(ndv)), ndv)


class Catalog:
    """Name → table mapping plus the stale statistics snapshot.

    ``stats_seed`` controls the deterministic staleness perturbation: the
    optimizer's row-count estimate for a table is
    ``row_count * exp(N(0, staleness_sigma))`` with the noise keyed by
    ``(stats_seed, table name)`` so it is stable across recompilations.
    """

    def __init__(self, stats_seed: int = 0, stats_staleness_sigma: float = 0.0) -> None:
        self._tables: dict[str, TableDef] = {}
        self.stats_seed = stats_seed
        self.stats_staleness_sigma = stats_staleness_sigma
        #: bumped on every mutation; plan/script caches key on it so a plan
        #: compiled against yesterday's table sizes is never served today
        self.version = 0
        # table name -> staleness factor: a pure function of
        # ``(stats_seed, name)`` read once per ``Get`` per memo, so the
        # generator behind it is built once per table
        self._staleness: dict[str, float] = {}

    def clone(self) -> "Catalog":
        """An independent copy with the same tables, stats and version.

        For isolating an engine from later mutation of this catalog (test
        fixtures compare engines over one starting state); nothing in the
        package copies a catalog — the one engine, and so every shard,
        reads the workload's one.  ``TableDef`` objects are shared: day-over-day
        growth replaces them wholesale rather than mutating.
        """
        replica = Catalog(
            stats_seed=self.stats_seed,
            stats_staleness_sigma=self.stats_staleness_sigma,
        )
        replica._tables = dict(self._tables)
        replica._staleness = dict(self._staleness)
        replica.version = self.version
        return replica

    def add_table(self, table: TableDef) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self.version += 1

    def replace_table(self, table: TableDef) -> None:
        """Replace a table definition (recurring jobs see fresh inputs daily)."""
        self._tables[table.name] = table
        self.version += 1

    def table(self, name: str) -> TableDef:
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"unknown table {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    def estimated_row_count(self, name: str) -> float:
        """Row count as seen by the optimizer (stale, deterministic)."""
        table = self.table(name)
        if self.stats_staleness_sigma <= 0.0:
            return float(table.row_count)
        factor = self._staleness.get(name)
        if factor is None:
            rng = keyed_rng(self.stats_seed, "stats-staleness", name)
            factor = float(rng.lognormal(mean=0.0, sigma=self.stats_staleness_sigma))
            self._staleness[name] = factor
        return max(1.0, table.row_count * factor)
