import pytest

from repro.errors import CatalogError
from repro.rng import keyed_rng
from repro.scope.catalog import Catalog, ColumnStats, TableDef
from repro.scope.types import Column, DataType, Schema


def _table(name="t", rows=1000):
    return TableDef(name, Schema([Column("a", DataType.INT)]), rows)


def test_add_and_lookup():
    catalog = Catalog()
    catalog.add_table(_table())
    assert catalog.table("t").row_count == 1000
    assert "t" in catalog
    assert len(catalog) == 1


def test_duplicate_table_rejected():
    catalog = Catalog()
    catalog.add_table(_table())
    with pytest.raises(CatalogError):
        catalog.add_table(_table())


def test_replace_table_updates():
    catalog = Catalog()
    catalog.add_table(_table(rows=10))
    catalog.replace_table(_table(rows=99))
    assert catalog.table("t").row_count == 99


def test_unknown_table_raises():
    with pytest.raises(CatalogError):
        Catalog().table("nope")


def test_default_path_derived_from_name():
    assert _table("events").path == "/shares/data/events.ss"


def test_stats_for_unknown_column_synthesized():
    table = _table()
    stats = table.stats_for("a")
    assert stats.ndv >= 1


def test_stats_validation():
    with pytest.raises(CatalogError):
        ColumnStats(0, 10, 0)
    with pytest.raises(CatalogError):
        ColumnStats(10, 0, 5)
    with pytest.raises(CatalogError):
        ColumnStats(0, 10, 5, null_fraction=1.5)


def test_stats_must_reference_existing_columns():
    with pytest.raises(CatalogError):
        TableDef(
            "t",
            Schema([Column("a", DataType.INT)]),
            10,
            {"ghost": ColumnStats(0, 1, 1)},
        )


def test_estimated_row_count_is_stale_but_deterministic():
    catalog = Catalog(stats_seed=5, stats_staleness_sigma=0.2)
    catalog.add_table(_table(rows=100_000))
    first = catalog.estimated_row_count("t")
    second = catalog.estimated_row_count("t")
    assert first == second
    assert first != 100_000  # staleness perturbs the estimate


def test_estimated_row_count_builds_one_generator_per_table(monkeypatch):
    from repro.scope import catalog as catalog_module

    keys = []

    def counting(*key):
        keys.append(key)
        return keyed_rng(*key)

    monkeypatch.setattr(catalog_module, "keyed_rng", counting)
    catalog = Catalog(stats_seed=5, stats_staleness_sigma=0.2)
    catalog.add_table(_table(rows=100_000))
    first = catalog.estimated_row_count("t")
    # bit-identical to the unmemoized draw
    factor = float(keyed_rng(5, "stats-staleness", "t").lognormal(mean=0.0, sigma=0.2))
    assert first == max(1.0, 100_000 * factor)
    # the second call constructs no generator, nor does a clone's, and the
    # factor scales whatever the table has grown to
    assert catalog.estimated_row_count("t") == first
    catalog.replace_table(_table(rows=200_000))
    assert catalog.clone().estimated_row_count("t") == max(1.0, 200_000 * factor)
    assert keys == [(5, "stats-staleness", "t")]


def test_estimated_row_count_exact_without_staleness():
    catalog = Catalog()
    catalog.add_table(_table(rows=123))
    assert catalog.estimated_row_count("t") == 123.0
