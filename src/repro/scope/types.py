"""Schema and type primitives shared across the SCOPE substrate."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.errors import CatalogError

__all__ = ["DataType", "Column", "Schema"]


class DataType(enum.Enum):
    """Column data types of the SCOPE-like language."""

    INT = "int"
    LONG = "long"
    DOUBLE = "double"
    STRING = "string"
    BOOL = "bool"
    DATETIME = "datetime"

    @property
    def byte_width(self) -> int:
        """Average serialized width used for row-size accounting."""
        return _BYTE_WIDTHS[self]

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.LONG, DataType.DOUBLE)

    @classmethod
    def parse(cls, text: str) -> "DataType":
        """Parse a type name as written in scripts (``a:int``)."""
        try:
            return cls(text.lower())
        except ValueError as exc:
            raise CatalogError(f"unknown data type {text!r}") from exc


_BYTE_WIDTHS = {
    DataType.INT: 4,
    DataType.LONG: 8,
    DataType.DOUBLE: 8,
    DataType.BOOL: 1,
    DataType.DATETIME: 8,
    DataType.STRING: 24,
}


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    dtype: DataType

    def __str__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


class Schema:
    """An ordered list of columns with name lookup.

    Schemas are immutable; transformation helpers return new instances.
    """

    def __init__(self, columns: list[Column] | tuple[Column, ...]) -> None:
        self._columns = tuple(columns)
        self._by_name: dict[str, Column] = {}
        for col in self._columns:
            if col.name in self._by_name:
                raise CatalogError(f"duplicate column name {col.name!r} in schema")
            self._by_name[col.name] = col

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self):
        return iter(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._columns == other._columns

    def __hash__(self) -> int:
        return hash(self._columns)  # qa: hash-ok in-process dict/set membership only, pairs with __eq__; persisted keys use blake2b digests

    def __repr__(self) -> str:
        inner = ", ".join(str(col) for col in self._columns)
        return f"Schema({inner})"

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`CatalogError`."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise CatalogError(f"unknown column {name!r}") from exc

    def index_of(self, name: str) -> int:
        for i, col in enumerate(self._columns):
            if col.name == name:
                return i
        raise CatalogError(f"unknown column {name!r}")

    def project(self, names: list[str] | tuple[str, ...]) -> "Schema":
        """Return a schema restricted (and reordered) to ``names``."""
        return Schema([self.column(name) for name in names])

    def concat(self, other: "Schema", *, disambiguate: bool = True) -> "Schema":
        """Return the concatenation of two schemas (as a join output).

        When ``disambiguate`` is true, columns of ``other`` that collide with
        a name on the left side get a ``_r`` suffix, mirroring how the SCOPE
        binder renames join outputs.
        """
        columns = list(self._columns)
        taken = set(self.names)
        for col in other.columns:
            name = col.name
            if disambiguate:
                while name in taken:
                    name = f"{name}_r"
            columns.append(Column(name, col.dtype))
            taken.add(name)
        return Schema(columns)

    @cached_property
    def row_width(self) -> int:
        """Average serialized row width in bytes."""
        return max(1, sum(col.dtype.byte_width for col in self._columns))
