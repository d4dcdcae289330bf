"""Physical plan properties: data distribution and sort order.

SCOPE's optimizer produces distributed plans, so beyond the classic sort
order property it reasons about how rows are partitioned across vertices.
The optimizer requests *required* properties top-down and compares them with
the properties an operator *delivers*; mismatches are bridged by enforcers
(:class:`~repro.scope.plan.physical.Exchange` and
:class:`~repro.scope.plan.physical.SortExec`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["DistributionKind", "Distribution", "PhysProps"]


class DistributionKind(enum.Enum):
    """How rows of an intermediate result are spread across vertices."""

    ANY = "any"  # requirement only: caller does not care
    RANDOM = "random"  # round-robin / unknown partitioning
    HASH = "hash"  # hash partitioned on a key set
    BROADCAST = "broadcast"  # full copy on every vertex
    SINGLETON = "singleton"  # all rows on a single vertex


@dataclass(frozen=True)
class Distribution:
    """A distribution property; ``columns`` only meaningful for HASH."""

    kind: DistributionKind
    columns: tuple[str, ...] = ()

    _hash = None  # not a field: hash memo, filled on first use

    def __post_init__(self) -> None:
        if self.kind == DistributionKind.HASH and not self.columns:
            raise ValueError("HASH distribution requires key columns")
        if self.kind != DistributionKind.HASH and self.columns:
            raise ValueError(f"{self.kind.value} distribution takes no key columns")

    def __hash__(self) -> int:
        # hashed once per object: winner tables are keyed by properties and
        # an enum member's __hash__ is a Python-level call
        value = self._hash
        if value is None:
            value = hash((self.kind, self.columns))  # qa: hash-ok in-process dict/set membership only, pairs with the dataclass __eq__; never ordered or persisted
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # rebuild from the fields: the memoized hash is salted per process
        return (Distribution, (self.kind, self.columns))

    # the nullary kinds are immutable values: one shared instance each

    @staticmethod
    def any() -> "Distribution":
        return _ANY

    @staticmethod
    def random() -> "Distribution":
        return _RANDOM

    @staticmethod
    def hash(columns: tuple[str, ...]) -> "Distribution":
        return Distribution(DistributionKind.HASH, tuple(columns))

    @staticmethod
    def broadcast() -> "Distribution":
        return _BROADCAST

    @staticmethod
    def singleton() -> "Distribution":
        return _SINGLETON

    def satisfies(self, required: "Distribution") -> bool:
        """True when data distributed like ``self`` meets ``required``."""
        if required.kind == DistributionKind.ANY:
            return True
        if required.kind == DistributionKind.HASH:
            if self.kind == DistributionKind.SINGLETON:
                # a single partition is trivially co-partitioned on any key
                return True
            return self.kind == DistributionKind.HASH and self.columns == required.columns
        if required.kind == DistributionKind.BROADCAST:
            return self.kind == DistributionKind.BROADCAST
        if required.kind == DistributionKind.SINGLETON:
            return self.kind == DistributionKind.SINGLETON
        if required.kind == DistributionKind.RANDOM:
            return self.kind != DistributionKind.BROADCAST
        return False  # pragma: no cover

    def remap(self, mapping: dict[str, str]) -> "Distribution":
        """Rename key columns through ``mapping`` (for projections)."""
        if self.kind != DistributionKind.HASH:
            return self
        if any(col not in mapping for col in self.columns):
            return Distribution.random()
        return Distribution.hash(tuple(mapping[col] for col in self.columns))

    def __str__(self) -> str:
        if self.kind == DistributionKind.HASH:
            return f"hash({', '.join(self.columns)})"
        return self.kind.value


_ANY = Distribution(DistributionKind.ANY)
_RANDOM = Distribution(DistributionKind.RANDOM)
_BROADCAST = Distribution(DistributionKind.BROADCAST)
_SINGLETON = Distribution(DistributionKind.SINGLETON)


@dataclass(frozen=True)
class PhysProps:
    """Required or delivered physical properties of a plan fragment."""

    distribution: Distribution
    #: sort order as (column name, ascending) pairs; () means unsorted
    sort_keys: tuple[tuple[str, bool], ...] = ()

    _hash = None  # not a field: hash memo, as on Distribution

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((self.distribution, self.sort_keys))  # qa: hash-ok in-process dict/set membership only, pairs with the dataclass __eq__; never ordered or persisted
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return (PhysProps, (self.distribution, self.sort_keys))

    @staticmethod
    def any() -> "PhysProps":
        return _ANY_PROPS

    def satisfies(self, required: "PhysProps") -> bool:
        if not self.distribution.satisfies(required.distribution):
            return False
        if not required.sort_keys:
            return True
        return self.sort_keys[: len(required.sort_keys)] == required.sort_keys

    def __str__(self) -> str:
        sort = ""
        if self.sort_keys:
            keys = ", ".join(f"{c}{'' if asc else ' desc'}" for c, asc in self.sort_keys)
            sort = f" sorted({keys})"
        return f"{self.distribution}{sort}"


_ANY_PROPS = PhysProps(_ANY)
