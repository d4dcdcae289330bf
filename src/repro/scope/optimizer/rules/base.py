"""Rule framework: categories, registry, configurations, signatures, flips.

This is the machinery the whole paper revolves around:

* every rule belongs to one of SCOPE's four categories (§2.1): *required*,
  *on-by-default*, *off-by-default* and *implementation*;
* a :class:`RuleConfiguration` is the bitvector of enabled rules the
  optimizer runs under — the default configuration enables everything
  except the off-by-default rules;
* a :class:`RuleSignature` is the bitvector of rules that *directly
  contributed to the final plan* (§2.1), returned by every compilation;
* a :class:`RuleFlip` is QO-Advisor's single-rule action: turn exactly one
  non-required rule on or off relative to the default configuration (§2.4).

A search rule is a *pattern* and a *substitute*, and only the substitute is
code: the rule declares the operator class it fires on (``root``) and, for
the one-level binding, the operator class of a logical expression in one
child group (``inner`` / ``inner_child``).  The engine tests ``root`` in
its search loop, :meth:`TransformationRule.apply` is the one binding loop,
and a rule implements ``rewrite`` (or ``build``) for one bound pattern.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import OptimizationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.scope.data import ColumnOrigin
    from repro.scope.optimizer.memo import GroupExpression, Memo
    from repro.scope.plan.logical import LogicalOp
    from repro.scope.plan.physical import PhysicalOp

__all__ = [
    "RuleCategory",
    "Rule",
    "NormalizationRule",
    "TransformationRule",
    "ImplementationRule",
    "RuleRegistry",
    "RuleConfiguration",
    "RuleSignature",
    "RuleFlip",
    "default_registry",
]


class RuleCategory(enum.Enum):
    """SCOPE's four rule categories (paper §2.1)."""

    REQUIRED = "required"
    ON_BY_DEFAULT = "on_by_default"
    OFF_BY_DEFAULT = "off_by_default"
    IMPLEMENTATION = "implementation"

    @property
    def default_enabled(self) -> bool:
        return self != RuleCategory.OFF_BY_DEFAULT


class Rule:
    """Base class for optimizer rules.

    ``rule_id`` is assigned by the registry; it is the bit position of the
    rule in configurations, signatures and spans.
    """

    name: str = "rule"
    category: RuleCategory = RuleCategory.ON_BY_DEFAULT

    def __init__(self) -> None:
        self.rule_id: int = -1

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.rule_id} {self.name} [{self.category.value}]>"


class NormalizationRule(Rule):
    """A whole-tree rewrite applied before memo insertion."""

    category = RuleCategory.REQUIRED

    def normalize(
        self, root: "LogicalOp", origins: "dict[str, ColumnOrigin]"
    ) -> tuple["LogicalOp", bool]:
        """Return (possibly new) root and whether anything changed."""
        raise NotImplementedError


class TransformationRule(Rule):
    """Produces alternative logical expressions for a memo group.

    The pattern is ``root`` over, when ``inner`` is set, one ``inner``
    expression of child group ``inner_child`` (standard cascades one-level
    binding).  The engine only calls :meth:`apply` on expressions whose
    operator is a ``root``.
    """

    root: "type[LogicalOp]"
    inner: "type[LogicalOp] | None" = None
    inner_child: int = 0

    def apply(self, expr: "GroupExpression", memo: "Memo") -> list["LogicalOp"]:
        """Alternative trees (with GroupHandle leaves), one per binding."""
        if self.inner is None:
            tree = self.rewrite(expr, None, memo)
            return [] if tree is None else [tree]
        trees = []
        for inner in memo.group(expr.child_ids[self.inner_child]).logical_exprs:
            if isinstance(inner.op, self.inner):
                tree = self.rewrite(expr, inner, memo)
                if tree is not None:
                    trees.append(tree)
        return trees

    def rewrite(
        self, expr: "GroupExpression", inner: "GroupExpression | None", memo: "Memo"
    ) -> "LogicalOp | None":
        """The substitute for one bound pattern, or None when it does not apply.

        ``inner`` is the bound child-group expression (None for rules that
        declare no ``inner``).  Must be a pure function of ``expr``,
        ``inner`` and the schemas of the groups they name: the engine also
        calls it after searches this rule was disabled in, to learn whether
        enabling it would have produced anything
        (``OptimizationResult.inert_mask``).
        """
        raise NotImplementedError


class ImplementationRule(Rule):
    """Maps a logical operator onto a physical operator template.

    The engine only calls :meth:`build` on operators that are a ``root``.
    """

    root: "type[LogicalOp]"

    def build(self, op: "LogicalOp") -> "PhysicalOp | None":
        """The physical operator implementing ``op``, or None when the rule
        does not cover it (the engine wires it over ``op``'s child groups).
        A pure function of ``op`` — like ``rewrite``, also called for rules
        a compile did not enable."""
        raise NotImplementedError


class RuleRegistry:
    """Ordered collection of rules; rule ids are stable registration indexes."""

    def __init__(self) -> None:
        self._rules: list[Rule] = []
        self._by_name: dict[str, Rule] = {}
        #: the registry partitioned by what the engine does with a rule,
        #: each in registration order (enforcer pseudo-rules are in none)
        self.normalizations: list[NormalizationRule] = []
        self.transformations: list[TransformationRule] = []
        self.implementations: list[ImplementationRule] = []
        #: bitmask of transformation-rule ids.
        #: ``config.bits & transformation_mask`` is the projection of a
        #: configuration onto the bits that can affect a *logical* search:
        #: exploration iterates transformation rules only, and no rule reads
        #: group statistics, so two configurations with equal projections
        #: produce bit-identical fragment closures.  The fragment store keys
        #: on this projection so implementation-only flips (span probes,
        #: recompiles) share logical entries with the default configuration.
        self.transformation_mask = 0
        #: bitmask of implementation-rule ids (equal projections mean
        #: identical implementation rule sets, hence identical physical
        #: alternatives)
        self.implementation_mask = 0
        #: operator class → bitmask of the transformation / implementation
        #: rule ids that declare it as their ``root``
        self.root_masks: "dict[type[LogicalOp], int]" = {}

    def register(self, rule: Rule) -> Rule:
        if rule.name in self._by_name:
            raise OptimizationError(f"duplicate rule name {rule.name!r}")
        rule.rule_id = len(self._rules)
        self._rules.append(rule)
        self._by_name[rule.name] = rule
        bit = 1 << rule.rule_id
        if isinstance(rule, NormalizationRule):
            self.normalizations.append(rule)
        elif isinstance(rule, TransformationRule):
            self.transformations.append(rule)
            self.transformation_mask |= bit
        elif isinstance(rule, ImplementationRule):
            self.implementations.append(rule)
            self.implementation_mask |= bit
        if isinstance(rule, (TransformationRule, ImplementationRule)):
            self.root_masks[rule.root] = self.root_masks.get(rule.root, 0) | bit
        return rule

    def bindable_mask(self, op_classes: "Iterable[type[LogicalOp]]") -> int:
        """Bitmask of the search rules whose ``root`` matches an operator of
        one of ``op_classes`` — the rules the engine's ``isinstance(op,
        rule.root)`` test can pass for at least one such operator."""
        mask = 0
        for op_class in op_classes:
            for base in op_class.__mro__:
                mask |= self.root_masks.get(base, 0)
        return mask

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def rule(self, rule_id: int) -> Rule:
        try:
            return self._rules[rule_id]
        except IndexError as exc:
            raise OptimizationError(f"unknown rule id {rule_id}") from exc

    def by_name(self, name: str) -> Rule:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise OptimizationError(f"unknown rule {name!r}") from exc

    def ids_in_category(self, category: RuleCategory) -> list[int]:
        return [rule.rule_id for rule in self._rules if rule.category == category]

    @property
    def flippable_ids(self) -> list[int]:
        """Rules QO-Advisor may flip: everything except required rules."""
        return [r.rule_id for r in self._rules if r.category != RuleCategory.REQUIRED]

    def default_configuration(self) -> "RuleConfiguration":
        bits = 0
        for rule in self._rules:
            if rule.category.default_enabled:
                bits |= 1 << rule.rule_id
        return RuleConfiguration(bits, len(self._rules))


@dataclass(frozen=True)
class RuleConfiguration:
    """An immutable bitvector of enabled rules."""

    bits: int
    size: int

    def is_enabled(self, rule_id: int) -> bool:
        return bool(self.bits >> rule_id & 1)

    def with_flip(self, rule_id: int) -> "RuleConfiguration":
        """Return the configuration with ``rule_id`` toggled."""
        if not 0 <= rule_id < self.size:
            raise OptimizationError(f"rule id {rule_id} out of range")
        return RuleConfiguration(self.bits ^ (1 << rule_id), self.size)

    def with_flips(self, rule_ids: Iterable[int]) -> "RuleConfiguration":
        config = self
        for rule_id in rule_ids:
            config = config.with_flip(rule_id)
        return config

    def diff(self, other: "RuleConfiguration") -> list[int]:
        """Rule ids where the two configurations differ."""
        xor = self.bits ^ other.bits
        return [i for i in range(max(self.size, other.size)) if xor >> i & 1]

    def as_bitstring(self) -> str:
        return "".join("1" if self.is_enabled(i) else "0" for i in range(self.size))


@dataclass(frozen=True)
class RuleSignature:
    """The set of rules that directly contributed to a final plan (§2.1)."""

    rule_ids: frozenset[int]
    size: int

    @staticmethod
    def from_ids(rule_ids: Iterable[int], size: int) -> "RuleSignature":
        return RuleSignature(frozenset(rule_ids), size)

    def __contains__(self, rule_id: int) -> bool:
        return rule_id in self.rule_ids

    def __len__(self) -> int:
        return len(self.rule_ids)

    def as_bitstring(self) -> str:
        return "".join("1" if i in self.rule_ids else "0" for i in range(self.size))

    def non_required_ids(self, registry: RuleRegistry) -> frozenset[int]:
        return frozenset(
            rule_id
            for rule_id in self.rule_ids
            if registry.rule(rule_id).category != RuleCategory.REQUIRED
        )


@dataclass(frozen=True)
class RuleFlip:
    """QO-Advisor's action: flip exactly one rule against the default config.

    ``turn_on`` is purely informational (derivable from the default
    configuration); it is kept because hints files record it explicitly.
    """

    rule_id: int
    turn_on: bool

    def apply_to(self, config: RuleConfiguration) -> RuleConfiguration:
        return config.with_flip(self.rule_id)

    def describe(self, registry: RuleRegistry) -> str:
        rule = registry.rule(self.rule_id)
        action = "ON" if self.turn_on else "OFF"
        return f"{action} {rule.name} (#{self.rule_id}, {rule.category.value})"


def default_registry() -> RuleRegistry:
    """Build the standard registry with every rule of this optimizer.

    Imported lazily to avoid circular imports between the rule modules and
    this framework module.
    """
    from repro.scope.optimizer.rules.implementation import register_implementation_rules
    from repro.scope.optimizer.rules.normalization import register_normalization_rules
    from repro.scope.optimizer.rules.transformation import register_transformation_rules

    registry = RuleRegistry()
    register_normalization_rules(registry)
    register_transformation_rules(registry)
    register_implementation_rules(registry)
    return registry
