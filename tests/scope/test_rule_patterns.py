"""A rule declares its pattern; the search loop does the matching.

Three oracles over the 34 transformation / implementation rules:

* a *per-rule differential*: every rule applied to every logical
  expression of a corpus that exposes every pattern, digested line by
  line against a literal captured before the rules were rewritten from
  hand-matched ``apply`` bodies to ``root`` / ``inner`` / ``rewrite`` —
  the golden fingerprints cannot see a mistake in a rule no workload
  plan reaches, this can;
* a *pattern table*: the declared patterns are well formed and no rule
  matches operators by hand any more;
* a *reachability census*: which transformation rules ever produce an
  alternative on real compiles.  Five never do (ROADMAP, aim 3, "rules no
  plan reaches"): whoever closes that gap edits ``REACHED`` below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import re
from collections import Counter

from repro.config import CacheConfig, SimulationConfig
from repro.errors import OptimizationError
from repro.scope.engine import ScopeEngine
from repro.scope.language import ast
from repro.scope.optimizer.cardinality import GroupStats
from repro.scope.optimizer.engine import Optimizer, SearchBudget
from repro.scope.optimizer.memo import GroupHandle, Memo
from repro.scope.optimizer.rules import implementation, transformation
from repro.scope.optimizer.rules.base import (
    ImplementationRule,
    TransformationRule,
    default_registry,
)
from repro.scope.plan import logical
from repro.scope.types import Column, DataType, Schema
from repro.workload.generator import build_workload

# -- the corpus ---------------------------------------------------------------


class _FlatCardinality:
    """No rule reads group statistics, so the corpus memos need none."""

    def derive(self, op, child_stats) -> GroupStats:
        return GroupStats(1.0, 1.0, 1)


def _above(column: str) -> ast.Expr:
    return ast.BinaryOp(">", ast.ColumnRef(column), ast.Literal(0, DataType.INT))


def _equal(left: str, right: str) -> ast.Expr:
    return ast.BinaryOp("==", ast.ColumnRef(left), ast.ColumnRef(right))


def _renamed(node: logical.LogicalOp, suffix: str) -> logical.Project:
    """A rename-only Project over ``node`` (a second relation with fresh names)."""
    columns = [Column(col.name + suffix, col.dtype) for col in node.schema]
    items = tuple((col.name + suffix, ast.ColumnRef(col.name)) for col in node.schema)
    return logical.Project(node, items, Schema(columns))


def _wrappers(node: logical.LogicalOp) -> list[logical.LogicalOp]:
    """Synthetic trees over ``node`` that put it under every rule pattern."""
    if isinstance(node, (logical.Output, logical.SuperRoot)):
        return []
    first, last = node.schema.names[0], node.schema.names[-1]
    count = logical.AggSpec("COUNT", None, "wrapped_cnt")
    trees: list[logical.LogicalOp] = [
        logical.Filter(node, _above(first)),
        logical.Filter(logical.Filter(node, _above(first)), _above(last)),
        logical.Filter(node, ast.make_conjunction([_above(first), _above(last)])),
        logical.Filter(logical.Sort(node, ((first, True),)), _above(first)),
        logical.Sort(_renamed(node, "_s"), ((first + "_s", True),)),
    ]
    if isinstance(node, logical.Join):
        left, right = node.children
        pair = (left.schema.names[-1], right.schema.names[-1])
        trees += [
            # a cross-side equality above the join, and the same one as residual
            logical.Filter(node, ast.make_conjunction([_equal(*pair), _above(first)])),
            logical.Join(left, right, "INNER", node.equi_keys, _equal(*pair)),
            # a filter on the left key, for the right side to inherit
            logical.Join(
                logical.Filter(left, _above(pair[0])), right, "INNER", (pair,), None
            ),
            # right-deep: A ⋈ (B ⋈ C) with A a renamed copy of B
            logical.Join(
                _renamed(left, "_a"),
                logical.Join(left, right, "INNER", (pair,), None),
                "INNER",
                ((left.schema.names[0] + "_a", left.schema.names[0]),),
                None,
            ),
        ]
    if isinstance(node, logical.UnionAll):
        keyed = logical.Aggregate(node, (first,), (count,))
        trees += [
            keyed,
            logical.Filter(
                keyed, ast.make_conjunction([_above(first), _above("wrapped_cnt")])
            ),
        ]
    return trees


def _render(op: logical.LogicalOp) -> str:
    """A logical tree as one line; group handles render as ``@group``."""
    if isinstance(op, GroupHandle):
        return op.local_key()
    return op.local_key() + "[" + " ".join(_render(child) for child in op.children) + "]"


def _transform(rule: TransformationRule, expr, memo: Memo) -> list[logical.LogicalOp]:
    return rule.apply(expr, memo) if isinstance(expr.op, rule.root) else []


def _implement(rule: ImplementationRule, expr) -> list:
    built = rule.build(expr.op) if isinstance(expr.op, rule.root) else None
    return [] if built is None else [built]


def _apply_every_rule(registry, memo: Memo, exprs, hasher, census: Counter) -> None:
    for expr in exprs:
        source = f"{expr.op.local_key()}{expr.child_ids}"
        for rule in registry:
            if isinstance(rule, TransformationRule):
                trees = _transform(rule, expr, memo)
                outputs = [_render(tree) for tree in trees]
                for tree in trees:
                    memo.insert_tree(tree, frozenset(), memo.groups[expr.group_id])
            elif isinstance(rule, ImplementationRule):
                outputs = [op.local_key() for op in _implement(rule, expr)]
            else:
                continue
            for output in outputs:
                hasher.update(f"{rule.name}|{source}|{output}\n".encode())
            census[rule.name] += len(outputs)


# captured on the parent of the pattern rewrite (commit 0739a07)
#: sha256 over 69 841 ``rule | source | output`` lines
DIFFERENTIAL_DIGEST = "9731993ea91ab16fe692d8f9c9612f9ec0d94003bfba4c1bf46acdd5bc59c19f"
#: outputs per rule over the corpus
DIFFERENTIAL_CENSUS = {
    "ComputeImpl": 9075,
    "DistinctToGroupBy": 56,
    "ExtractImpl": 2711,
    "FilterImpl": 6684,
    "FilterIntoJoin": 145,
    "FilterMerge": 1345,
    "FilterPushThroughAggregate": 639,
    "FilterPushThroughJoinLeft": 1656,
    "FilterPushThroughJoinRight": 897,
    "FilterPushThroughProject": 5535,
    "FilterPushThroughSort": 621,
    "FilterPushThroughUnion": 72,
    "FusedFilterImpl": 5424,
    "GroupByBelowUnion": 36,
    "HashAggregateImpl": 910,
    "HashJoinBroadcastImpl": 1539,
    "HashJoinPairImpl": 1539,
    "JoinAssociateLeft": 225,
    "JoinAssociateRight": 97,
    "JoinCommute": 3494,
    "JoinResidualToKeys": 1981,
    "LazyComputeImpl": 9075,
    "LocalGlobalAggregation": 810,
    "MergeJoinImpl": 1539,
    "NestedLoopJoinImpl": 3494,
    "OutputImpl": 64,
    "PartialHashAggregateImpl": 311,
    "PredicateTransfer": 178,
    "ProjectMerge": 4664,
    "SortImpl": 1928,
    "SortPushThroughProject": 1953,
    "StreamAggregateImpl": 910,
    "SuperRootImpl": 60,
    "UnionAllImpl": 174,
}


def test_every_rule_rewrites_the_corpus_exactly_as_before():
    """Per-rule differential over day 0 of the default 60-template workload.

    Each un-normalized compiled root, and every wrapper of every node under
    it, goes into a fresh memo; every rule is applied to every logical
    expression, then once more to what the first pass created (so keyed
    joins and partial aggregates exist for the implementation rules).
    """
    workload = build_workload(SimulationConfig())
    engine = ScopeEngine(workload.catalog, workload.config, workload.registry)
    registry = workload.registry
    hasher = hashlib.sha256()
    census: Counter = Counter()
    for template in workload.templates:
        root = engine.compile(template.script_for_day(0)).root
        trees = [root]
        for node in logical.walk(root):
            trees.extend(_wrappers(node))
        for tree in trees:
            memo = Memo(_FlatCardinality(), max_exprs_per_group=10**6, max_total_exprs=10**6)
            assert memo.insert_tree(tree) is not None
            first_pass = list(memo.created)
            _apply_every_rule(registry, memo, first_pass, hasher, census)
            second_pass = memo.created[len(first_pass) :]
            _apply_every_rule(registry, memo, list(second_pass), hasher, census)
    searched = [
        rule.name
        for rule in registry
        if isinstance(rule, (TransformationRule, ImplementationRule))
    ]
    assert len(searched) == 34
    assert [name for name in searched if not census[name]] == []
    assert dict(census) == DIFFERENTIAL_CENSUS
    assert hasher.hexdigest() == DIFFERENTIAL_DIGEST


def test_a_starved_search_still_has_a_physical_plan():
    """Every corpus tree compiles under the default configuration with no
    transformation at all — the premise ``SpanComputer.compute`` leans on
    when it answers a probe without compiling it: turning on a rule that
    binds nowhere can only shorten the search, and a shorter search, down
    to none, still ends in a plan."""
    workload = build_workload(SimulationConfig())
    engine = ScopeEngine(workload.catalog, workload.config, workload.registry)
    starved = Optimizer(
        workload.registry,
        engine.default_config,
        engine.data_model,
        budget=SearchBudget(max_transformations=0),
    )
    for template in workload.templates:
        compiled = engine.compile(template.script_for_day(0))
        trees = [compiled.root]
        for node in logical.walk(compiled.root):
            trees.extend(_wrappers(node))
        for tree in trees:
            result = starved.optimize(dataclasses.replace(compiled, root=tree))
            assert result.applications == 0 and result.plan is not None


# -- the pattern table -------------------------------------------------------


def test_every_rule_declares_a_pattern_and_none_matches_by_hand():
    registry = default_registry()
    assert len(registry.transformations) == 18 and len(registry.implementations) == 16
    for rule in registry.transformations:
        assert issubclass(rule.root, logical.LogicalOp), rule
        assert rule.inner is None or issubclass(rule.inner, logical.LogicalOp), rule
        assert type(rule).apply is TransformationRule.apply, rule
    for rule in registry.implementations:
        assert issubclass(rule.root, logical.LogicalOp), rule
    for module in (transformation, implementation):
        source = inspect.getsource(module)
        assert not re.search(r"isinstance\([^)]*logical\.", source), module.__name__
        assert "logical_exprs" not in source, module.__name__


# -- the reachability census -------------------------------------------------

#: transformation rules that produce at least one alternative somewhere in
#: the tiny workload under the default configuration or a single flip;
#: captured on the parent of the pattern rewrite.  Absent on every workload
#: measured (tiny, the default 60 templates, the ledger's 40 shared-subtree
#: templates): FilterPushThroughUnion, FilterPushThroughAggregate,
#: FilterPushThroughSort, FilterIntoJoin, GroupByBelowUnion — the compiler
#: puts a per-rowset rename Project between the operators their patterns
#: name, and no template writes a cross-side WHERE equality (ROADMAP aim 3)
#: — and SortPushThroughProject.  FilterMerge is silent only here (6
#: outputs in ~36 000 tries on the 60 templates).
REACHED = frozenset(
    {
        "DistinctToGroupBy",
        "FilterPushThroughJoinLeft",
        "FilterPushThroughJoinRight",
        "FilterPushThroughProject",
        "JoinAssociateLeft",
        "JoinAssociateRight",
        "JoinCommute",
        "JoinResidualToKeys",
        "LocalGlobalAggregation",
        "PredicateTransfer",
        "ProjectMerge",
    }
)


def test_reachability_census_matches_the_recorded_gap(tiny_config):
    registry = default_registry()
    workload = build_workload(tiny_config, registry)
    produced: Counter = Counter()

    def counting(rule):
        apply = rule.apply

        def counted(expr, memo):
            trees = apply(expr, memo)
            produced[rule.name] += len(trees)
            return trees

        return counted

    for rule in registry.transformations:
        rule.apply = counting(rule)
    config = SimulationConfig(
        seed=tiny_config.seed,
        workload=tiny_config.workload,
        cache=CacheConfig(enabled=False, fragment_enabled=False, mqo_enabled=False),
    )
    engine = ScopeEngine(workload.catalog, config, registry)
    default = engine.default_config
    configs = [default] + [default.with_flip(rule_id) for rule_id in registry.flippable_ids]
    for template in workload.templates:
        compiled = engine.compile(template.script_for_day(0))
        for rule_config in configs:
            try:
                engine.optimize(compiled, rule_config)
            except OptimizationError:
                pass  # a flip that disables a sole implementation
    assert frozenset(name for name, count in produced.items() if count) == REACHED
