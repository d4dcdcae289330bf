"""The optimization engine: normalize → explore → implement → extract.

A bounded cascades search.  Like any production optimizer it is *not* an
exhaustive cost minimizer: exploration runs off a FIFO worklist under
per-group and global expansion budgets, so the set of plans considered
depends on which rules fire and in what order.  This is deliberate and
load-bearing: it is why flipping a rule **off** can occasionally free
budget for a *better* plan, the non-monotonicity that makes QO-Advisor's
single-rule-flip search space interesting (paper §2.2, Table 3).
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass

from repro.errors import OptimizationError
from repro.scope.compile import CompiledScript
from repro.scope.data import DataModel
from repro.scope.optimizer.cardinality import CardinalityModel, GroupStats
from repro.scope.optimizer.cost import CostModel
from repro.scope.optimizer.fragments import FragmentEntry, fragment_profile
from repro.scope.optimizer.memo import Adoption, Group, GroupExpression, Memo, Winner
from repro.scope.plan import logical
from repro.scope.optimizer.rules.base import (
    RuleCategory,
    RuleConfiguration,
    RuleRegistry,
    RuleSignature,
)
from repro.scope.plan.physical import Exchange, PhysicalOp, PhysicalPlanNode, SortExec
from repro.scope.plan.properties import DistributionKind, PhysProps

__all__ = ["NO_PHYSICAL_PLAN", "Optimizer", "OptimizationResult", "SearchBudget"]

#: the error a compile raises when the root group has no physical plan
NO_PHYSICAL_PLAN = "no physical plan under the current rule configuration"


@dataclass(frozen=True)
class SearchBudget:
    """Exploration bounds (production optimizers bound their task queues)."""

    max_exprs_per_group: int = 12
    max_total_exprs: int = 1500
    max_transformations: int = 600


@dataclass
class OptimizationResult:
    """Outcome of one compilation: plan, estimated cost, rule signature."""

    plan: PhysicalPlanNode
    est_cost: float
    signature: RuleSignature
    config: RuleConfiguration
    #: bitmask of the transformation / implementation rule ids whose
    #: ``root`` is the class of at least one logical expression this
    #: compile's search held (the finished memo plus every adopted
    #: fragment's closure) — a rule whose bit is clear had nothing to bind
    #: to.  Required: a result built without it must fail, never read as
    #: "no rule can bind" (:meth:`~repro.core.spans.SpanComputer.compute`
    #: skips the probes of clear bits)
    bindable_mask: int
    #: bitmask of the rules disabled under ``config`` whose flip *on* this
    #: compile proves inert — the search under ``config`` + R pops, creates
    #: and keeps exactly what this one did, so plan, cost and signature are
    #: this result's.  An implementation rule's bit is set when its
    #: ``build`` returns ``None`` for every logical expression of the
    #: finished memo; a transformation rule's when its ``apply`` returns no
    #: tree on any logical expression of any search of the compile (each
    #: isolated fragment search and the finished main memo — bindings at an
    #: earlier state are a subset of the final ones) *and* every one of
    #: those searches ended with room for the one extra tried pair per
    #: popped expression an enabled rule is charged whether or not it
    #: matches.  A clear bit proves nothing.  Required, like
    #: ``bindable_mask``: a result built without it must fail, never read
    #: as "nothing is inert" (:class:`~repro.scope.cache.CompilationService`
    #: answers such a flip from this result instead of compiling it)
    inert_mask: int
    #: bitmask of the enabled, non-required implementation rules in the
    #: signature whose flip *off* this compile proves fatal — without the
    #: rule the root group has no physical plan, so the compile under
    #: ``config`` − R raises :data:`NO_PHYSICAL_PLAN`.  Exploration reads no
    #: implementation bit, so that search holds this one's logical memo;
    #: a group is implementable without R when some build of a rule other
    #: than R succeeded on one of its logical expressions over implementable
    #: child groups (a least fixpoint; a group whose physical closure was
    #: replayed from a winner entry counts as implementable, and properties
    #: are ignored — both can only clear a bit).  Computed only under the
    #: registry's default configuration, the one reference
    #: :meth:`~repro.scope.cache.CompilationService._inferred` reads; 0
    #: (nothing proven) for every other compile
    fatal_mask: int = 0
    #: fragment-store keys this compile consulted (digest × config ×
    #: catalog version) — lets migration ship a script's fragments with it
    fragment_keys: tuple = ()
    #: transformation-rule applications actually run for this compile
    #: (isolated fragment searches that were cache hits contribute 0) —
    #: the machine-time proxy the fragment-cache accounting reports
    applications: int = 0

    @property
    def signature_ids(self) -> frozenset[int]:
        return self.signature.rule_ids


def _stats_digest(adoption: "Adoption") -> bytes:
    """Digest of the adopted groups' statistics, in local-group order.

    The cost context of a fragment: every float implementation + costing
    consumes (local costs, exchange/sort enforcer costs, child
    cardinalities) is a pure function of these ``GroupStats`` and the
    cost model's constants, so two compiles with equal digests — and equal
    implementation-rule bits — produce bitwise-identical physical closures
    and winner costs.  Exact bit patterns are hashed, not rounded values:
    winner reuse must never bridge two *almost* equal cost contexts.
    """
    hasher = hashlib.blake2b(digest_size=16)
    for group in adoption.groups:
        stats = group.stats
        hasher.update(
            struct.pack("<ddq", stats.true_rows, stats.est_rows, stats.row_width)
        )
    return hasher.digest()


def _substitute_handles(
    node: logical.LogicalOp,
    handles: "dict[int, logical.LogicalOp]",
    rebuilt: "dict[int, logical.LogicalOp]",
) -> logical.LogicalOp:
    """The residual tree: ``node`` with fragment roots replaced by handles.

    ``handles`` maps ``id(fragment root)`` to its group handle.  Rebuilds
    only the spine above fragment roots; everything else is shared by
    reference.  DAG-shared nodes rebuild once (``rebuilt``, by identity;
    pass ``{}``).  Not a nested closure: one that calls itself is a
    function/cell cycle only the cycle collector can free.
    """
    cached = rebuilt.get(id(node))
    if cached is not None:
        return cached
    result = handles.get(id(node))
    if result is None:
        children = tuple(
            _substitute_handles(child, handles, rebuilt) for child in node.children
        )
        if all(new is old for new, old in zip(children, node.children)):
            result = node
        else:
            result = node.with_children(children)
    rebuilt[id(node)] = result
    return result


def _logical_by_class(memo: Memo) -> "dict[type, list[GroupExpression]]":
    """Every logical expression ``memo`` holds, by operator class."""
    by_class: dict[type, list[GroupExpression]] = {}
    for expr in memo.created:
        by_class.setdefault(type(expr.op), []).append(expr)
    return by_class


def _silent(rules, by_class: dict, produces) -> int:
    """Bitmask of the ``rules`` that produce nothing — ``produces(rule,
    expr)`` is falsy — on every expression of ``by_class`` their ``root``
    matches: the dry run of rules a search did not enable."""
    mask = 0
    for rule in rules:
        if not any(
            produces(rule, expr)
            for op_class, exprs in by_class.items()
            if issubclass(op_class, rule.root)
            for expr in exprs
        ):
            mask |= 1 << rule.rule_id
    return mask


def _fatal(builds: dict, root_id: int, candidates: int) -> int:
    """Bitmask of the ``candidates`` rules without which group ``root_id``
    is not implementable.

    ``builds`` maps every group the implementation phase ran on to the
    ``(rule id, child group ids)`` of each successful build there; a group
    absent from it was replayed from a winner entry and counts as
    implementable.  Per rule R this is a least fixpoint — a group becomes
    implementable without R once a build of a rule other than R has only
    such children — computed for every candidate at once: ``needs[g]``
    holds the rules ``g`` cannot do without, starts at every candidate
    (nothing proven implementable) and shrinks to the intersection, over
    ``g``'s builds, of the build's rule and its children's needs.
    """
    needs = dict.fromkeys(builds, candidates)
    changed = True
    # needs only shrink: once the root's are empty, nothing is fatal
    while changed and needs.get(root_id, 0):
        changed = False
        for gid, made in builds.items():
            need = candidates
            for rule_id, children in made:
                without = 1 << rule_id
                for child in children:
                    without |= needs.get(child, 0)
                need &= without
            if need != needs[gid]:
                needs[gid] = need
                changed = True
    return needs.get(root_id, 0)


class Optimizer:
    """Cascades-style optimizer over a rule registry and configuration."""

    def __init__(
        self,
        registry: RuleRegistry,
        config: RuleConfiguration,
        data_model: DataModel,
        budget: SearchBudget | None = None,
    ) -> None:
        self.registry = registry
        self.config = config
        self.data_model = data_model
        self.budget = budget or SearchBudget()
        self.cost_model = CostModel()
        self._normalization = registry.normalizations
        self._transformations = [r for r in registry.transformations if self._enabled(r)]
        self._implementations = [r for r in registry.implementations if self._enabled(r)]
        # the disabled rules: what the dry run after a search tries
        self._off_transformations = [
            r for r in registry.transformations if not self._enabled(r)
        ]
        self._off_implementations = [
            r for r in registry.implementations if not self._enabled(r)
        ]
        self._exchange_rule_id = registry.by_name("EnforceDataExchange").rule_id
        self._sort_rule_id = registry.by_name("EnforceSortOrder").rule_id

    def _enabled(self, rule) -> bool:
        if rule.category == RuleCategory.REQUIRED:
            return True
        return self.config.is_enabled(rule.rule_id)

    # -- public API ---------------------------------------------------------

    def optimize(
        self, compiled: CompiledScript, fragments=None
    ) -> OptimizationResult:
        """Optimize a compiled job; raises OptimizationError on failure.

        Compilation is *fragment-structured*: the normalized plan is split
        into maximal join-rooted fragments plus a residual top.  Each
        fragment is explored to completion in an isolated memo — a pure
        function of (subtree, rule configuration, catalog version) — and
        its closure is adopted into the main memo; the residual then
        explores against the fully adopted fragment groups.  ``fragments``
        (a :class:`~repro.scope.cache.FragmentView`, or None) memoizes the
        isolated searches across compiles: a hit replays a stored entry
        instead of re-exploring, and because hit and miss adopt
        bit-identical entries through identical code, results do not
        depend on cache state, worker schedule, or shard topology.
        """
        signature_ids: set[int] = set()
        root = self._normalize(compiled, signature_ids)

        cardinality = CardinalityModel(self.data_model, self.data_model.catalog, compiled.origins)
        memo = Memo(
            cardinality,
            max_exprs_per_group=self.budget.max_exprs_per_group,
            max_total_exprs=self.budget.max_total_exprs,
        )

        applications = 0
        # transformation rules every search of this compile proves inert
        inert = self.registry.transformation_mask
        fragment_keys: list = []
        handles: dict[int, logical.LogicalOp] = {}
        op_classes: set[type] = set()
        adoptions: list[tuple[bytes, Adoption]] = []
        sites = fragment_profile(compiled, root)
        if sites:
            for site in sites:
                entry = None
                if fragments is not None:
                    entry = fragments.get(site.digest)
                    fragment_keys.append(fragments.key(site.digest))
                if entry is None:
                    entry = self._explore_fragment(site.node, cardinality)
                    applications += entry.applications
                    if fragments is not None:
                        fragments.put(site.digest, entry)
                # the whole closure, not just what adoption keeps: the
                # isolated search held every one of these expressions
                op_classes.update(type(op) for _, op, _, _ in entry.exprs)
                inert &= self._inert_transformations(
                    entry.silent_mask, entry.applications, entry.popped
                )
                adoption = memo.adopt_entry(entry)
                handles[id(site.node)] = memo.handle(adoption.root)
                if fragments is not None and adoption.clean:
                    adoptions.append((site.digest, adoption))
            root = _substitute_handles(root, handles, {})

        root_group = memo.insert_tree(root)
        if root_group is None:
            raise OptimizationError("initial plan exceeded the memo budget")

        explored, popped = self._explore(memo)
        applications += explored
        by_class = _logical_by_class(memo)
        op_classes.update(by_class)
        inert &= self._inert_transformations(
            self._silent_transformations(memo, by_class), explored, popped
        )
        inert |= _silent(
            self._off_implementations,
            by_class,
            lambda rule, expr: rule.build(expr.op) is not None,
        )

        # physical-winner reuse: a cleanly adopted fragment whose cost
        # context (implementation bits × group stats) matches a stored
        # winner entry replays the recorded physical closure — the
        # implementation phase then skips those groups.  Misses export
        # their closure after a successful compile.  Replay and recompute
        # are bitwise-identical by construction, so this stays inside the
        # fingerprint contract.
        pending: list[tuple[bytes, bytes, Adoption]] = []
        for digest, adoption in adoptions:
            stats_digest = _stats_digest(adoption)
            wentry = fragments.get_winner(digest, stats_digest)
            if wentry is not None:
                memo.adopt_winners(adoption, wentry)
            else:
                pending.append((digest, stats_digest, adoption))

        # only a default-configuration result is ever read for fatal_mask
        default = self.config == self.registry.default_configuration()
        builds: dict | None = {} if default else None
        self._implement(memo, builds)

        required = PhysProps.any()
        winner = self._best(memo, root_group, required)
        if winner is None:
            raise OptimizationError(NO_PHYSICAL_PLAN)
        cache: dict[tuple[int, PhysProps], PhysicalPlanNode] = {}
        plan = self._extract(memo, root_group, required, signature_ids, cache)
        for digest, stats_digest, adoption in pending:
            wentry = memo.export_winners(adoption)
            if wentry is not None:
                fragments.put_winner(digest, stats_digest, wentry)
        fatal = 0
        if builds is not None:
            candidates = 0
            for rule in self._implementations:
                if rule.category != RuleCategory.REQUIRED and rule.rule_id in signature_ids:
                    candidates |= 1 << rule.rule_id
            fatal = _fatal(builds, root_group.group_id, candidates)
        signature = RuleSignature.from_ids(signature_ids, len(self.registry))
        return OptimizationResult(
            plan=plan,
            est_cost=winner.cost,
            signature=signature,
            config=self.config,
            bindable_mask=self.registry.bindable_mask(op_classes),
            inert_mask=inert,
            fatal_mask=fatal,
            fragment_keys=tuple(fragment_keys),
            applications=applications,
        )

    # -- phases ------------------------------------------------------------

    def _normalize(self, compiled: CompiledScript, signature_ids: set[int]):
        """Normalize ``compiled.root``, memoized per CompiledScript.

        Normalization rules are never configuration-filtered, so the
        normalized root (and the set of rule ids that changed it) is a pure
        function of the script under one registry — each flip/probe
        configuration re-normalizing the same parse was wasted work.  The
        memo rides the CompiledScript object, which the compilation
        service already keys by (script digest, catalog version); a
        concurrent race at worst recomputes the same value.
        """
        cached = getattr(compiled, "_norm_cache", None)
        if cached is not None and cached[0] is self.registry:
            signature_ids.update(cached[2])
            return cached[1]
        root = compiled.root
        changed_ids: set[int] = set()
        for _ in range(5):
            changed_any = False
            for rule in self._normalization:
                root, changed = rule.normalize(root, compiled.origins)
                if changed:
                    changed_ids.add(rule.rule_id)
                    changed_any = True
            if not changed_any:
                break
        compiled._norm_cache = (self.registry, root, frozenset(changed_ids))
        signature_ids.update(changed_ids)
        return root

    def explore_fragment_entry(self, node: logical.LogicalOp, origins) -> FragmentEntry:
        """Run one isolated fragment search outside any compile.

        The batch planner's entry point: pre-exploration warms the
        fragment store *before* the per-script fan-out, so it needs the
        isolated sub-search — a pure function of (subtree, transformation
        bits, catalog version) — without a surrounding memo.  ``origins``
        is the owning script's column-origin map; it feeds group stats the
        entry never records, so any script's origins produce the same
        entry bytes.
        """
        cardinality = CardinalityModel(self.data_model, self.data_model.catalog, origins)
        return self._explore_fragment(node, cardinality)

    def _explore_fragment(
        self, node: logical.LogicalOp, cardinality: CardinalityModel
    ) -> FragmentEntry:
        """Explore one fragment subtree in an isolated memo; export it.

        The sub-search gets its own memo and its own transformation budget,
        so its outcome depends on nothing but the subtree, the enabled
        rule set and the catalog version — the invariant that makes its
        exported entry reusable across compiles (and across scripts: rules
        read operator structure, never group stats, so the closure is
        identical under any column-origin map).
        """
        sub = Memo(
            cardinality,
            max_exprs_per_group=self.budget.max_exprs_per_group,
            max_total_exprs=self.budget.max_total_exprs,
        )
        root_group = sub.insert_tree(node)
        if root_group is None:
            raise OptimizationError("fragment exceeded the memo budget")
        applications, popped = self._explore(sub)
        silent = self._silent_transformations(sub, _logical_by_class(sub))
        return sub.export_entry(root_group, applications, popped, silent)

    def _explore(self, memo: Memo) -> tuple[int, int]:
        """Run the transformation worklist; returns the applications spent
        and the expressions popped.

        A *tried* (rule, expression) pair is one application whether or not
        the rule's ``root`` matches the expression: that count is what
        ``SearchBudget.max_transformations`` bounds and what
        ``CacheStats.rule_applications`` reports.
        """
        worklist: deque[GroupExpression] = deque()
        memo.drain_journal(worklist)
        applications = 0
        popped = 0
        while worklist and applications < self.budget.max_transformations:
            expr = worklist.popleft()
            if not expr.is_logical:
                continue
            popped += 1
            for rule in self._transformations:
                bit = 1 << rule.rule_id
                if expr.fired & bit:
                    continue
                expr.fired |= bit
                applications += 1
                if isinstance(expr.op, rule.root):
                    trees = rule.apply(expr, memo)
                    if trees:
                        provenance = expr.provenance | {rule.rule_id}
                        target_group = memo.groups[expr.group_id]
                        for tree in trees:
                            memo.insert_tree(tree, provenance, target_group)
                        memo.drain_journal(worklist)
                if applications >= self.budget.max_transformations:
                    break
        return applications, popped

    # -- the dry run: what a disabled rule would have done -------------------

    def _silent_transformations(self, memo: Memo, by_class: dict) -> int:
        """Bitmask of the disabled transformation rules whose ``apply``
        returns no tree on any logical expression ``memo`` holds
        (``by_class``: :func:`_logical_by_class` of it).

        Run on a finished search.  A rule binds ``root`` over an ``inner``
        of one child group and reads nothing else but group schemas, and a
        memo only grows, so the bindings a rule would have met at any
        earlier state of the search are a subset of the ones tried here.
        """
        return _silent(
            self._off_transformations, by_class, lambda rule, expr: rule.apply(expr, memo)
        )

    def _inert_transformations(self, silent: int, applications: int, popped: int) -> int:
        """``silent`` if the search it was read off had budget slack, else 0.

        An enabled rule is charged one application per popped expression
        whether or not it matches, so the search with one more rule enabled
        spends at most ``applications + popped``.  Below the budget it is
        never cut — which also means this search drained its worklist —
        and a rule that produces nothing then changes nothing; at the
        budget the extra charges could end it earlier, and nothing is
        proven.
        """
        if applications + popped < self.budget.max_transformations:
            return silent
        return 0

    def _implement(self, memo: Memo, builds: dict | None = None) -> None:
        """Run the enabled implementation rules on every group not yet
        implemented.  ``builds``, when given, receives each such group's
        successful builds as ``(rule id, child group ids)`` — those
        ``add_physical`` dedups away included (see :func:`_fatal`)."""
        for group in memo.groups:
            if group.implemented:
                # a replayed winner entry already carries this group's full
                # physical closure (see Memo.adopt_winners) — re-running
                # implementation rules would only re-intern every expression
                continue
            made = None
            if builds is not None:
                builds[group.group_id] = made = []
            for expr in list(group.logical_exprs):
                for rule in self._implementations:
                    if isinstance(expr.op, rule.root):
                        op = rule.build(expr.op)
                        if op is not None:
                            memo.add_physical(
                                group, op, expr.child_ids, expr.provenance | {rule.rule_id}
                            )
                            if made is not None:
                                made.append((rule.rule_id, expr.child_ids))
            group.implemented = True

    # -- cost-based selection --------------------------------------------------

    def _best(self, memo: Memo, group: Group, required: PhysProps) -> Winner | None:
        if required in group.winners:
            return group.winners[required]
        group.winners[required] = None  # cycle guard: re-entry sees "no plan"
        best: Winner | None = None
        for expr in group.physical_exprs:
            candidate = self._cost_expression(memo, group, expr, required)
            if candidate is not None and (best is None or candidate.cost < best.cost):
                best = candidate
        group.winners[required] = best
        return best

    def _cost_expression(
        self, memo: Memo, group: Group, expr: GroupExpression, required: PhysProps
    ) -> Winner | None:
        op: PhysicalOp = expr.op
        child_reqs = op.child_requirements()
        if len(child_reqs) != len(expr.child_ids):
            return None
        child_stats: list[GroupStats] = []
        child_delivered: list[PhysProps] = []
        cost = 0.0
        for child_id, child_req in zip(expr.child_ids, child_reqs):
            child_group = memo.group(child_id)
            child_winner = self._best(memo, child_group, child_req)
            if child_winner is None:
                return None
            cost += child_winner.cost
            child_stats.append(child_group.stats)
            child_delivered.append(child_winner.delivered)
        cost += self.cost_model.local_cost(op, group.stats, child_stats)
        delivered = op.delivered(tuple(child_delivered))
        enforcers: list[PhysicalOp] = []
        if not delivered.satisfies(required):
            enforcers, enforcer_cost, delivered = self._enforce(group, delivered, required)
            if enforcers is None:
                return None
            cost += enforcer_cost
        return Winner(
            expr=expr,
            cost=cost,
            enforcers=tuple(enforcers),
            delivered=delivered,
            child_props=tuple(child_reqs),
        )

    def _enforce(
        self, group: Group, delivered: PhysProps, required: PhysProps
    ) -> tuple[list[PhysicalOp] | None, float, PhysProps]:
        """Bridge a property mismatch with Exchange and/or Sort enforcers."""
        ops: list[PhysicalOp] = []
        cost = 0.0
        distribution = delivered.distribution
        sort_keys = delivered.sort_keys
        if (
            required.distribution.kind != DistributionKind.ANY
            and not distribution.satisfies(required.distribution)
        ):
            ops.append(Exchange(required.distribution, group.schema))
            cost += self.cost_model.exchange_cost(required.distribution, group.stats)
            distribution = required.distribution
            sort_keys = ()  # an exchange destroys ordering
        if required.sort_keys and sort_keys[: len(required.sort_keys)] != required.sort_keys:
            ops.append(SortExec(required.sort_keys, group.schema))
            cost += self.cost_model.sort_enforcer_cost(group.stats)
            sort_keys = required.sort_keys
        final = PhysProps(distribution, sort_keys)
        if not final.satisfies(required):
            return None, 0.0, final
        return ops, cost, final

    # -- plan extraction -----------------------------------------------------------

    def _extract(
        self,
        memo: Memo,
        group: Group,
        required: PhysProps,
        signature_ids: set[int],
        cache: dict[tuple[int, PhysProps], PhysicalPlanNode],
    ) -> PhysicalPlanNode:
        key = (group.group_id, required)
        if key in cache:
            return cache[key]
        winner = group.winners.get(required)
        if winner is None or winner.expr is None:
            raise OptimizationError(f"no winner for group {group.group_id} @ {required}")
        children = [
            self._extract(memo, memo.group(cid), creq, signature_ids, cache)
            for cid, creq in zip(winner.expr.child_ids, winner.child_props)
        ]
        delivered = winner.expr.op.delivered(tuple(c.props for c in children))
        node = PhysicalPlanNode(
            op=winner.expr.op,
            children=children,
            est_rows=group.stats.est_rows,
            true_rows=group.stats.true_rows,
            props=delivered,
            group_id=group.group_id,
        )
        signature_ids.update(winner.expr.provenance)
        for enforcer in winner.enforcers:
            if isinstance(enforcer, Exchange):
                signature_ids.add(self._exchange_rule_id)
            elif isinstance(enforcer, SortExec):
                signature_ids.add(self._sort_rule_id)
            node = PhysicalPlanNode(
                op=enforcer,
                children=[node],
                est_rows=group.stats.est_rows,
                true_rows=group.stats.true_rows,
                props=enforcer.delivered((node.props,)),
                group_id=group.group_id,
            )
        cache[key] = node
        return node
