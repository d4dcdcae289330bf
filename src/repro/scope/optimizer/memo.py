"""The memo: groups of logically equivalent expressions.

Structure follows the cascades framework (Graefe, 1995): a *group* collects
logically equivalent expressions; a *group expression* is an operator over
child groups.  Transformation rules add logical alternatives to an existing
group; implementation rules add physical expressions.  Structural interning
gives common-subexpression sharing across the output trees of a job DAG for
free (shared rowsets land in the same groups).

Every group expression carries a *provenance* set: the ids of the rules
whose firing produced it (transitively).  The provenance of the winning
plan's expressions becomes the job's rule signature.

Lifetime invariant: a memo is a DAG of ids.  Expressions and handles name
their group by ``group_id`` and are resolved through ``memo.groups``; only
the ``Memo`` points at ``Group`` objects and only groups point at
expressions and winners.  So a compile's search state is freed by
reference count the moment the search returns, and nothing exported from
it (plans and fragment entries — they share operators and provenance sets
only) can reach a ``Group``, ``GroupExpression``, ``Winner`` or ``Memo``.
``tests/scope/test_memo_lifecycle.py`` holds this with the cycle collector
off.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import OptimizationError
from repro.scope.optimizer.cardinality import CardinalityModel, GroupStats
from repro.scope.plan import logical
from repro.scope.plan.physical import PhysicalOp
from repro.scope.plan.properties import PhysProps
from repro.scope.types import Schema

__all__ = ["GroupHandle", "Group", "GroupExpression", "Winner", "Memo"]


class GroupHandle(logical.LogicalOp):
    """A leaf placeholder referencing an existing memo group.

    Transformation rules build their output trees over group handles so the
    memo can wire new expressions to existing groups without re-interning
    whole subtrees.
    """

    name = "GroupHandle"

    def __init__(self, group_id: int, schema: Schema) -> None:
        super().__init__((), schema)
        self.group_id = group_id

    def _render_key(self) -> str:
        return f"@{self.group_id}"

    def with_children(self, children: tuple[logical.LogicalOp, ...]) -> "GroupHandle":
        assert not children
        return self


@dataclass(slots=True)
class GroupExpression:
    """One operator over child groups, logical or physical."""

    op: logical.LogicalOp | PhysicalOp
    child_ids: tuple[int, ...]
    #: id of the owning group (an id, not the object: see the module docstring)
    group_id: int
    provenance: frozenset[int]
    is_logical: bool

    def key(self) -> tuple[str, tuple[int, ...]]:
        return (self.op.local_key(), self.child_ids)

    def __repr__(self) -> str:
        kind = "L" if self.is_logical else "P"
        return f"<{kind} {self.op.local_key()} -> {self.child_ids}>"


@dataclass(slots=True)
class Winner:
    """Best physical alternative of a group for one required property set."""

    expr: GroupExpression | None
    cost: float
    #: enforcer operators applied on top of ``expr`` (innermost first)
    enforcers: tuple[PhysicalOp, ...]
    delivered: PhysProps
    child_props: tuple[PhysProps, ...]


class Group:
    """A set of logically equivalent expressions plus search state."""

    def __init__(self, group_id: int, schema: Schema, stats: GroupStats) -> None:
        self.group_id = group_id
        self.schema = schema
        self.stats = stats
        self.logical_exprs: list[GroupExpression] = []
        self.physical_exprs: list[GroupExpression] = []
        self.winners: dict[PhysProps, Winner | None] = {}

    def __repr__(self) -> str:
        return (
            f"<Group {self.group_id} L={len(self.logical_exprs)} "
            f"P={len(self.physical_exprs)} rows~{self.stats.est_rows:.0f}>"
        )


class Memo:
    """Group store with structural interning and expansion budgets.

    ``max_exprs_per_group`` and ``max_total_exprs`` bound the search the way
    production optimizers bound their task queues; hitting a budget silently
    drops alternatives, which is precisely why disabling a rule can free
    room for a *better* plan — the non-monotonicity QO-Advisor exploits.
    """

    def __init__(
        self,
        cardinality: CardinalityModel,
        *,
        max_exprs_per_group: int = 12,
        max_total_exprs: int = 1200,
    ) -> None:
        self.cardinality = cardinality
        self.groups: list[Group] = []
        self.max_exprs_per_group = max_exprs_per_group
        self.max_total_exprs = max_total_exprs
        self.total_exprs = 0
        self.dropped_exprs = 0
        #: journal of newly created logical expressions; the engine drains it
        #: to feed its exploration worklist
        self.journal: list[GroupExpression] = []
        #: every logical expression ever inserted, in creation order — the
        #: self-contained record :meth:`export_entry` snapshots (unlike the
        #: journal it is never drained, so a fully explored memo can still
        #: be exported as a fragment entry)
        self.created: list[GroupExpression] = []
        self._intern: dict[tuple[str, tuple[int, ...]], GroupExpression] = {}

    def group(self, group_id: int) -> Group:
        return self.groups[group_id]

    def handle(self, group: Group) -> GroupHandle:
        return GroupHandle(group.group_id, group.schema)

    # -- insertion ---------------------------------------------------------

    def insert_tree(
        self,
        op: logical.LogicalOp,
        provenance: frozenset[int] = frozenset(),
        target_group: Group | None = None,
    ) -> Group | None:
        """Intern a logical operator tree; return the group of its root.

        ``target_group`` forces the root expression into an existing group
        (used by transformation rules, whose output is by definition
        equivalent to the source group).  Returns ``None`` when the budget
        rejected the root expression and it did not already exist.
        """
        if isinstance(op, GroupHandle):
            return self.groups[op.group_id]
        child_groups: list[Group] = []
        for child in op.children:
            child_group = self.insert_tree(child, provenance, None)
            if child_group is None:
                return None
            child_groups.append(child_group)
        child_ids = tuple(g.group_id for g in child_groups)
        key = ("L:" + op.local_key(), child_ids)

        existing = self._intern.get(key)
        if existing is not None:
            return self.groups[existing.group_id]

        if target_group is None:
            stats = self.cardinality.derive(op, [g.stats for g in child_groups])
            target_group = self._new_group(op.schema, stats)
        if not self._budget_allows(target_group):
            self.dropped_exprs += 1
            return None
        expr = GroupExpression(
            op=op,
            child_ids=child_ids,
            group_id=target_group.group_id,
            provenance=provenance,
            is_logical=True,
        )
        target_group.logical_exprs.append(expr)
        self._intern[key] = expr
        self.total_exprs += 1
        self.journal.append(expr)
        self.created.append(expr)
        return target_group

    def drain_journal(self, into: "deque[GroupExpression]") -> None:
        """Move the journal of newly created logical expressions onto ``into``."""
        if self.journal:
            into.extend(self.journal)
            self.journal.clear()

    def add_physical(
        self,
        group: Group,
        op: PhysicalOp,
        child_ids: tuple[int, ...],
        provenance: frozenset[int],
    ) -> GroupExpression | None:
        """Add a physical expression to ``group`` (dedup by structural key)."""
        key = ("P:" + op.local_key(), child_ids)
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        expr = GroupExpression(
            op=op,
            child_ids=child_ids,
            group_id=group.group_id,
            provenance=provenance,
            is_logical=False,
        )
        group.physical_exprs.append(expr)
        self._intern[key] = expr
        return expr

    # -- fragment export / adoption ------------------------------------------

    def export_entry(
        self, root_group: Group, applications: int, popped: int, silent_mask: int
    ):
        """Snapshot this memo's logical closure as a portable fragment entry.

        Meant for a memo that holds exactly one explored fragment (the
        isolated sub-search of :meth:`Optimizer._explore_fragment`): every
        logical expression, in creation order, with group references
        reduced to this memo's local ids.  Operators and provenance sets
        are shared by reference — both are immutable once inserted.
        """
        from repro.scope.optimizer.fragments import FragmentEntry

        return FragmentEntry(
            exprs=tuple(
                (expr.group_id, expr.op, expr.child_ids, expr.provenance)
                for expr in self.created
            ),
            root_gid=root_group.group_id,
            group_count=len(self.groups),
            applications=applications,
            popped=popped,
            silent_mask=silent_mask,
        )

    def adopt_entry(self, entry) -> Group:
        """Replay a fragment entry into this memo; return its root group.

        Replay runs each recorded expression through the same structural
        interning as :meth:`insert_tree`, in the entry's creation order:
        an expression whose key is already resident folds into the
        existing group (overlapping fragments dedup here), otherwise the
        expression lands in the group its local id maps to, creating it —
        with stats re-derived through *this* memo's cardinality model —
        on first use.  Adopted expressions are deliberately **not**
        journaled (their exploration already happened in the isolated
        search) and do not count against ``max_total_exprs`` (the isolated
        search enforced its own total); the per-group cap still applies so
        adoption composes with entries already resident.  Everything here
        is a pure function of (entry, current memo state), which is what
        makes the cache-hit and cache-miss paths byte-identical.
        """
        gmap: dict[int, Group] = {}
        for local_gid, op, child_local_ids, provenance in entry.exprs:
            child_groups = [gmap[cid] for cid in child_local_ids]
            child_ids = tuple(g.group_id for g in child_groups)
            key = ("L:" + op.local_key(), child_ids)
            existing = self._intern.get(key)
            if existing is not None:
                gmap.setdefault(local_gid, self.groups[existing.group_id])
                continue
            group = gmap.get(local_gid)
            if group is None:
                stats = self.cardinality.derive(op, [g.stats for g in child_groups])
                group = self._new_group(op.schema, stats)
                gmap[local_gid] = group
            elif len(group.logical_exprs) >= self.max_exprs_per_group:
                self.dropped_exprs += 1
                continue
            expr = GroupExpression(
                op=op,
                child_ids=child_ids,
                group_id=group.group_id,
                provenance=provenance,
                is_logical=True,
            )
            group.logical_exprs.append(expr)
            self._intern[key] = expr
            self.created.append(expr)
        return gmap[entry.root_gid]

    # -- internals -----------------------------------------------------------

    def _new_group(self, schema: Schema, stats: GroupStats) -> Group:
        group = Group(len(self.groups), schema, stats)
        self.groups.append(group)
        return group

    def _budget_allows(self, group: Group) -> bool:
        if self.total_exprs >= self.max_total_exprs:
            return False
        return len(group.logical_exprs) < self.max_exprs_per_group

    # -- diagnostics -----------------------------------------------------------

    def describe(self) -> str:
        lines = [f"memo: {len(self.groups)} groups, {self.total_exprs} exprs"]
        for group in self.groups:
            lines.append(f"  {group!r}")
            for expr in group.logical_exprs:
                lines.append(f"    {expr!r}")
            for expr in group.physical_exprs:
                lines.append(f"    {expr!r}")
        return "\n".join(lines)

    def validate(self) -> None:
        """Internal consistency checks (used by tests)."""
        for group in self.groups:
            for expr in group.logical_exprs + group.physical_exprs:
                if expr.group_id != group.group_id:
                    raise OptimizationError("expression points at the wrong group")
                for child_id in expr.child_ids:
                    if not 0 <= child_id < len(self.groups):
                        raise OptimizationError("dangling child group id")
