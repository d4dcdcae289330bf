"""Fragment identity and portable fragment entries.

A *fragment* is a maximal join-rooted subtree of the normalized logical
plan: walking down from the root, the first ``Join`` met on each path roots
one fragment, and everything beneath it (the whole join block) belongs to
that fragment.  Join blocks are where the cascades search spends its
budget, and — with templates drawing from a shared pool of join subtrees —
they are exactly the part of the plan different templates have in common.

Fragments get content-addressed identities in the style of wombat's
``BaseNode.hash``: a sha256 over the operator's own properties
(:meth:`local_key`) chained with the digests of its children, computed
bottom-up and memoized per node object so shared DAG rowsets hash once.

A :class:`FragmentEntry` is the *portable closure* of one isolated
fragment exploration: every logical expression the search created, in
creation order, with operators referenced by child slots rather than memo
group objects.  Re-adopting an entry replays those expressions through a
fresh memo's interning (:meth:`~repro.scope.optimizer.memo.Memo.adopt_entry`),
which re-derives group statistics with the adopting compile's cardinality
model — entries carry structure and provenance only, never stats, so one
entry is safely shared between scripts whose column-origin maps differ.
An entry is the logical closure alone: implementation rules and costing
run on every group of every compile, adopted or not.

Determinism: exploring a fragment in an isolated memo is a pure function
of (subtree, rule configuration, catalog version).  Both the cache-hit and
cache-miss paths adopt a bit-identical entry through identical replay
code, which is what keeps ``DayReport.fingerprint()`` byte-identical with
the fragment cache on, off, and at any worker or shard count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.scope.plan import logical

__all__ = [
    "FragmentEntry",
    "FragmentSite",
    "fragment_roots",
    "fragment_digests",
    "fragment_profile",
]


@dataclass(frozen=True)
class FragmentEntry:
    """The portable result of one isolated fragment exploration.

    ``exprs`` holds every logical expression the search created, in
    creation order: ``(local_group_id, op, child_local_group_ids,
    provenance)``.  Group ids are local to the isolated memo the entry was
    exported from; adoption maps them onto the adopting memo's groups.
    Entries are immutable and shared by reference (between shards of one
    process and between the cache and live memos) — replay only reads.
    """

    exprs: tuple[tuple[int, logical.LogicalOp, tuple[int, ...], frozenset[int]], ...]
    root_gid: int
    #: number of groups the isolated search produced (diagnostics)
    group_count: int
    #: transformation-rule applications the isolated search spent building
    #: this entry — the machine-time a cache hit saves
    applications: int
    #: expressions the isolated search popped off its worklist: each costs
    #: one more application per additionally enabled rule, so
    #: ``applications + popped`` bounds what that search would spend
    popped: int
    #: bitmask of the transformation rules disabled under the entry's key
    #: whose ``apply`` returns no tree on any of ``exprs`` in the finished
    #: isolated memo — with budget slack, enabling one changes nothing here
    #: (see ``OptimizationResult.inert_mask``).  Like the closure, a pure
    #: function of the key
    silent_mask: int


@dataclass(frozen=True)
class FragmentSite:
    """One fragment occurrence in a normalized plan, with batch metadata."""

    node: logical.LogicalOp
    digest: bytes
    #: operator count of the subtree (the exploration-cost proxy the batch
    #: planner weighs frequency against)
    size: int


def fragment_roots(root: logical.LogicalOp) -> list[logical.LogicalOp]:
    """Maximal join-rooted subtrees of ``root``, in first-visit DFS order.

    The walk stops descending at each ``Join`` it meets, so fragments never
    nest; a DAG-shared join block is reported once (first visit).  Plans
    without joins have no fragments and compile exactly as before.
    """
    roots: list[logical.LogicalOp] = []
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, logical.Join):
            roots.append(node)
        else:
            stack.extend(reversed(node.children))
    return roots


def fragment_digests(nodes: list[logical.LogicalOp]) -> dict[int, bytes]:
    """Bottom-up sha256 digest per subtree, keyed by ``id(node)``.

    Each node's digest chains its :meth:`local_key` (the same canonical
    property string the memo interns expressions by) with its children's
    digests, so two subtrees digest equal exactly when the memo would
    intern them into the same groups.  Memoized by object identity: shared
    rowsets hash once, and callers get the whole memo table back so
    repeated fragments in one plan reuse it.
    """
    memo: dict[int, bytes] = {}
    for node in nodes:
        _digest(node, memo)
    return memo


def _digest(node: logical.LogicalOp, memo: dict[int, bytes]) -> bytes:
    # module-level like _size: nested in its caller, a recursive closure
    # is a function/cell cycle only the cycle collector can free
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    hasher.update(node.local_key().encode("utf-8"))
    for child in node.children:
        hasher.update(b"\x1f")
        hasher.update(_digest(child, memo))
    result = memo[id(node)] = hasher.digest()
    return result


def _size(node: logical.LogicalOp, sizes: dict[int, int]) -> int:
    """Operator count of the subtree, memoized by node identity."""
    known = sizes.get(id(node))
    if known is None:
        known = sizes[id(node)] = 1 + sum(_size(child, sizes) for child in node.children)
    return known


def fragment_profile(compiled, root: logical.LogicalOp) -> "tuple[FragmentSite, ...]":
    """Fragment sites of ``root``, memoized on the CompiledScript.

    Computes roots, digests and sizes once per (script, catalog version):
    the memo rides the ``compiled`` object — which the compilation service
    already keys by (script digest, catalog version) — keyed by the
    normalized root's identity, the same scheme as the normalization memo
    it composes with.  The batch planner's up-front digest pass and every
    subsequent compile of the script read the same profile instead of
    re-hashing the plan.
    """
    cached = getattr(compiled, "_frag_profile", None)
    if cached is not None and cached[0] is root:
        return cached[1]
    nodes = fragment_roots(root)
    digests = fragment_digests(nodes)
    sizes: dict[int, int] = {}
    profile = tuple(FragmentSite(node, digests[id(node)], _size(node, sizes)) for node in nodes)
    compiled._frag_profile = (root, profile)
    return profile
