"""Static lock-discipline checker.

For every class that owns a lock (an attribute assigned
``threading.Lock()`` / ``RLock()`` / ``Condition()``, or any attribute
used as ``with self.<name>:``), the checker infers the class's
**guarded-attribute set**: attributes *written* — direct assignment,
augmented assignment, subscript store, or a mutating method call such as
``.append`` / ``.update`` — inside a ``with self.<lock>:`` body of any
method other than ``__init__``.  Every subsequent read or write of a
guarded attribute outside a region holding one of its guarding locks is
reported as ``QA-LOCK-UNGUARDED``.

Recognized conventions (the checker understands the codebase's idioms
rather than demanding new ones):

* ``__init__`` is pre-publication — no other thread can see the object,
  so construction-time accesses are exempt;
* ``threading.Condition(self._lock)`` aliases the condition to its lock:
  holding ``self._not_full`` *is* holding ``self._lock``;
* methods named ``*_locked`` are caller-holds-the-lock helpers and are
  exempt in full (their call sites are checked instead);
* code inside a nested ``def``/``lambda`` runs later, on some other
  thread's schedule — it is analyzed as holding **no** locks even when
  the enclosing ``with`` held one.  Two exceptions: a lambda passed to
  ``self.<condition>.wait_for(...)`` while that condition's lock is held
  (``wait_for`` re-evaluates its predicate with the lock re-acquired, so
  the predicate *is* a locked region), and a lambda passed directly to
  a synchronous builtin (``sorted``/``min``/``max``/``sum``/``any``/
  ``all``), which invokes it on the calling thread before returning;
* a **published snapshot** — an attribute whose every write in the class
  is a plain ``self.X = <tuple or frozenset expression>`` — is copy-on-
  write: readers get an immutable value whichever rebind they observe, so
  its *writes* need the lock and its reads need none.  One in-place
  mutation anywhere in the class (augmented assignment, subscript store,
  a mutating call) voids the convention and every unguarded read of the
  attribute is reported again;
* per-site or per-method suppression: ``# qa: unlocked-ok <reason>`` on
  the access line, alone on the line above, or on the method's ``def``
  line (annotating a whole caller-holds-lock helper).

The checker is intra-class by design: attributes of *other* objects
(``lane.submitted`` mutated by the server under ``lane.lock``) are out of
scope — cross-object protocols are what the runtime lock-order tracer
(:mod:`repro.qa.lockgraph`) exists for.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.qa.findings import RULE_UNGUARDED, Finding, SourceFile

__all__ = ["scan_file", "scan_tree"]

#: method calls that mutate a container in place — a write for inference
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "update",
    "write",
}


@dataclass(frozen=True)
class _Access:
    attr: str
    line: int
    #: ``None`` for a read; see :meth:`_ClassScan._write_kind`
    write: str | None
    held: frozenset[str]
    method: str
    def_line: int


class _ClassScan:
    """One class's locks, guarded attributes, and attribute accesses."""

    def __init__(self, node: ast.ClassDef, source: SourceFile) -> None:
        self.node = node
        self.source = source
        self.locks: set[str] = set()
        #: condition attr → the lock attr it shares (root resolution)
        self.aliases: dict[str, str] = {}
        self.accesses: list[_Access] = []
        self._discover_locks()
        self._collect_accesses()

    # -- pass 1: which attributes are locks? ----------------------------------

    def _discover_locks(self) -> None:
        for stmt in ast.walk(self.node):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                ctor = stmt.value.func
                name = ctor.attr if isinstance(ctor, ast.Attribute) else (
                    ctor.id if isinstance(ctor, ast.Name) else None
                )
                for target in stmt.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    if name in ("Lock", "RLock"):
                        self.locks.add(target.attr)
                    elif name == "Condition":
                        args = stmt.value.args
                        if (
                            args
                            and isinstance(args[0], ast.Attribute)
                            and isinstance(args[0].value, ast.Name)
                            and args[0].value.id == "self"
                        ):
                            self.aliases[target.attr] = args[0].attr
                        else:
                            self.locks.add(target.attr)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                # `with self.X:` — X is a lock even if it arrived as a
                # constructor parameter (e.g. a view sharing its owner's lock)
                for item in stmt.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr not in self.aliases
                    ):
                        self.locks.add(expr.attr)

    def _root(self, attr: str) -> str:
        return self.aliases.get(attr, attr)

    def _lock_names(self) -> set[str]:
        return self.locks | set(self.aliases)

    # -- pass 2: accesses with held-lock context ------------------------------

    def _collect_accesses(self) -> None:
        for stmt in self.node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_method(stmt)

    def _walk_method(self, method: ast.FunctionDef) -> None:
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(method):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent  # qa: id-ok identity memo over AST nodes, never iterated

        def walk(node: ast.AST, held: frozenset[str]) -> None:
            if self._is_synchronous_call(node) or self._is_held_wait_for(node, held):
                # sorted(key=lambda ...) and friends invoke the lambda
                # before returning — it runs on this thread, locks intact;
                # Condition.wait_for re-evaluates its predicate with the
                # condition's lock re-acquired, so the lambda runs *with*
                # the lock held — don't strip either like an ordinary closure
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    if isinstance(arg, ast.Lambda):
                        for child in ast.iter_child_nodes(arg):
                            walk(child, held)
                    else:
                        walk(arg, held)
                return
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = set(held)
                for item in node.items:
                    expr = item.context_expr
                    if (
                        isinstance(expr, ast.Attribute)
                        and isinstance(expr.value, ast.Name)
                        and expr.value.id == "self"
                        and expr.attr in self._lock_names()
                    ):
                        acquired.add(self._root(expr.attr))
                    else:
                        walk(expr, held)
                for child in node.body:
                    walk(child, frozenset(acquired))
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and node is not method:
                # a closure runs later, on an unknown schedule: no locks held
                for child in ast.iter_child_nodes(node):
                    walk(child, frozenset())
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr not in self._lock_names()
            ):
                self.accesses.append(
                    _Access(
                        attr=node.attr,
                        line=node.lineno,
                        write=self._write_kind(node, parents),
                        held=held,
                        method=method.name,
                        def_line=method.lineno,
                    )
                )
            for child in ast.iter_child_nodes(node):
                walk(child, held)

        walk(method, frozenset())

    @staticmethod
    def _is_synchronous_call(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sorted", "min", "max", "sum", "any", "all")
        )

    def _is_held_wait_for(self, node: ast.AST, held: frozenset[str]) -> bool:
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wait_for"
        ):
            return False
        base = node.func.value
        return (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and base.attr in self._lock_names()
            and self._root(base.attr) in held
        )

    @staticmethod
    def _write_kind(node: ast.Attribute, parents: dict[int, ast.AST]) -> str | None:
        """``None`` for a read, ``"rebind"`` for a plain ``self.X = <tuple /
        frozenset expression>``, ``"mutate"`` for every other write."""
        parent = parents.get(id(node))  # qa: id-ok identity memo lookup
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            if isinstance(parent, ast.Assign) and node in parent.targets:
                value = parent.value
                if isinstance(value, ast.Tuple) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("tuple", "frozenset")
                ):
                    return "rebind"
            return "mutate"
        # self.X[...] = ... / del self.X[...]
        if (
            isinstance(parent, ast.Subscript)
            and parent.value is node
            and isinstance(parent.ctx, (ast.Store, ast.Del))
        ):
            return "mutate"
        # self.X.append(...) and friends
        if (
            isinstance(parent, ast.Attribute)
            and parent.value is node
            and parent.attr in _MUTATORS
        ):
            grandparent = parents.get(id(parent))  # qa: id-ok identity memo lookup
            if isinstance(grandparent, ast.Call) and grandparent.func is parent:
                return "mutate"
        return None

    # -- verdicts -------------------------------------------------------------

    def findings(self) -> list[Finding]:
        guarded: dict[str, set[str]] = {}
        for access in self.accesses:
            if access.write and access.held and access.method != "__init__":
                guarded.setdefault(access.attr, set()).update(access.held)
        # written some other way than a snapshot rebind: not copy-on-write
        mutated = {a.attr for a in self.accesses if a.write == "mutate"}
        out: list[Finding] = []
        for access in self.accesses:
            locks = guarded.get(access.attr)
            if not locks or access.held & locks:
                continue
            if access.write is None and access.attr not in mutated:
                continue  # a published snapshot: reads need no lock
            if access.method == "__init__" or access.method.endswith("_locked"):
                continue
            if self.source.suppressed(
                RULE_UNGUARDED, access.line, def_line=access.def_line
            ):
                continue
            verb = "write to" if access.write else "read of"
            names = "/".join(f"self.{name}" for name in sorted(locks))
            out.append(
                Finding(
                    RULE_UNGUARDED,
                    self.source.relpath,
                    access.line,
                    f"{verb} '{self.node.name}.{access.attr}' outside "
                    f"{names} (guarded attribute; annotate intentional "
                    "unlocked access with '# qa: unlocked-ok <reason>')",
                )
            )
        return out


def scan_file(source: SourceFile) -> list[Finding]:
    """Check lock discipline for every lock-owning class in one file."""
    tree = ast.parse(source.text, filename=str(source.path))
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            scan = _ClassScan(node, source)
            if scan.locks:
                findings.extend(scan.findings())
    return findings


def scan_tree(root: Path) -> list[Finding]:
    """Check every ``*.py`` under ``root`` (a package directory)."""
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(scan_file(SourceFile(path, root)))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
