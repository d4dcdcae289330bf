"""AST determinism linter for the reproduction's source tree.

The repository's central contract — ``DayReport.fingerprint()`` and
``CacheStats.core()`` are byte-identical across worker counts, shard
topologies and serving replay — survives only if a handful of source-level
disciplines hold everywhere:

``QA-DET-HASH``
    Builtin ``hash()`` is salted per process for strings; anything it
    feeds (keys, ordering, hashed state) differs between two runs of the
    same program.  Use :func:`repro.rng.stable_hash`.
``QA-DET-ID``
    ``id()`` is a memory address.  As an *identity-memo key* (``d[id(x)]``,
    ``id(x) in seen``, ``seen.add(id(x))``) it never escapes the process
    and the enclosing dict iterates in insertion order, so those shapes
    are recognized as safe; any other use (sort keys, hashed state,
    persisted values) is flagged.
``QA-DET-RNG``
    All randomness flows through :mod:`repro.rng` (``keyed_rng`` /
    ``child_rng`` / ``RngFactory``).  Direct ``np.random.*`` construction
    or any stdlib ``random`` use outside ``rng.py`` creates a stream
    whose draws depend on call schedule, not on keys.
``QA-DET-TIME``
    Wall-clock reads (``time.time``/``perf_counter``/``datetime.now``/…)
    are allowed only in the observability plane (``obs/``), whose spans
    are the system's clock, or at sites explicitly marked as timing
    accumulators (``# qa: wallclock-ok <reason>``) whose output is
    excluded from every fingerprint.
``QA-DET-SETITER``
    Iterating a ``set`` observes the per-process string-hash salt.  Any
    unsorted iteration over a set-typed expression (literal, ``set()``
    call, comprehension, set algebra, or a local assigned one of those)
    is flagged; wrap it in ``sorted(...)`` before the order can flow into
    fingerprint-covered accumulation.  Order-insensitive reductions
    (``len``/``sum``/``min``/``max``/``any``/``all``/``sorted``) are fine.

Suppressions (``# qa: <tag> <reason>``) are shared
with the lock checker — see :mod:`repro.qa.findings`.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.qa.findings import (
    RULE_HASH,
    RULE_ID,
    RULE_RNG,
    RULE_SETITER,
    RULE_TIME,
    Finding,
    SourceFile,
)

__all__ = ["scan_file", "scan_tree", "DEFAULT_TIME_ALLOWLIST", "RNG_HOME"]

#: modules (relative to the package root) where wall-clock reads are legal:
#: the observability plane is telemetry by construction — nothing it
#: computes is fingerprint-covered
DEFAULT_TIME_ALLOWLIST = ("obs/",)

#: the one module allowed to construct generators directly
RNG_HOME = "rng.py"

_WALLCLOCK = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ORDERING_CONSUMERS = {"list", "tuple", "enumerate", "iter", "reversed"}
_SAFE_ID_METHODS = {"get", "add", "discard", "remove", "pop", "setdefault"}


def _attr_base_name(node: ast.expr) -> str | None:
    """The name one level above an attribute access (``time`` in
    ``time.perf_counter``, ``datetime`` in ``datetime.datetime.now``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _attr_chain(node: ast.expr) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    parts.reverse()
    return parts


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.findings: list[Finding] = []
        #: per-function stack of {local name: is-set-typed}
        self._set_locals: list[dict[str, bool]] = [{}]
        self._parents: dict[int, ast.AST] = {}

    # -- plumbing -------------------------------------------------------------

    def scan(self, tree: ast.AST) -> list[Finding]:
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent  # qa: id-ok identity memo keyed on node objects, never iterated or persisted
        self.visit(tree)
        return self.findings

    def _parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))  # qa: id-ok identity memo lookup

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(Finding(rule, self.source.relpath, line, message))

    # -- function scoping for set-local inference -----------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        scope: dict[str, bool] = {}
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
            if self._is_set_annotation(arg.annotation):
                scope[arg.arg] = True
        self._set_locals.append(scope)
        self.generic_visit(node)
        self._set_locals.pop()

    @staticmethod
    def _is_set_annotation(annotation: ast.expr | None) -> bool:
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset")
        if isinstance(annotation, ast.Subscript):
            base = annotation.value
            return isinstance(base, ast.Name) and base.id in ("set", "frozenset")
        return False

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def visit_Assign(self, node: ast.Assign) -> None:
        is_set = self._is_set_expr(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._set_locals[-1][target.id] = is_set
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            is_set = node.value is not None and self._is_set_expr(node.value)
            if not is_set and isinstance(node.annotation, ast.Subscript):
                base = node.annotation.value
                if isinstance(base, ast.Name) and base.id in ("set", "frozenset"):
                    is_set = True
            self._set_locals[-1][node.target.id] = is_set
        self.generic_visit(node)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._set_locals[-1].get(node.id, False)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    # -- the rules ------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash":
                self._flag(
                    RULE_HASH,
                    node,
                    "builtin hash() is salted per process — use "
                    "repro.rng.stable_hash for anything that feeds keys, "
                    "ordering, or hashed state",
                )
            elif func.id == "id" and not self._id_is_safe(node):
                self._flag(
                    RULE_ID,
                    node,
                    "id() is a memory address; outside an identity-memo "
                    "key (d[id(x)], id(x) in seen, seen.add(id(x))) it "
                    "leaks address order into program state — key on a "
                    "stable identity or stable_hash instead",
                )
            elif func.id in _ORDERING_CONSUMERS and node.args:
                if self._is_set_expr(node.args[0]):
                    self._flag(
                        RULE_SETITER,
                        node,
                        f"{func.id}() over a set observes the per-process "
                        "hash salt — wrap the set in sorted(...)",
                    )
        elif isinstance(func, ast.Attribute):
            self._check_wallclock(node, func)
            self._check_rng_attr(node, func)
            if func.attr == "join" and node.args and self._is_set_expr(node.args[0]):
                self._flag(
                    RULE_SETITER,
                    node,
                    "str.join over a set observes the per-process hash "
                    "salt — wrap the set in sorted(...)",
                )
        self.generic_visit(node)

    def _id_is_safe(self, node: ast.Call) -> bool:
        parent = self._parent(node)
        if isinstance(parent, ast.Subscript) and parent.slice is node:
            return True
        # dict-literal / dict-comprehension identity-memo keys:
        # {id(op): ... for op in nodes} iterates in *insertion* order
        if isinstance(parent, ast.Dict) and node in parent.keys:
            return True
        if isinstance(parent, ast.DictComp) and parent.key is node:
            return True
        if isinstance(parent, ast.Tuple):
            grandparent = self._parent(parent)
            if isinstance(grandparent, ast.Subscript) and grandparent.slice is parent:
                return True
        if isinstance(parent, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops
        ):
            return True
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Attribute)
            and parent.func.attr in _SAFE_ID_METHODS
            and node in parent.args
        ):
            return True
        return False

    def _check_wallclock(self, node: ast.Call, func: ast.Attribute) -> None:
        base = _attr_base_name(func.value)
        if base is None or (base, func.attr) not in _WALLCLOCK:
            return
        self._flag(
            RULE_TIME,
            node,
            f"wall-clock read {base}.{func.attr}() outside the telemetry "
            "allowlist — time must never reach simulated state; mark "
            "fingerprint-excluded timing accumulators with "
            "'# qa: wallclock-ok <reason>'",
        )

    def _check_rng_attr(self, node: ast.Call, func: ast.Attribute) -> None:
        chain = _attr_chain(func)
        if not chain:
            return
        if chain[0] == "random" and len(chain) >= 2:
            self._flag(
                RULE_RNG,
                node,
                f"stdlib random.{'.'.join(chain[1:])}() draws from global, "
                "schedule-dependent state — use repro.rng.keyed_rng",
            )
            return
        if chain[0] in ("np", "numpy") and len(chain) >= 3 and chain[1] == "random":
            self._flag(
                RULE_RNG,
                node,
                f"direct {'.'.join(chain)}() construction outside rng.py — "
                "generators must come from keyed_rng/child_rng so their "
                "streams depend on keys, not call schedule",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._flag(
                    RULE_RNG,
                    node,
                    "stdlib 'random' import — all randomness flows through "
                    "repro.rng (keyed_rng/child_rng)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and node.level == 0:
            self._flag(
                RULE_RNG,
                node,
                "stdlib 'random' import — all randomness flows through "
                "repro.rng (keyed_rng/child_rng)",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._is_set_expr(node.iter):
            self._flag(
                RULE_SETITER,
                node.iter,
                "iterating a set observes the per-process hash salt — "
                "wrap the iterable in sorted(...)",
            )
        self.generic_visit(node)

    def _visit_comprehension_like(self, node) -> None:
        for generator in node.generators:
            if self._is_set_expr(generator.iter):
                self._flag(
                    RULE_SETITER,
                    generator.iter,
                    "comprehension over a set observes the per-process "
                    "hash salt — wrap the iterable in sorted(...)",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_like
    visit_DictComp = _visit_comprehension_like
    visit_GeneratorExp = _visit_comprehension_like


def scan_file(
    source: SourceFile,
    *,
    time_allowlist: tuple[str, ...] = DEFAULT_TIME_ALLOWLIST,
) -> list[Finding]:
    """Lint one file; suppressed findings are dropped, bad suppressions kept."""
    tree = ast.parse(source.text, filename=str(source.path))
    raw = _DeterminismVisitor(source).scan(tree)
    time_exempt = source.relpath == RNG_HOME or any(
        source.relpath == entry or source.relpath.startswith(entry)
        for entry in time_allowlist
    )
    findings: list[Finding] = []
    for finding in raw:
        if finding.rule == RULE_RNG and source.relpath == RNG_HOME:
            continue
        if finding.rule == RULE_TIME and time_exempt:
            continue
        if source.suppressed(finding.rule, finding.line):
            continue
        findings.append(finding)
    findings.extend(source.comment_findings)
    return findings


def scan_tree(
    root: Path,
    *,
    time_allowlist: tuple[str, ...] = DEFAULT_TIME_ALLOWLIST,
) -> list[Finding]:
    """Lint every ``*.py`` under ``root`` (a package directory)."""
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        source = SourceFile(path, root)
        findings.extend(scan_file(source, time_allowlist=time_allowlist))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))
