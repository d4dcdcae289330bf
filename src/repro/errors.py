"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause.  The SCOPE
substrate distinguishes *compile-time* failures (which QO-Advisor's
Recompilation task must catch and count — see Table 3 of the paper) from
*runtime* and *service* failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ScopeError(ReproError):
    """Base class for errors raised by the SCOPE substrate."""


class LexerError(ScopeError):
    """Raised when the script tokenizer encounters an invalid character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ScopeError):
    """Raised when a SCOPE script is syntactically invalid."""


class BindError(ScopeError):
    """Raised when names or types in a script cannot be resolved."""


class CompileError(ScopeError):
    """Raised when a script cannot be compiled into a logical plan."""


class OptimizationError(ScopeError):
    """Raised when the optimizer cannot produce a physical plan.

    This is the error QO-Advisor records as a *recompilation failure*
    (paper, Table 3): it typically means the rule configuration disabled
    every implementation rule for some logical operator, or an experimental
    rule failed on an unsupported plan shape.
    """


class ExecutionError(ScopeError):
    """Raised when the runtime simulator cannot execute a physical plan."""


class CatalogError(ScopeError):
    """Raised on unknown tables/columns or inconsistent statistics."""


class PersonalizerError(ReproError):
    """Raised by a steering policy's Rank/Reward surface (bad event ids,
    modes or model versions)."""


class SISError(ReproError):
    """Raised by the Stats & Insight Service on malformed hint files."""


class ValidationError(ReproError):
    """Raised by the Validation task when a model is used before training."""
