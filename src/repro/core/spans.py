"""Job span computation (paper §2.1, §4.1).

The *span* of a job is the set of non-required rules that can affect its
final plan.  The heuristic fixpoint from the paper (and [29]):

1. compile under the default configuration, seed the span with the
   signature's non-required rules;
2. build a probe configuration: all off-by-default rules ON, every rule
   seen so far OFF;
3. recompile — newly used rules join the span (and get turned off next
   round);
4. repeat until no new rule appears or recompilation fails.

Jobs with an empty span cannot be steered and are dropped by the pipeline.
"""

from __future__ import annotations

from repro.errors import ScopeError
from repro.parallel import Executor, SerialExecutor
from repro.scope.cache import CompilationService
from repro.scope.engine import ScopeEngine
from repro.scope.optimizer.rules.base import RuleCategory

__all__ = ["SpanComputer"]


class SpanComputer:
    """Computes (and caches, per template) job spans.

    The fixpoint rounds are inherently sequential (each round's probe
    configuration depends on the previous result), but the trailing
    one-rule-at-a-time probes are independent and fan out through the
    ``executor``.  The computer itself is coordinator-thread-only: callers
    invoke :meth:`span_for_template` from the stage's coordinating thread
    (the internal probe fan-out is where the parallelism lives), so the
    template cache and the ``recompilations`` counter are unsynchronized
    by design.

    Probes resolve the template's shard service through
    ``engine.compilation.service_for``, so a template's span compilations
    land on the shard (and in the plan cache) its production compiles use.
    """

    def __init__(
        self,
        engine: ScopeEngine,
        max_iterations: int = 6,
        executor: Executor | None = None,
    ) -> None:
        self.engine = engine
        self.max_iterations = max_iterations
        self.executor = executor or SerialExecutor()
        self._cache: dict[str, frozenset[int]] = {}
        #: compilations spent computing spans (cost accounting)
        self.recompilations = 0

    def span_for_template(self, template_id: str, script: str) -> frozenset[int]:
        """Span of a template (cached: instances share operator shape)."""
        if template_id not in self._cache:
            self._cache[template_id] = self.compute(
                script, self.engine.compilation.service_for(template_id)
            )
        return self._cache[template_id]

    def compute(
        self, script: str, service: CompilationService | None = None
    ) -> frozenset[int]:
        """Run the fixpoint span heuristic on one script.

        Every probe goes through ``service`` (the owning shard when routed
        through :meth:`span_for_template`; the engine's first shard by
        default — a raw script names no template to route by): the
        parsed script is shared across probe configurations, and the
        default-configuration compile lands in the same plan cache the
        Recompilation task reads the default cost from.

        An off-by-default rule is probed only if it *can bind*: its bit is
        set in the default compile's ``bindable_mask``, i.e. its ``root`` is
        the class of some expression the default search held.  The rest are
        not members, decided without a compile.  Why that is the answer the
        probe would give: a rule enters a signature only through the
        provenance of an expression it produced or built.  The search under
        default + R pops the same expressions in the same order as the
        default search until R first binds; R's ``root`` is the class of no
        expression the default search ever holds, so R binds nowhere,
        produces nothing, and can only shorten the search (a tried pair
        spends budget whether or not it matches) — the plan may differ, the
        membership answer cannot, and a starved search still has a physical
        plan.  An implementation rule that builds nothing leaves the
        compile identical outright.
        """
        if service is None:
            service = self.engine.compilation.shards[0]
        engine = service.engine
        registry = engine.registry
        self.recompilations += 1
        try:
            default_result = service.compile_script(script, engine.default_config)
        except ScopeError:
            return frozenset()
        span: set[int] = set(default_result.signature.non_required_ids(registry))
        disabled: set[int] = set(span)
        off_by_default = set(registry.ids_in_category(RuleCategory.OFF_BY_DEFAULT))

        for _ in range(self.max_iterations):
            config = engine.default_config
            # sorted: the flip fold is order-insensitive (each id toggles a
            # distinct bit) but iterating the raw sets would tie the list
            # order to set internals rather than to rule ids
            flips = [r for r in sorted(off_by_default - disabled) if not config.is_enabled(r)]
            flips += [r for r in sorted(disabled) if config.is_enabled(r)]
            config = config.with_flips(flips)
            self.recompilations += 1
            try:
                result = service.compile_script(script, config)
            except ScopeError:
                break
            new_ids = result.signature.non_required_ids(registry) - span
            if not new_ids:
                break
            span |= new_ids
            disabled |= new_ids

        # Adaptation over the published heuristic: the combined probe above
        # dies as soon as it disables a sole-implementation rule, which would
        # hide off-by-default rules from most spans.  Probe each remaining
        # off-by-default rule that can bind individually — faithful to the
        # span's *semantics* ("rules which, if flipped, can affect the final
        # plan").  The probes are independent single compilations, so they
        # fan out through the executor; membership is folded back in rule
        # order.
        unbindable = (
            registry.transformation_mask | registry.implementation_mask
        ) & ~default_result.bindable_mask
        remaining = [r for r in sorted(off_by_default - span) if not unbindable >> r & 1]

        def probe(rule_id: int) -> bool:
            config = engine.default_config.with_flip(rule_id)
            try:
                result = service.compile_script(script, config)
            except ScopeError:
                # flipping it breaks compilation: it matters
                return True
            return rule_id in result.signature.non_required_ids(registry)

        # propagation only: the feature stage's span follows the probes to
        # worker threads, keeping trace shape worker-count independent
        probed = self.executor.map_jobs_propagated(
            probe, remaining, tracer=engine.obs.tracer
        )
        # attempts, not successes: a failed search costs as much as one
        # that found a plan
        self.recompilations += len(remaining)
        span.update(rule_id for rule_id, member in zip(remaining, probed) if member)
        return frozenset(span)
