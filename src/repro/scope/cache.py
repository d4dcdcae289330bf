"""CompilationService: memoizing front-end of the SCOPE compile path.

The QO-Advisor loop compiles one job many times per day — the production
run, the Recompilation task's default-cost and flip compiles, the Flighting
Service's baseline/treatment pair, A/A runs, and the §4.3 bootstrap corpus.
Optimization under a fixed rule configuration is deterministic (the same
fact Bao and the production deployment rely on to reuse plans), so the
(script, rule-configuration) pair fully determines the optimizer's output
and repeated compilations can be served from a cache.

Three pieces live here:

* :class:`CacheStats` — hit/miss/eviction/invalidation counters plus the
  number of real optimizer invocations, surfaced per day in ``DayReport``;
* :class:`PlanCache` — a bounded LRU map from (script hash × configuration
  bitvector) to the memoized :class:`OptimizationResult` (or the
  deterministic compile error), with generation-based invalidation: SIS
  bumps the generation whenever a new hint file version is installed, so a
  stale plan can never be served under a new hint;
* :class:`CompilationService` — the layer pipeline stages talk to.  It
  resolves a job's rule configuration, consults the cache, and only falls
  through to parse/bind/optimize on a miss.  Its :meth:`compile_many`
  batch API additionally deduplicates identical requests *before*
  compiling, so batching wins survive even with the cache disabled.

The service is **thread-safe**: the job-parallel executor
(:mod:`repro.parallel`) compiles from many worker threads at once, all
sharing this one cache.  A single lock guards cache mutation and the stats
counters, and concurrent misses on the *same* key are deduplicated — one
leader runs the optimizer while the other threads wait for its entry and
count as hits, exactly the accounting a serial schedule would produce.
Plans are optimized outside the lock, so distinct keys overlap freely.

Eviction is **deterministic at any worker count**.  Recency is tracked at
*epoch* granularity instead of per access: every hit or insert stamps the
entry with the current epoch, and capacity is enforced only at explicit
:meth:`CompilationService.checkpoint` barriers (the pipeline calls one
after every stage and every bootstrap day, always from the coordinating
thread).  Within an epoch the resident set only grows, so whether a lookup
hits depends solely on *which* keys were requested — never on the order
worker threads got the lock — and the checkpoint evicts by
``(last_epoch, key)``, a schedule-independent total order.  The cache may
transiently exceed ``capacity`` by one epoch's distinct-key count; the
steady-state bound holds at every barrier.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

from repro.config import CacheConfig
from repro.errors import ScopeError
from repro.obs.trace import NULL_TRACER
from repro.scope.optimizer.rules.base import RuleConfiguration, RuleFlip

if TYPE_CHECKING:  # pragma: no cover
    from repro.parallel import Executor
    from repro.scope.compile import CompiledScript
    from repro.scope.engine import ScopeEngine
    from repro.scope.jobs import JobInstance
    from repro.scope.optimizer.engine import OptimizationResult

__all__ = [
    "CacheStats",
    "PlanCache",
    "FragmentCache",
    "FragmentView",
    "CompileRequest",
    "CompilationService",
]


@dataclass
class CacheStats:
    """Counters of one compilation service (snapshot/diff for per-day views)."""

    #: plan-cache lookups served from the cache
    hits: int = 0
    #: plan-cache lookups that fell through to the optimizer
    misses: int = 0
    #: entries dropped because the cache reached capacity (LRU order)
    evictions: int = 0
    #: entries dropped by explicit invalidation (SIS hint-version bumps)
    invalidations: int = 0
    #: real parse→bind→optimize runs (the number the paper's machine-time
    #: accounting cares about; misses and disabled-cache compiles both count)
    optimizer_invocations: int = 0
    #: parse/bind runs (scripts are re-used across configurations)
    script_compilations: int = 0
    #: requests folded into an identical sibling inside one compile_many batch
    dedup_hits: int = 0
    #: fragment-store lookups served from the store (sub-plan reuse).
    #: Fragment counters measure *work saved*, not decisions: under
    #: concurrent compiles two threads may both miss a fresh fragment
    #: (both then insert the identical pure-function entry), so these
    #: three counters are schedule-shaped and excluded from
    #: ``DayReport.fingerprint()`` — unlike the whole-script counters
    #: above, which stay schedule-independent
    fragment_hits: int = 0
    #: fragment-store lookups that ran the isolated sub-search
    fragment_misses: int = 0
    #: fragment entries inserted into the store
    fragment_inserts: int = 0
    #: transformation-rule applications actually executed (isolated
    #: fragment searches plus residual exploration) — the machine-time
    #: proxy the fragment cache shrinks; excluded from fingerprints for
    #: the same reason as the fragment counters
    rule_applications: int = 0
    #: fragments explored by the batch planner *before* the per-script
    #: fan-out (MQO pre-exploration); work telemetry like the fragment
    #: counters — the per-compile lookups these warm show as fragment_hits
    mqo_preexplored: int = 0
    #: physical-winner lookups served from a fragment slot (the compile
    #: replayed a recorded physical closure instead of re-running
    #: implementation rules and costing)
    winner_hits: int = 0
    #: physical-winner lookups that fell through (cold slot, different
    #: implementation bits, or a different stats context)
    winner_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def fragment_lookups(self) -> int:
        return self.fragment_hits + self.fragment_misses

    @property
    def fragment_hit_rate(self) -> float:
        lookups = self.fragment_lookups
        return self.fragment_hits / lookups if lookups else 0.0

    def core(self) -> tuple:
        """The schedule-independent counters, as a plain tuple.

        This is what ``DayReport.fingerprint()`` feeds: whole-script cache
        accounting is part of the cross-topology determinism contract,
        while the fragment/work counters above are diagnostics that may
        differ between schedules (and between fragment cache on and off).
        """
        return (
            self.hits,
            self.misses,
            self.evictions,
            self.invalidations,
            self.optimizer_invocations,
            self.script_compilations,
            self.dedup_hits,
        )

    def snapshot(self) -> "CacheStats":
        """An immutable-by-convention copy (use with ``-`` for deltas)."""
        return replace(self)

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in dataclasses.fields(CacheStats)
            }
        )

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Aggregate counters (per-shard stats sum to the cluster view)."""
        return CacheStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(CacheStats)
            }
        )


def _detached(exc: ScopeError) -> ScopeError:
    """A copy of ``exc`` that has never been raised.

    Memoized errors are stored and re-raised through this: a raised
    exception holds its traceback — every frame of the compile, the memo
    among their locals — and each hit raising the one resident object
    would append the caller's frames to it.  ``__new__``, not the
    constructor: subclasses change its signature.
    """
    clone = type(exc).__new__(type(exc), *exc.args)
    clone.__dict__.update(exc.__dict__)
    return clone


@dataclass
class _CacheEntry:
    """Memoized outcome of one (script, configuration) compilation.

    Compile failures are deterministic too, so the error is memoized
    (detached from its traceback) and a fresh copy raised on every hit — a
    failing flip costs one optimizer run, not one per pipeline stage.
    """

    result: "OptimizationResult | None" = None
    error: ScopeError | None = None
    #: epoch of the last hit or insert (recency at barrier granularity)
    last_epoch: int = 0


class PlanCache:
    """Bounded plan cache keyed by script hash × configuration bits.

    Recency is epoch-granular: hits and inserts stamp the current epoch,
    and :meth:`checkpoint` — called from a single coordinating thread at
    deterministic points — evicts down to ``capacity`` in ``(last_epoch,
    key)`` order, then advances the epoch.  Within an epoch the resident
    set only grows, so hit/miss accounting and eviction victims are
    independent of the order concurrent threads touch the cache.
    """

    def __init__(self, capacity: int, stats: CacheStats | None = None) -> None:
        if capacity <= 0:
            raise ValueError(f"plan cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        #: bumped on every invalidation (SIS hint installation, catalog
        #: mutation); all resident entries are dropped at each bump so a
        #: stale plan is never served
        self.generation = 0
        #: barrier counter; entries stamped with it carry the recency signal
        self.epoch = 0
        self._entries: dict[tuple, _CacheEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def script_hash(script: str) -> bytes:
        return hashlib.blake2b(script.encode("utf-8"), digest_size=16).digest()

    def key_for(self, script: str, config: RuleConfiguration) -> tuple:
        return (self.script_hash(script), config.bits, config.size)

    def get(self, key: tuple) -> _CacheEntry | None:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        # stamping the current epoch is idempotent within the epoch, so
        # concurrent hits commute — recency never depends on lock order
        entry.last_epoch = self.epoch
        self.stats.hits += 1
        return entry

    def peek(self, key: tuple) -> bool:
        """Counter-free residency check (no hit/miss, no recency stamp).

        The batch planner skips pre-exploration for plan-resident units;
        its probes must leave the schedule-independent accounting exactly
        as a run without pre-exploration would.
        """
        return key in self._entries

    def peek_entry(self, key: tuple) -> _CacheEntry | None:
        """Counter-free entry read (no hit/miss, no recency stamp).

        The plan-guided policy's scoring peek: it consumes the memoized
        result without perturbing the accounting or eviction order.
        """
        return self._entries.get(key)

    def put(self, key: tuple, entry: _CacheEntry) -> None:
        entry.last_epoch = self.epoch
        self._entries[key] = entry

    def checkpoint(self) -> int:
        """Enforce capacity in ``(last_epoch, key)`` order; advance the epoch.

        Returns the number of evicted entries.  Must be called from the
        coordinating thread only (no compiles in flight), which is what
        makes the eviction schedule-independent.
        """
        evicted = 0
        if len(self._entries) > self.capacity:
            overflow = len(self._entries) - self.capacity
            victims = sorted(
                self._entries, key=lambda key: (self._entries[key].last_epoch, key)
            )[:overflow]
            for key in victims:
                del self._entries[key]
            evicted = len(victims)
            self.stats.evictions += evicted
        self.epoch += 1
        return evicted

    def bump_generation(self) -> None:
        """Invalidate every cached plan (a new SIS hint version is active)."""
        self.generation += 1
        self.stats.invalidations += len(self._entries)
        self._entries.clear()

    # -- entry migration (elastic rebalancing) --------------------------------

    def extract(self, digest: bytes) -> dict[tuple, _CacheEntry]:
        """Remove and return every entry whose script hash is ``digest``.

        The rebalancing hand-off: a template that moves to a different
        shard takes its memoized plans with it instead of recompiling, so
        no hit/miss/invalidation counter moves on either side and the
        cross-topology accounting contract survives the resize.
        """
        keys = [key for key in self._entries if key[0] == digest]
        return {key: self._entries.pop(key) for key in keys}

    def adopt(self, key: tuple, entry: _CacheEntry) -> bool:
        """Insert a migrated entry unless the key is already resident."""
        if key in self._entries:
            return False
        entry.last_epoch = self.epoch
        self._entries[key] = entry
        return True


@dataclass
class _FragmentSlot:
    """One resident fragment entry plus its epoch-granular recency stamp.

    ``winners`` holds the slot's physical-winner entries keyed by
    ``(implementation-masked bits, stats digest)`` — the cost context a
    recorded physical closure is valid under.  Winners ride their slot:
    they are evicted, invalidated and migrated with the logical entry,
    never on their own.
    """

    entry: object
    last_epoch: int = 0
    winners: dict = field(default_factory=dict)
    #: inserted by batch pre-exploration and not yet demanded by a compile.
    #: The first demand ``get`` of a prefetched slot counts as a *miss* —
    #: what the compile would have experienced without MQO — so the
    #: fragment hit/miss/insert counters stay schedule-invariant whether a
    #: fragment was warmed up front (batch day) or explored inline on
    #: first demand (serving lanes, where plans are already resident when
    #: the maintenance window's pre-explore pass runs).
    prefetched: bool = False


@dataclass(frozen=True)
class _FragmentExport:
    """Migration payload for one fragment slot: entry + winner map copy."""

    entry: object
    winners: dict
    prefetched: bool = False


class FragmentCache:
    """Bounded store of fragment entries, keyed by sub-plan content.

    Sits beside :class:`PlanCache` with the same determinism scheme: keys
    bake in every input the entry depends on — the fragment's bottom-up
    sha256 digest, the rule-configuration bits/size, the catalog version
    and the hint generation — so a stale entry is unreachable by
    construction; recency is epoch-granular and capacity is enforced only
    at :meth:`checkpoint` barriers in ``(last_epoch, key)`` order, so the
    resident set never depends on worker schedules.  A generation bump
    (SIS hint installation, catalog mutation) additionally clears the
    store eagerly, exactly like the plan cache.

    Fragment hit/miss/insert counters are *work* accounting, not decision
    accounting: concurrent first-touches of the same fragment may both
    count a miss (both compute the identical pure-function entry; the
    insert is first-wins), so the counters live outside the fingerprint
    contract while the resident key set stays schedule-independent.
    """

    def __init__(self, capacity: int, stats: CacheStats | None = None) -> None:
        if capacity <= 0:
            raise ValueError(
                f"fragment cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.stats = stats if stats is not None else CacheStats()
        self.generation = 0
        self.epoch = 0
        self._entries: dict[tuple, _FragmentSlot] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def view(
        self,
        config: RuleConfiguration,
        catalog_version: int,
        lock: threading.RLock,
        *,
        trans_mask: int | None = None,
        impl_mask: int | None = None,
        tracer=None,
    ) -> "FragmentView":
        """A per-compile facade with the key context baked in.

        ``trans_mask``/``impl_mask`` are the registry's rule-category
        bitmasks; with them, logical entries key on the configuration's
        *transformation* projection (implementation-only flips share
        entries) and winner entries key on its *implementation* projection.
        Without masks the full bits are used — strictly coarser sharing,
        never a correctness difference.
        """
        return FragmentView(
            self,
            config,
            catalog_version,
            lock,
            trans_mask=trans_mask,
            impl_mask=impl_mask,
            tracer=tracer,
        )

    def get(self, key: tuple) -> object | None:
        slot = self._entries.get(key)
        if slot is None:
            self.stats.fragment_misses += 1
            return None
        slot.last_epoch = self.epoch  # idempotent within the epoch
        if slot.prefetched:
            # first demand touch of a pre-explored slot: account it as the
            # miss the compile would have taken without MQO (the entry is
            # still served, so the exploration work stays saved) — demand
            # hit/miss counters are thereby prefetch-invariant
            slot.prefetched = False
            self.stats.fragment_misses += 1
        else:
            self.stats.fragment_hits += 1
        return slot.entry

    def put(self, key: tuple, entry: object, *, prefetch: bool = False) -> bool:
        """Insert unless resident (first wins — entries are pure values)."""
        if key in self._entries:
            return False
        self._entries[key] = _FragmentSlot(entry, self.epoch, prefetched=prefetch)
        self.stats.fragment_inserts += 1
        return True

    def peek(self, key: tuple) -> bool:
        """Counter-free residency check (the batch planner's skip probe)."""
        return key in self._entries

    # -- physical winners ------------------------------------------------------

    def get_winner(self, key: tuple, winner_key: tuple) -> object | None:
        """Winner entry for ``winner_key`` inside slot ``key``, if any.

        Counted in ``winner_hits``/``winner_misses`` — work telemetry with
        the same caveats as the fragment counters (concurrent compiles may
        both miss a context first touched in their overlap).  A missing
        *slot* is a winner miss too: the logical entry was evicted or
        never cached, so there is nothing to hang a winner on.
        """
        slot = self._entries.get(key)
        winner = slot.winners.get(winner_key) if slot is not None else None
        if winner is None:
            self.stats.winner_misses += 1
            return None
        slot.last_epoch = self.epoch
        self.stats.winner_hits += 1
        return winner

    def put_winner(self, key: tuple, winner_key: tuple, winner: object) -> bool:
        """Attach a winner entry to a resident slot (first wins).

        Dropped silently when the slot is gone — a winner without its
        logical entry is unusable, and re-inserting the slot here would
        resurrect content the eviction/invalidation schedule removed.
        """
        slot = self._entries.get(key)
        if slot is None or winner_key in slot.winners:
            return False
        slot.winners[winner_key] = winner
        return True

    def checkpoint(self) -> int:
        """Enforce capacity in ``(last_epoch, key)`` order; advance the epoch."""
        evicted = 0
        if len(self._entries) > self.capacity:
            overflow = len(self._entries) - self.capacity
            victims = sorted(
                self._entries, key=lambda key: (self._entries[key].last_epoch, key)
            )[:overflow]
            for key in victims:
                del self._entries[key]
            evicted = len(victims)
        self.epoch += 1
        return evicted

    def bump_generation(self) -> None:
        """Invalidate every fragment (new hint generation / catalog version)."""
        self.generation += 1
        self._entries.clear()

    # -- entry migration (elastic rebalancing) --------------------------------

    def export_keys(self, base_keys: "Iterable[tuple]") -> dict[tuple, object]:
        """Resident entries for generation-free ``base_keys``.

        Entries are *copied by reference*, not removed: a fragment shared
        with scripts staying on this shard keeps serving them.  Base keys
        (digest, masked bits, size, catalog version) exclude the
        generation — a per-store counter the importer re-binds on
        adoption.  Each payload carries the slot's winner map (copied, so
        later local winner inserts don't leak into an already-shipped
        payload): a warmed destination shard serves winner hits, not just
        logical-closure hits.
        """
        exported: dict[tuple, object] = {}
        for base_key in base_keys:
            slot = self._entries.get(base_key + (self.generation,))
            if slot is not None:
                exported[base_key] = _FragmentExport(
                    slot.entry, dict(slot.winners), slot.prefetched
                )
        return exported

    def adopt(self, base_key: tuple, payload: object) -> bool:
        """Insert a migrated entry under this store's current generation.

        Accepts a winner-carrying :class:`_FragmentExport` or a bare entry
        (journal replays of pre-winner exports).  When the key is already
        resident the logical entry is dropped (first wins, identical by
        construction) but the shipped winners still merge in — two source
        shards may have materialized different cost contexts for one
        fragment, and each winner entry is a pure value for its key.
        """
        if isinstance(payload, _FragmentExport):
            entry, winners = payload.entry, payload.winners
            prefetched = payload.prefetched
        else:
            entry, winners = payload, {}
            prefetched = False
        key = base_key + (self.generation,)
        slot = self._entries.get(key)
        if slot is not None:
            for winner_key, winner in winners.items():
                slot.winners.setdefault(winner_key, winner)
            return False
        self._entries[key] = _FragmentSlot(
            entry, self.epoch, dict(winners), prefetched=prefetched
        )
        return True


class FragmentView:
    """One compile's window onto the fragment store.

    Binds the rule configuration (projected through the registry's
    category masks), the catalog version and, transitively, the store's
    hint generation into every key, and funnels access through the
    compilation service's lock — the optimizer only ever sees
    ``get``/``put``/``get_winner``/``put_winner``/``key`` over raw subtree
    digests.

    Masking is what lets configurations that differ only in
    *implementation* bits (span probes of implementation rules, recompile
    flips) share logical fragment entries: exploration only ever runs
    enabled transformation rules, so the logical closure is a pure
    function of the transformation projection.  Winner entries key on the
    implementation projection (plus the stats digest) for the symmetric
    reason.
    """

    def __init__(
        self,
        cache: FragmentCache,
        config: RuleConfiguration,
        catalog_version: int,
        lock: threading.RLock,
        *,
        trans_mask: int | None = None,
        impl_mask: int | None = None,
        tracer=None,
    ) -> None:
        self._cache = cache
        self._trans_bits = (
            config.bits & trans_mask if trans_mask is not None else config.bits
        )
        self._impl_bits = (
            config.bits & impl_mask if impl_mask is not None else config.bits
        )
        self._size = config.size
        self._catalog_version = catalog_version
        self._lock = lock
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def key(self, digest: bytes) -> tuple:
        """The migration-portable key (generation deliberately excluded)."""
        return (digest, self._trans_bits, self._size, self._catalog_version)

    def _full_key(self, digest: bytes) -> tuple:
        return self.key(digest) + (self._cache.generation,)

    def get(self, digest: bytes):
        with self._lock:
            entry = self._cache.get(self._full_key(digest))
        if self._tracer.enabled:
            # observational only: the hit/miss *counters* moved (or not)
            # inside the store; this just annotates the current trace span
            self._tracer.event("fragment_lookup", hit=entry is not None)
        return entry

    def put(self, digest: bytes, entry: object, *, prefetch: bool = False) -> None:
        with self._lock:
            self._cache.put(self._full_key(digest), entry, prefetch=prefetch)

    def peek(self, digest: bytes) -> bool:
        """Counter-free residency probe (the batch planner's skip check)."""
        with self._lock:
            return self._cache.peek(self._full_key(digest))

    def winner_key(self, stats_digest: bytes) -> tuple:
        return (self._impl_bits, stats_digest)

    def get_winner(self, digest: bytes, stats_digest: bytes):
        with self._lock:
            return self._cache.get_winner(
                self._full_key(digest), self.winner_key(stats_digest)
            )

    def put_winner(self, digest: bytes, stats_digest: bytes, winner: object) -> None:
        with self._lock:
            self._cache.put_winner(
                self._full_key(digest), self.winner_key(stats_digest), winner
            )


@dataclass
class _InFlightCompile:
    """A miss currently being compiled by a leader thread.

    Concurrent requests for the same key park on ``done`` instead of
    running the optimizer again; the leader publishes its entry before
    setting the event.
    """

    done: threading.Event = field(default_factory=threading.Event)
    entry: _CacheEntry | None = None


@dataclass(frozen=True)
class CompileRequest:
    """One unit of work for :meth:`CompilationService.compile_many`."""

    job: "JobInstance"
    flip: RuleFlip | None = None
    use_hints: bool = True


class CompilationService:
    """The compile front-end pipeline stages share (one per ScopeEngine)."""

    def __init__(self, engine: "ScopeEngine", config: CacheConfig | None = None) -> None:
        self.engine = engine
        self.config = config if config is not None else CacheConfig()
        self.stats = CacheStats()
        self.cache = PlanCache(self.config.capacity, self.stats)
        #: sub-plan memoization: isolated fragment explorations keyed by
        #: content digest × configuration × catalog version × generation.
        #: Always constructed; ``config.fragment_enabled`` gates whether
        #: compiles get a view of it (the ablation knob for benchmarks)
        self.fragments = FragmentCache(self.config.fragment_capacity, self.stats)
        # rule-category projections of configuration bits: fragment keys use
        # the transformation mask (implementation-only flips share logical
        # entries), winner keys the implementation mask
        self._trans_mask = engine.registry.transformation_mask
        self._impl_mask = engine.registry.implementation_mask
        # parse/bind results are configuration-independent: one script feeds
        # every probe/flip configuration it is optimized under.  This memo
        # stays active even with the plan cache disabled — ``enabled`` is the
        # plan-memoization ablation knob, and binding is deterministic.
        # Deterministic parse/bind *errors* are memoized in the same table
        # (the value is the exception), so ``script_compilations`` counts a
        # failing script once per (digest, catalog version) no matter how
        # many configurations — or the batch planner's pre-exploration pass —
        # touch it.  Recency follows the plan cache's epoch scheme (trimmed
        # at checkpoints), so its accounting is schedule-independent too.
        self._scripts: dict[tuple, CompiledScript | ScopeError] = {}
        self._script_epochs: dict[tuple, int] = {}
        # script-text → blake2b digest memo.  ``compile_many`` hashes every
        # request during dedup and the same script texts recur day after
        # day, so the digest is computed once per distinct text and reused
        # until the next generation bump (which re-bounds the memo's size
        # along with everything else)
        self._digests: dict[str, bytes] = {}
        self._catalog_version = engine.catalog.version
        # one lock guards LRU mutation, the stats counters, the script memo
        # and the in-flight table; optimization itself runs outside it
        self._lock = threading.RLock()
        self._in_flight: dict[tuple, _InFlightCompile] = {}
        #: tracer for compile/optimize spans and fragment-lookup events
        #: (null by default; ``ScopeEngine.install_obs`` swaps it in).
        #: Spans are observational only — no CacheStats counter, and
        #: nothing a fingerprint covers, ever moves because of tracing
        self.tracer = NULL_TRACER

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    @property
    def generation(self) -> int:
        return self.cache.generation

    # -- the service API ------------------------------------------------------

    def compile_job(
        self,
        job: "JobInstance",
        flip: RuleFlip | None = None,
        *,
        use_hints: bool = True,
    ) -> "OptimizationResult":
        """Resolve the job's configuration, then compile through the cache."""
        config = self.engine.configuration_for(job, flip, use_hints=use_hints)
        return self.compile_script(job.script, config)

    def compile_script(
        self, script: str, config: RuleConfiguration
    ) -> "OptimizationResult":
        """Compile a raw script under an explicit configuration (cached)."""
        entry = self._lookup_or_compile(script, config)
        if entry.error is not None:
            raise _detached(entry.error)
        return entry.result

    def _key_for(self, script: str, config: RuleConfiguration) -> tuple:
        """Plan-cache key: script × configuration × catalog version.

        The workload mutates the catalog day over day (recurring inputs
        drift), so the same script text optimizes to different costs on
        different days — the catalog version makes those distinct entries.
        """
        return (
            self._script_digest(script),
            config.bits,
            config.size,
            self.engine.catalog.version,
        )

    def _script_digest(self, script: str) -> bytes:
        """The script's cache digest, memoized per distinct text.

        A pure function of the text, so a racing recompute writes the same
        bytes — the memo needs no lock.  ``dedup_batch`` hashes every
        request in a batch and the same templates recur daily, which made
        this the hottest hash call in ``compile_many``.
        """
        digest = self._digests.get(script)  # qa: unlocked-ok pure-function memo; racing recompute writes identical bytes
        if digest is None:
            digest = PlanCache.script_hash(script)
            self._digests[script] = digest  # qa: unlocked-ok pure-function memo; racing recompute writes identical bytes
        return digest

    def _sync_catalog_version_locked(self) -> None:
        """Drop entries made unreachable by a catalog mutation.

        Keys bake in the catalog version, so old-version entries can never
        hit again — purging them eagerly keeps the LRU full of live plans
        instead of yesterday's table sizes.
        """
        if self._catalog_version != self.engine.catalog.version:
            self._catalog_version = self.engine.catalog.version
            self.cache.bump_generation()
            self.fragments.bump_generation()
            self._scripts.clear()
            self._script_epochs.clear()
            self._digests.clear()

    def dedup_batch(
        self, requests: Iterable[CompileRequest]
    ) -> tuple[list[tuple], dict[tuple, tuple[str, RuleConfiguration]]]:
        """Resolve configurations and fold duplicate (script, config) requests.

        Returns ``(keys, unique)``: ``keys`` aligns with ``requests`` and
        ``unique`` maps each distinct key to its (script, configuration)
        work in first-appearance order.  Folded duplicates are counted in
        ``stats.dedup_hits`` here, so callers driving the unique work
        themselves (the sharded facade's cross-shard fan-out) keep the
        exact accounting :meth:`compile_many` produces.
        """
        resolved = [
            (request.job.script,
             self.engine.configuration_for(
                 request.job, request.flip, use_hints=request.use_hints
             ))
            for request in requests
        ]
        keys = [self._key_for(script, config) for script, config in resolved]
        unique: dict[tuple, tuple[str, RuleConfiguration]] = {}
        duplicates = 0
        for key, work in zip(keys, resolved):
            if key in unique:
                duplicates += 1
            else:
                unique[key] = work
        if duplicates:
            with self._lock:
                self.stats.dedup_hits += duplicates
        return keys, unique

    def compile_entry(
        self, script: str, config: RuleConfiguration
    ) -> "OptimizationResult | ScopeError":
        """Compile one resolved unit, returning the outcome inline.

        Like :meth:`compile_script` but a failing compilation returns its
        (memoized) error instead of raising — the per-unit shape batch
        fan-outs need.
        """
        entry = self._lookup_or_compile(script, config)
        return entry.error if entry.error is not None else entry.result

    def peek_plan(self, script: str, config: RuleConfiguration) -> bool:
        """Counter-free plan-cache residency check for one resolved unit.

        The batch planner skips pre-exploring fragments of units the plan
        cache will serve outright; the probe must not move hit/miss
        counters (they are part of the fingerprint contract) or recency.
        """
        with self._lock:
            self._sync_catalog_version_locked()
            return self.cache.peek(self._key_for(script, config))

    def peek_result(
        self, script: str, config: RuleConfiguration
    ) -> "OptimizationResult | None":
        """The cached plan for one resolved unit, counter-free, or ``None``.

        The plan-guided steering policy reads plan structure for scoring;
        like :meth:`peek_plan` the probe must not move hit/miss counters
        (fingerprint contract) or recency, and it never compiles — a cold
        key simply yields ``None``.  Memoized compile *errors* also yield
        ``None``: there is no plan to featurize.
        """
        with self._lock:
            self._sync_catalog_version_locked()
            entry = self.cache.peek_entry(self._key_for(script, config))
            return entry.result if entry is not None else None

    def fragment_view(self, config: RuleConfiguration) -> "FragmentView":
        """A fragment-store view bound to ``config`` and the live catalog."""
        return self.fragments.view(
            config,
            self.engine.catalog.version,
            self._lock,
            trans_mask=self._trans_mask,
            impl_mask=self._impl_mask,
            tracer=self.tracer,
        )

    def preexplore_batch(
        self,
        requests: "Iterable[CompileRequest]",
        executor: "Executor | None" = None,
    ) -> int:
        """Warm the fragment store for a batch before its compiles fan out.

        The MQO pass (see :mod:`repro.scope.optimizer.mqo`): digest every
        distinct unit's fragments up front, rank them by frequency ×
        subtree size, and explore them bottom-up through ``executor`` so
        the per-script compiles hit warm entries.  Returns the number of
        fragments explored.  Observationally transparent by construction:
        pre-exploration moves only work telemetry (fragment misses/inserts,
        rule applications, ``mqo_preexplored``) — every schedule-independent
        counter, and therefore every fingerprint, is byte-identical with
        MQO on or off.
        """
        if not (self.config.fragment_enabled and self.config.mqo_enabled):
            return 0
        from repro.scope.optimizer.mqo import BatchPlanner

        planner = BatchPlanner()
        planner.add_batch(self, requests)
        if self.tracer.enabled:
            with self.tracer.child_span("mqo_preexplore") as span:
                explored = planner.preexplore(executor)
                span.set(fragments=explored)
                return explored
        return planner.preexplore(executor)

    def compile_many(
        self,
        requests: Iterable[CompileRequest],
        executor: "Executor | None" = None,
    ) -> "list[OptimizationResult | ScopeError]":
        """Batch compile, deduplicating identical (script, config) requests.

        Results align with ``requests``; a failing compilation yields its
        exception instance instead of raising, so one bad request cannot
        abort the batch.  Duplicates are folded before any compilation
        happens — the dedup win holds even when the cache is disabled.
        With an ``executor``, the deduplicated unique requests compile in
        parallel (first-appearance order is preserved in the accounting).
        When MQO is enabled the batch's distinct fragments are pre-explored
        first (see :meth:`preexplore_batch`), so the fan-out runs against a
        warm fragment store.
        """
        requests = list(requests)
        self.preexplore_batch(requests, executor)
        keys, unique = self.dedup_batch(requests)
        ordered = list(unique)
        if executor is None or len(ordered) <= 1:
            entries = [self._lookup_or_compile(*unique[key]) for key in ordered]
        else:
            # propagate (not create) the caller's span, so per-compile
            # child spans parent identically at any worker count
            entries = executor.map_jobs_propagated(
                lambda key: self._lookup_or_compile(*unique[key]),
                ordered,
                tracer=self.tracer,
            )
        by_key = dict(zip(ordered, entries))
        return [
            entry.error if entry.error is not None else entry.result
            for entry in (by_key[key] for key in keys)
        ]

    def invalidate(self) -> None:
        """Drop every cached plan and fragment (called by SIS on hint change)."""
        with self._lock:
            self.cache.bump_generation()
            self.fragments.bump_generation()
            self._digests.clear()

    # -- warm-up migration (elastic rebalancing) ------------------------------

    def export_script_state(
        self, script: str, skip_fragments: "set[tuple] | None" = None
    ) -> (
        "tuple[dict[tuple, _CacheEntry], dict[tuple, CompiledScript],"
        " dict[tuple, object]]"
    ):
        """Remove and return this shard's cached state for ``script``.

        Every plan-cache entry (all configurations), a copy of the
        parse/bind memo entry, and copies of the fragment entries the
        exported plans were built from.  This is how a rebalanced
        template's cache warmth follows it to its new owner: entries
        *migrate* rather than recompile, so no counter moves — the
        accounting a fingerprint covers stays byte-identical to the
        static-topology run.

        ``skip_fragments`` deduplicates the fragment payload across a
        migration batch: base keys already shipped to the same destination
        are omitted (and the keys exported here are added to the set), so
        two templates sharing a join block ship its entry once.  Plans are
        removed; fragments are only copied — a fragment may still serve
        scripts that stay behind.
        """
        with self._lock:
            self._sync_catalog_version_locked()
            digest = self._script_digest(script)
            plans = self.cache.extract(digest)
            skey = (digest, self.engine.catalog.version)
            scripts: dict[tuple, "CompiledScript"] = {}
            if skey in self._scripts:
                # the memo is copied, not moved: it carries no counter and
                # the source may still probe the script before retiring
                scripts[skey] = self._scripts[skey]
            frag_keys: set[tuple] = set()
            for entry in plans.values():
                if entry.result is not None:
                    frag_keys.update(entry.result.fragment_keys)
            if skip_fragments is not None:
                frag_keys -= skip_fragments
                skip_fragments |= frag_keys
            fragments = self.fragments.export_keys(sorted(frag_keys))
        return plans, scripts, fragments

    def import_script_state(
        self,
        plans: "dict[tuple, _CacheEntry]",
        scripts: "dict[tuple, CompiledScript]",
        fragments: "dict[tuple, object] | None" = None,
    ) -> "tuple[int, dict[tuple, _CacheEntry]]":
        """Adopt state exported from another shard (cache warm-up).

        Returns ``(adopted, rejected)``: plan entries whose key is already
        resident here (or keyed to a different catalog version) are handed
        back so the caller can return them to the source instead of
        silently dropping residency the invalidation counters would miss.
        Fragment entries are adopt-if-absent under this store's current
        generation — duplicates are dropped silently (they are pure values,
        identical to the resident copy by construction).
        """
        adopted = 0
        rejected: dict[tuple, _CacheEntry] = {}
        with self._lock:
            self._sync_catalog_version_locked()
            version = self.engine.catalog.version
            for key, entry in plans.items():
                if key[-1] == version and self.cache.adopt(key, entry):
                    adopted += 1
                else:
                    rejected[key] = entry
            for skey, compiled in scripts.items():
                if skey[-1] == version and skey not in self._scripts:
                    self._scripts[skey] = compiled
                    self._script_epochs[skey] = self.cache.epoch
            if fragments:
                for base_key, entry in fragments.items():
                    if base_key[-1] == version:
                        self.fragments.adopt(base_key, entry)
        return adopted, rejected

    def checkpoint(self) -> None:
        """Barrier: enforce cache capacities and advance the recency epoch.

        Called by the pipeline after every stage and every bootstrap day,
        always from the coordinating thread with no compiles in flight —
        which is exactly what makes eviction victims (and therefore the
        whole hit/miss accounting) independent of the worker count.
        Standalone heavy users of the service should call it at their own
        batch boundaries; between checkpoints the caches may transiently
        exceed their capacities by one epoch's distinct keys.
        """
        with self._lock:
            self.cache.checkpoint()
            self.fragments.checkpoint()
            if len(self._digests) > self.config.capacity:
                # the digest memo has no recency signal (it is a pure
                # function table); re-derive on demand after a reset
                self._digests.clear()
            if len(self._scripts) > self.config.script_capacity:
                overflow = len(self._scripts) - self.config.script_capacity
                victims = sorted(
                    self._scripts,
                    key=lambda key: (self._script_epochs.get(key, 0), key),
                )[:overflow]
                for key in victims:
                    del self._scripts[key]
                    self._script_epochs.pop(key, None)

    # -- internals -------------------------------------------------------------

    def _lookup_or_compile(
        self, script: str, config: RuleConfiguration
    ) -> _CacheEntry:
        if self.tracer.enabled:
            # child_span: only callers already inside a trace (a traced
            # production job, a serving steer) produce a span — untraced
            # fan-outs (span probes, recompile flips) stay invisible
            with self.tracer.child_span("compile"):
                return self._lookup_or_compile_impl(script, config)
        return self._lookup_or_compile_impl(script, config)

    def _lookup_or_compile_impl(
        self, script: str, config: RuleConfiguration
    ) -> _CacheEntry:
        if not self.config.enabled:
            # the ablation contract is "every compile re-optimizes", so
            # concurrent identical requests are deliberately NOT coalesced —
            # optimizer_invocations must match the serial schedule
            return self._compile(script, config)
        while True:
            with self._lock:
                self._sync_catalog_version_locked()
                key = self._key_for(script, config)
                entry = self.cache.get(key)
                if entry is not None:
                    return entry
                flight = self._in_flight.get(key)
                if flight is None:
                    flight = _InFlightCompile()
                    self._in_flight[key] = flight
                    break
                # a sibling thread is already compiling this key; a serial
                # schedule would have served this lookup from the cache, so
                # the recorded miss is re-classified as a hit
                self.stats.misses -= 1
                self.stats.hits += 1
            flight.done.wait()
            if flight.entry is not None:
                return flight.entry
            # the leader died on a non-deterministic error: retry as leader
        try:
            entry = self._compile(script, config)
        except BaseException:
            with self._lock:
                self._in_flight.pop(key, None)
            flight.done.set()
            raise
        with self._lock:
            self.cache.put(key, entry)
            self._in_flight.pop(key, None)
        flight.entry = entry
        flight.done.set()
        return entry

    def _compile(self, script: str, config: RuleConfiguration) -> _CacheEntry:
        with self._lock:
            self.stats.optimizer_invocations += 1
            view = (
                self.fragment_view(config) if self.config.fragment_enabled else None
            )
        try:
            compiled = self._compiled_script(script)
            # the expensive part — cascades search — runs outside the lock,
            # so distinct keys optimize concurrently; fragment store access
            # re-takes the lock per lookup inside the view
            if self.tracer.enabled:
                with self.tracer.child_span("optimize"):
                    result = self.engine.optimize(compiled, config, fragments=view)
            else:
                result = self.engine.optimize(compiled, config, fragments=view)
        except ScopeError as exc:
            return _CacheEntry(error=_detached(exc))
        with self._lock:
            self.stats.rule_applications += result.applications
        return _CacheEntry(result=result)

    def _compiled_script(self, script: str) -> "CompiledScript":
        """Parse/bind once per distinct script (errors memoized too).

        Active regardless of ``enabled``: the ablation knob measures plan
        memoization, and the seed code already shared one parse across every
        span-probe configuration.  Parse/bind failures are deterministic,
        so the exception is memoized as the table value and re-raised on
        every lookup — without this, the batch planner's pre-exploration
        pass touching a failing script would add a ``script_compilations``
        count a run without MQO never sees.  Runs fully under the service
        lock — parsing is cheap next to optimization, and serializing it
        keeps the memo and ``script_compilations`` race-free.  Capacity is
        enforced at :meth:`checkpoint`, in the same schedule-independent
        ``(last_epoch, key)`` order as the plan cache.
        """
        with self._lock:
            self._sync_catalog_version_locked()
            # binding captures TableDef objects (row counts) into Get
            # operators, so the parse/bind memo is catalog-versioned too
            key = (self._script_digest(script), self.engine.catalog.version)
            compiled = self._scripts.get(key)
            if compiled is None:
                self.stats.script_compilations += 1
                try:
                    compiled = self.engine.compile(script)
                except ScopeError as exc:
                    compiled = _detached(exc)
                self._scripts[key] = compiled
            self._script_epochs[key] = self.cache.epoch
            if isinstance(compiled, ScopeError):
                raise _detached(compiled)
            return compiled
