"""Layer spans recorded from outside the program, and the metrics read off them.

``Tracer.install`` replaces the public functions at each layer boundary
with timing wrappers — at class level for methods, and at the *importing*
module's name for functions ``engine.py``/``mqo.py``/``pipeline.py`` import
by name.  Nothing under ``src/`` is edited and the program's own
``repro.obs`` tracer is not involved; it is installed only inside the one
forked replay child that is traced, so untraced replays never see it.

A :class:`Span` is ``(id, parent, name, thread, start, end, trace, counts)``.
The parent is the span open on the same thread when this one started (a
per-thread stack); the first span of a pool thread's work item takes the
``map_jobs`` span that fanned it out as its parent, which is the only
cross-thread edge.  ``trace`` names the day, window or job the work was
for.  Spans stay in memory and are written out when the run ends.

Self time of a span is its duration minus the durations of its children on
the same thread; summed per name it says where a thread's time went
without counting anything twice.
"""

from __future__ import annotations

import gc
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from importlib import import_module
from pathlib import Path
from typing import NamedTuple

__all__ = ["Span", "Tracer", "write_spans", "read_spans", "self_times", "per_layer"]

_clock = time.perf_counter


class Span(NamedTuple):
    id: int
    #: the span open on the same thread when this one started, or the
    #: ``parallel.map_jobs`` span that fanned this pool-thread item out
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    #: the day, window or job the work was for
    trace: str | None
    #: per-site result counts (jobs generated, rule applications, ...)
    counts: tuple | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _job_id(_self, job, *args, **kwargs):
    return job.job_id


#: (module, class or None, attribute, span name, trace id of the call or
#: None to inherit, counts of the result or None).  ``name`` may be a
#: callable of the call's arguments.  Module-level entries patch the name
#: in the module that *uses* the function.
_SITES = [
    ("repro.workload.generator", "Workload", "jobs_for_day", "workload.jobs_for_day",
     lambda _s, day: f"day:{day}", lambda r: (len(r),)),
    ("repro.scope.engine", "ScopeEngine", "compile", "scope.engine.compile", None, None),
    ("repro.scope.engine", None, "parse_script", "scope.language.parse", None, None),
    ("repro.scope.language.binder", "Binder", "bind", "scope.language.bind", None, None),
    ("repro.scope.compile", "Compiler", "compile", "scope.compile.compile", None, None),
    ("repro.scope.engine", "ScopeEngine", "optimize", "scope.optimizer.engine.optimize",
     None, lambda r: (r.applications,)),
    ("repro.scope.engine", "ScopeEngine", "execute", "scope.runtime.execute", None, None),
    ("repro.scope.optimizer.engine", None, "fragment_profile",
     "scope.optimizer.fragments.profile", None, None),
    ("repro.scope.optimizer.mqo", None, "fragment_profile",
     "scope.optimizer.fragments.profile", None, None),
    ("repro.scope.optimizer.engine", "Optimizer", "explore_fragment_entry",
     "scope.optimizer.engine.explore_fragment", None, lambda r: (r.applications,)),
    ("repro.scope.cache", "CompilationService", "preexplore_batch",
     "scope.optimizer.mqo.preexplore", None, lambda r: (r,)),
    ("repro.sharding", "ShardedCompilationService", "preexplore_batch",
     "scope.optimizer.mqo.preexplore", None, lambda r: (r,)),
    ("repro.scope.cache", "CompilationService", "compile_job", "scope.cache.compile_job",
     _job_id, None),
    ("repro.scope.cache", "CompilationService", "compile_script",
     "scope.cache.compile_script", None, None),
    ("repro.scope.cache", "CompilationService", "compile_entry",
     "scope.cache.compile_entry", None, None),
    ("repro.scope.cache", "CompilationService", "compile_many", "scope.cache.compile_many",
     None, lambda r: (len(r),)),
    ("repro.scope.cache", "CompilationService", "checkpoint", "scope.cache.checkpoint",
     None, None),
    ("repro.core.spans", "SpanComputer", "span_for_template",
     "core.spans.span_for_template", None, None),
    ("repro.core.pipeline", "QOAdvisorPipeline", "run_stage",
     lambda _s, stage, ctx: f"core.pipeline.{stage.name}",
     lambda _s, stage, ctx: f"day:{ctx.day}", None),
    ("repro.core.features", "FeatureGenerationTask", "run", "core.features.run",
     None, lambda r: (len(r),)),
    ("repro.core.recommend", "RecommendationTask", "run", "core.recommend.run",
     None, lambda r: (len(r),)),
    ("repro.core.recompile", "RecompilationTask", "run", "core.recompile.run",
     None, lambda r: (len(r),)),
    ("repro.core.pipeline", None, "flight_candidates", "core.recompile.flight_candidates",
     None, lambda r: (len(r),)),
    ("repro.core.validate", "ValidationTask", "run", "core.validate.run",
     None, lambda r: (len(r),)),
    ("repro.core.hintgen", "HintGenerationTask", "run", "core.hintgen.run", None, None),
    ("repro.policies.bandit", "BanditSteeringPolicy", "rank", "policies.rank", None, None),
    ("repro.policies.bandit", "BanditSteeringPolicy", "observe", "policies.observe",
     None, None),
    ("repro.policies.base", "LearnedSteeringPolicy", "rank", "policies.rank", None, None),
    ("repro.policies.base", "LearnedSteeringPolicy", "observe", "policies.observe",
     None, None),
    # ``QOAdvisor.bootstrap`` imports it at call time, so the defining
    # module's name is the one it reads
    ("repro.core.recommend", None, "train_off_policy",
     "core.recommend.train_off_policy", None, lambda r: (r,)),
    ("repro.flighting.service", "FlightingService", "run_queue", "flighting.run_queue",
     None, lambda r: (len(r), sum(1 for f in r if f.status.value == "success"))),
    ("repro.core.validate", "ValidationModel", "fit", "core.validate.fit", None, None),
    ("repro.sis.service", "SISService", "upload", "sis.upload",
     None, lambda r: (len(r.entries),)),
    ("repro.sharding", "ShardRouter", "shard_for", "sharding.shard_for", None, None),
    ("repro.serving.server", "QOAdvisorServer", "submit", "serving.server.submit",
     _job_id, None),
    ("repro.serving.server", "QOAdvisorServer", "drain", "serving.server.drain",
     None, None),
    ("repro.serving.server", "QOAdvisorServer", "run_maintenance",
     "serving.server.run_maintenance", lambda _s, day: f"window:{day}", None),
    ("repro.serving.server", "QOAdvisorServer", "recover", "serving.server.recover",
     lambda _s: "recover", None),
    ("repro.serving.maintenance", "MaintenanceScheduler", "run_window",
     "serving.maintenance.run_window", None, lambda r: (len(r.production_runs),)),
    ("repro.serving.journal", "TicketJournal", "append", "serving.journal.append",
     None, None),
    ("repro.serving.journal", "TicketJournal", "records", "serving.journal.records",
     None, lambda r: (len(r),)),
]


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.queue_waits: list[float] = []
        self.gc_pauses: list[tuple[int, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._put_at: dict[int, float] = {}
        self._gc_started = 0.0
        #: thread ident → name, noted when a thread records its first span
        #: (lane threads are gone by the time the spans are exported)
        self._threads: dict[int, str] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            self._threads[threading.get_ident()] = threading.current_thread().name
            # the trace a thread's parentless spans belong to; set by the
            # queue hand-off (lanes) and by every span that names its trace
            self._local.trace = None
            self._local.adopt = None
            return self._local.stack

    def open(self, name: str, trace: str | None = None) -> list:
        stack = self._stack()
        local = self._local
        if stack:
            parent = stack[-1][0]
            if trace is None:
                trace = stack[-1][4]
        else:
            parent = local.adopt
            if trace is None:
                trace = local.trace
        if trace is not None:
            local.trace = trace
        frame = [next(self._ids), parent, name, _clock(), trace]
        stack.append(frame)
        return frame

    def close(self, frame: list, counts: tuple | None = None) -> None:
        end = _clock()
        self._local.stack.pop()
        span_id, parent, name, start, trace = frame
        self.spans.append(
            Span(span_id, parent, name, threading.get_ident(), start, end, trace, counts)
        )

    def _wrap(self, fn, name, trace_of, counts_of):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(
                name(*args, **kwargs) if callable(name) else name,
                trace_of(*args, **kwargs) if trace_of else None,
            )
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame, counts_of(result) if counts_of else None)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- the three boundaries a plain wrapper cannot describe -----------------

    def _wrap_map_jobs(self, fn):
        """``ThreadedExecutor.map_jobs``: one span for the fan-out, one per
        item; an item that starts a pool thread's stack adopts the fan-out
        span as its parent and inherits its trace."""
        tracer = self

        def map_jobs(executor, item_fn, items):
            frame = tracer.open("parallel.map_jobs")

            def item(value):
                tracer._stack()
                local = tracer._local
                local.adopt, local.trace = frame[0], frame[4]
                inner = tracer.open("parallel.item")
                try:
                    return item_fn(value)
                finally:
                    tracer.close(inner)
                    local.adopt = None

            try:
                results = fn(executor, item, items)
            except BaseException:
                tracer.close(frame)
                raise
            tracer.close(frame, (len(results), executor.workers))
            return results

        return map_jobs

    def _wrap_put(self, fn):
        tracer = self

        def put(queue, ticket, *args, **kwargs):
            frame = tracer.open("serving.queues.put")
            try:
                # stamped before the ticket becomes visible to a lane
                tracer._put_at[ticket.seq] = _clock()
                return fn(queue, ticket, *args, **kwargs)
            finally:
                tracer.close(frame)

        return put

    def _wrap_get(self, fn):
        """``ShardQueue.get``: only a get that returns a ticket is a span
        (idle polls are not work); the ticket's job becomes the trace of
        whatever the lane thread does next."""
        tracer = self

        def get(queue, *args, **kwargs):
            started = _clock()
            ticket = fn(queue, *args, **kwargs)
            if ticket is not None:
                now = _clock()
                put_at = tracer._put_at.pop(ticket.seq, None)
                if put_at is not None:
                    tracer.queue_waits.append(now - put_at)
                frame = tracer.open("serving.queues.get", ticket.job.job_id)
                frame[3] = started
                tracer.close(frame, (queue.max_depth,))
            return ticket

        return get

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_pauses.append((info["generation"], _clock() - self._gc_started))

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def install(cls) -> "Tracer":
        """Patch every site and hook the collector; call in the replay child."""
        tracer = cls()
        for module_name, class_name, attr, name, trace_of, counts_of in _SITES:
            owner = import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            setattr(owner, attr, tracer._wrap(getattr(owner, attr), name, trace_of, counts_of))
        from repro.parallel import ThreadedExecutor
        from repro.serving.queues import ShardQueue

        ThreadedExecutor.map_jobs = tracer._wrap_map_jobs(ThreadedExecutor.map_jobs)
        ShardQueue.put = tracer._wrap_put(ShardQueue.put)
        ShardQueue.get = tracer._wrap_get(ShardQueue.get)
        gc.callbacks.append(tracer._on_gc)
        return tracer

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """What one plain wrapper adds to a call, timed on a throwaway tracer."""

        def nothing() -> None:
            return None

        wrapped = Tracer()._wrap(nothing, "calibration", None, None)
        started = _clock()
        for _ in range(calls):
            nothing()
        bare = _clock() - started
        started = _clock()
        for _ in range(calls):
            wrapped()
        return max(0.0, (_clock() - started - bare) / calls)

    def export(self) -> dict:
        # thread idents become small numbers, in order of first appearance
        order: dict[int, int] = {}
        spans = [
            span._replace(thread=order.setdefault(span.thread, len(order)))
            for span in self.spans
        ]
        return {
            "spans": spans,
            "threads": {index: self._threads[ident] for ident, index in order.items()},
            "queue_waits": self.queue_waits,
            "gc_pauses": self.gc_pauses,
            "span_cost_s": self.span_cost_s(),
        }


# -- the span file -------------------------------------------------------------

def _merged(record: dict) -> tuple[list[Span], dict[int, str]]:
    """The live replay's spans and thread names plus, for "serve", the
    recovery child's (ids and thread numbers shifted past the live ones so
    the file stays one forest)."""
    spans = list(record["trace"]["spans"])
    threads = dict(record["trace"]["threads"])
    recovery = record.get("recovery")
    if recovery is not None:
        id_shift = max((span.id for span in spans), default=0)
        thread_shift = len(threads)
        for span in recovery["trace"]["spans"]:
            spans.append(
                span._replace(
                    id=span.id + id_shift,
                    parent=span.parent + id_shift if span.parent else None,
                    thread=span.thread + thread_shift,
                )
            )
        for index, name in recovery["trace"]["threads"].items():
            threads[index + thread_shift] = f"recovery:{name}"
    return spans, threads


def write_spans(path: Path, record: dict) -> None:
    """One JSON object per line: a header, then every span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    spans, threads = _merged(record)
    with path.open("w", encoding="utf-8") as out:
        header = {
            "fields": Span._fields, "threads": threads, "clock": "perf_counter seconds"
        }
        out.write(json.dumps(header) + "\n")
        for span in spans:
            out.write(json.dumps(span._asdict()) + "\n")


def read_spans(path: Path) -> tuple[dict, list[Span]]:
    """The header and the spans of a file :func:`write_spans` wrote."""
    with path.open(encoding="utf-8") as lines:
        header = json.loads(next(lines))
        return header, [Span(**json.loads(line)) for line in lines]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id → duration minus the durations of its same-thread children."""
    own = {span.id: span.seconds for span in spans}
    thread_of = {span.id: span.thread for span in spans}
    for span in spans:
        if span.parent is not None and thread_of[span.parent] == span.thread:
            own[span.parent] -= span.seconds
    return own


# -- per-layer metrics -----------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    spec, plain: dict, traced: dict, *, twin: dict | None, py_calls: int, setup_s: float
) -> dict[str, float]:
    """Every per-layer metric of metrics.PER_LAYER, from one traced replay.

    ``plain`` is ``run.summarise`` of the untraced replays of the same run:
    the trace overhead, the serving latencies and the twins' comparisons
    are read against it, never against traced timings.  A layer a workload
    does not reach reports 0.  Rows cover the live section; the recovery
    child of "serve" feeds only ``recover_ms`` and ``journal.read_ms``
    (it re-runs the same compiles, which would double every other row).
    """
    spans = traced["trace"]["spans"]
    threads = traced["trace"]["threads"]
    recovered = traced["recovery"]["trace"]["spans"] if "recovery" in traced else []
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_ms: dict[str, float] = defaultdict(float)
    total_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, list[float]] = {}
    for s in spans:
        name = s.name
        self_ms[name] += own[s.id] * 1e3
        total_ms[name] += s.seconds * 1e3
        calls[name] += 1
        if s.counts:
            sums = counts.setdefault(name, [0.0] * len(s.counts))
            for position, value in enumerate(s.counts):
                sums[position] += value

    def count(name: str, position: int = 0) -> float:
        return counts[name][position] if name in counts else 0.0

    def ancestor(span: Span, name: str) -> int | None:
        """Id of the nearest enclosing span called ``name`` (crossing fan-outs)."""
        parent = span.parent
        while parent is not None:
            if by_id[parent].name == name:
                return parent
            parent = by_id[parent].parent
        return None

    stats = traced["stats"]
    lookups = stats["hits"] + stats["misses"]
    section_s = sum(u[1] for u in traced["units"])
    optimizer_ms = (
        self_ms["scope.optimizer.engine.optimize"]
        + self_ms["scope.optimizer.engine.explore_fragment"]
    )
    probed_templates = [
        ancestor(s, "core.spans.span_for_template")
        for s in spans
        if s.name == "scope.cache.compile_script"
    ]
    probe_compiles = [template for template in probed_templates if template is not None]
    lane = [s for s in spans if threads[s.thread].startswith("qoserve")]
    submits = [s for s in spans if s.name == "serving.server.submit"]
    fanouts = [s for s in spans if s.name == "parallel.map_jobs"]
    busy_by_fanout: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.name == "parallel.item":
            busy_by_fanout[s.parent] += s.seconds
    pauses = traced["trace"]["gc_pauses"]
    pause_s = sum(p for _, p in pauses)
    shard_work = traced["shard_invocations"]
    day_units = [
        min_wall for name, min_wall in plain["units"].items() if name.startswith("day:")
    ]

    metrics = {
        "workload.jobs_for_day_ms": self_ms["workload.jobs_for_day"],
        "workload.jobs": count("workload.jobs_for_day"),
        "scope.language.parse_bind_ms": self_ms["scope.language.parse"]
        + self_ms["scope.language.bind"],
        "scope.language.scripts": calls["scope.engine.compile"],
        "scope.compile.compile_ms": self_ms["scope.compile.compile"],
        "scope.optimizer.fragments.digest_ms": self_ms["scope.optimizer.fragments.profile"],
        "scope.optimizer.engine.optimize_ms": self_ms["scope.optimizer.engine.optimize"],
        "scope.optimizer.engine.invocations": calls["scope.optimizer.engine.optimize"],
        "scope.optimizer.engine.rule_applications": stats["rule_applications"],
        "scope.optimizer.engine.us_per_rule_application": _ratio(
            optimizer_ms * 1e3, stats["rule_applications"]
        ),
        "scope.optimizer.engine.explore_fragment_ms": self_ms[
            "scope.optimizer.engine.explore_fragment"
        ],
        "scope.optimizer.mqo.preexplore_ms": self_ms["scope.optimizer.mqo.preexplore"],
        "scope.optimizer.mqo.preexplored": stats["mqo_preexplored"],
        "scope.cache.service_self_ms": sum(
            self_ms[f"scope.cache.{entry}"]
            for entry in ("compile_job", "compile_script", "compile_entry", "compile_many")
        ),
        "scope.cache.plan_hit_rate": _ratio(stats["hits"], lookups),
        "scope.cache.fragment_hit_rate": _ratio(
            stats["fragment_hits"], stats["fragment_hits"] + stats["fragment_misses"]
        ),
        "scope.cache.winner_hit_rate": _ratio(
            stats["winner_hits"], stats["winner_hits"] + stats["winner_misses"]
        ),
        "scope.cache.checkpoint_ms": self_ms["scope.cache.checkpoint"],
        "scope.cache.evictions": stats["evictions"],
        "scope.cache.invalidations": stats["invalidations"],
        "scope.runtime.execute_ms": self_ms["scope.runtime.execute"],
        "scope.runtime.executions": calls["scope.runtime.execute"],
        "core.spans.span_ms": self_ms["core.spans.span_for_template"],
        "core.spans.probe_compiles": len(probe_compiles),
        "core.spans.templates": len(set(probe_compiles)),
        "core.pipeline.day_p50_ms": statistics.median(day_units) * 1e3 if day_units else 0.0,
        "policies.rank_us_per_call": _ratio(
            self_ms["policies.rank"] * 1e3, calls["policies.rank"]
        ),
        "policies.observe_ms": self_ms["policies.observe"],
        "core.recommend.train_off_policy_ms": self_ms["core.recommend.train_off_policy"],
        "core.recompile.flips_evaluated": count("core.recompile.run"),
        "core.recompile.kept_ratio": _ratio(
            count("core.recompile.flight_candidates"), count("core.recompile.run")
        ),
        "flighting.run_queue_ms": self_ms["flighting.run_queue"],
        "flighting.flights": count("flighting.run_queue"),
        "flighting.success_ratio": _ratio(
            count("flighting.run_queue", 1), count("flighting.run_queue")
        ),
        "core.validate.fit_ms": self_ms["core.validate.fit"],
        "core.validate.accept_ratio": _ratio(
            count("core.validate.run"), count("flighting.run_queue", 1)
        ) if calls["core.validate.run"] else 0.0,
        "sis.upload_ms": self_ms["sis.upload"],
        "sis.hints_published": count("sis.upload"),
        "parallel.map_jobs_ms": total_ms["parallel.map_jobs"],
        "parallel.item_busy_ms": total_ms["parallel.item"],
        "parallel.fanout_wait_ms": sum(
            s.seconds - busy_by_fanout[s.id] / s.counts[1] for s in fanouts
        ) * 1e3,
        "sharding.shard_for_us_per_call": _ratio(
            self_ms["sharding.shard_for"] * 1e3, calls["sharding.shard_for"]
        ),
        "sharding.imbalance": _ratio(
            max(shard_work), sum(shard_work) / len(shard_work)
        ) if len(shard_work) > 1 else 0.0,
        "sharding.fleet_vs_serial_ratio": _ratio(
            plain["wall_s"], sum(u[1] for u in twin["units"])
        ) if spec.twin_role == "reference" else 0.0,
        "serving.server.submit_us_per_job": _ratio(
            sum(s.seconds for s in submits) * 1e6, len(submits)
        ),
        "serving.server.steer_ms": sum(
            s.seconds for s in lane if s.name == "scope.cache.compile_job"
        ) * 1e3,
        "serving.server.execute_ms": sum(
            s.seconds for s in lane if s.name == "scope.runtime.execute"
        ) * 1e3,
        "serving.server.drain_wait_ms": self_ms["serving.server.drain"],
        "serving.server.recover_ms": sum(
            s.seconds for s in recovered if s.name == "serving.server.recover"
        ) * 1e3,
        "serving.server.recover_vs_live_ratio": _ratio(
            plain.get("recover_s", 0.0), plain["wall_s"]
        ),
        "serving.server.steer_p50_ms": plain.get("steer_p50_ms", 0.0),
        "serving.server.steer_p95_ms": plain.get("steer_p95_ms", 0.0),
        "serving.server.jobs_per_s": plain.get("serve_jobs_per_s", 0.0),
        "serving.queues.wait_p50_ms": statistics.median(traced["trace"]["queue_waits"]) * 1e3
        if traced["trace"]["queue_waits"] else 0.0,
        "serving.queues.max_depth": traced.get("max_queue_depth", 0),
        "serving.maintenance.run_window_ms": self_ms["serving.maintenance.run_window"],
        "serving.maintenance.jobs_per_window": _ratio(
            count("serving.maintenance.run_window"), calls["serving.maintenance.run_window"]
        ),
        "serving.maintenance.window_p50_ms": plain.get("window_p50_ms", 0.0),
        "serving.journal.append_us_per_record": _ratio(
            self_ms["serving.journal.append"] * 1e3, calls["serving.journal.append"]
        ),
        "serving.journal.records": traced.get("journal_records", 0),
        "serving.journal.bytes": traced.get("journal_bytes", 0),
        "serving.journal.read_ms": sum(
            s.seconds for s in recovered if s.name == "serving.journal.records"
        ) * 1e3,
        "serving.journal.recover_records_per_s": plain.get("recover_records_per_s", 0.0),
        "obs.tax_pct": 100.0 * _ratio(
            plain["wall_s"] - sum(u[1] for u in twin["units"]),
            sum(u[1] for u in twin["units"]),
        ) if spec.twin_role == "obs_off" else 0.0,
        "obs.spans": traced["obs_spans"],
        "gc.pause_ms": pause_s * 1e3,
        "gc.pause_share": _ratio(pause_s, section_s),
        "gc.gen2_collections": sum(1 for generation, _ in pauses if generation == 2),
        # median over units of traced/untraced: a slow phase of the box that
        # falls on a few units of either replay does not read as overhead
        "trace.overhead_pct": 100.0 * (
            statistics.median(
                wall / plain["units"][name] for name, wall, _ in traced["units"]
            ) - 1.0
        ),
        # what the wrappers themselves cost: spans x calibrated cost of one.
        # Steady where overhead_pct is not (one replay pair: +-10 % of box noise)
        "trace.wrapper_cost_pct": 100.0 * _ratio(
            len(spans) * traced["trace"]["span_cost_s"], section_s
        ),
        "trace.spans": len(spans) + len(recovered),
        "proc.cpu_s": plain["cpu_s"],
        "proc.py_calls": py_calls,
        "proc.setup_s": setup_s,
    }
    for stage in ("production", "features", "recommend", "recompile", "flight",
                  "validate", "hintgen"):
        # stage rows are the stage's whole wall (what a day is made of);
        # every other *_ms row is self time (which layer the time is in)
        metrics[f"core.pipeline.{stage}_ms"] = total_ms[f"core.pipeline.{stage}"]
    return metrics
