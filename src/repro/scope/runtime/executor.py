"""Execution simulator: stage graph + noise model → JobMetrics.

For each stage the simulator computes deterministic work from **true**
cardinalities (CPU seconds from row counts, I/O seconds from bytes moved),
then applies the :class:`~repro.scope.runtime.cluster.ClusterNoise` model:

* PNhours sums per-vertex CPU (noised) + I/O (deterministic) time;
* latency follows the critical path over stages, where each stage's
  duration is its slowest vertex (noised, possibly a straggler) plus a
  scheduling wait.

Re-running the same plan with a different RNG is an A/A run; the same
template with a hinted plan is an A/B run — both are what the Flighting
Service does.
"""

from __future__ import annotations

import numpy as np

from repro.scope.optimizer.cost import IO_BANDWIDTH, op_cpu_seconds
from repro.scope.plan import physical
from repro.scope.runtime.cluster import ClusterNoise
from repro.scope.runtime.metrics import JobMetrics
from repro.scope.runtime.stages import Stage, StageGraph, build_stage_graph

__all__ = ["RuntimeSimulator", "MAX_TOKENS"]

#: maximum concurrent containers ("tokens") a job may use
MAX_TOKENS = 200
#: bytes of input one vertex should process (drives degree of parallelism)
_PARTITION_TARGET_BYTES = 256 * 1024 * 1024
#: fixed per-vertex scheduling/startup overhead in seconds
_VERTEX_OVERHEAD_S = 0.8


class RuntimeSimulator:
    """Simulates distributed execution of physical plans on one cluster."""

    def stage_graph(self, plan: physical.PhysicalPlanNode) -> StageGraph:
        return build_stage_graph(
            plan, partition_target=_PARTITION_TARGET_BYTES, max_tokens=MAX_TOKENS
        )

    def execute(
        self, plan: physical.PhysicalPlanNode, rng: np.random.Generator
    ) -> JobMetrics:
        """Run ``plan`` once; ``rng`` drives all cloud noise."""
        graph = self.stage_graph(plan)
        noise = ClusterNoise(rng)

        finish_times: dict[int, float] = {}
        total_cpu = 0.0
        total_io = 0.0
        total_read = 0.0
        total_written = 0.0
        pnhours_seconds = 0.0
        memory_per_stage: list[float] = []
        latest_finish = 0.0

        for stage in graph:
            dop = stage.dop
            cpu_seconds = self._stage_cpu_seconds(stage)
            read_bytes, written_bytes = self._stage_io_bytes(stage)
            total_read += read_bytes
            total_written += written_bytes

            io_seconds = (read_bytes + written_bytes) / IO_BANDWIDTH * noise.io_multiplier()
            cpu_per_vertex = cpu_seconds / dop
            io_per_vertex = io_seconds / dop

            cpu_multipliers = noise.cpu_multipliers(dop)
            vertex_cpu = cpu_per_vertex * cpu_multipliers
            total_cpu += float(vertex_cpu.sum())
            total_io += io_seconds
            pnhours_seconds += float(vertex_cpu.sum()) + io_seconds
            pnhours_seconds += dop * _VERTEX_OVERHEAD_S

            # latency: slowest vertex, amplified by stage noise and stragglers
            base_vertex_time = float(vertex_cpu.max()) + io_per_vertex
            duration = (
                base_vertex_time * noise.stage_latency_multiplier() * noise.straggler_multiplier()
                + _VERTEX_OVERHEAD_S
            )
            start = noise.scheduling_wait()
            for producer_id in stage.producer_ids:
                start = max(start, finish_times.get(producer_id, 0.0))
            finish = start + duration
            finish_times[stage.stage_id] = finish
            latest_finish = max(latest_finish, finish)

            memory_per_stage.append(self._stage_memory(stage))

        vertices = graph.total_vertices
        return JobMetrics(
            latency_s=latest_finish,
            pnhours=pnhours_seconds / 3600.0,
            vertices=vertices,
            data_read=total_read,
            data_written=total_written,
            max_memory=max(memory_per_stage, default=0.0),
            avg_memory=float(np.mean(memory_per_stage)) if memory_per_stage else 0.0,
            cpu_seconds=total_cpu,
            io_seconds=total_io,
        )

    # -- per-stage work ------------------------------------------------------

    def _stage_cpu_seconds(self, stage: Stage) -> float:
        cpu = 0.0
        for node in stage.nodes:
            child_rows = [child.true_rows for child in node.children]
            cpu += op_cpu_seconds(node.op, node.true_rows, child_rows)
        return cpu

    #: shuffled data passes the local disk and the network on each side
    _EXCHANGE_IO_FACTOR = 1.8

    def _stage_io_bytes(self, stage: Stage) -> tuple[float, float]:
        read = 0.0
        written = 0.0
        for inp in stage.inputs:
            if inp.broadcast:
                read += inp.true_bytes * stage.dop
            elif inp.kind == "exchange":
                read += inp.true_bytes * self._EXCHANGE_IO_FACTOR
            else:
                read += inp.true_bytes
        written += stage.output_true_bytes
        return read, written

    def _stage_memory(self, stage: Stage) -> float:
        """Peak per-vertex memory: hash builds hold their input."""
        peak = 64e6  # baseline buffer space per vertex
        for node in stage.nodes:
            op = node.op
            if isinstance(op, physical.HashJoin):
                build = node.children[1].true_bytes
                peak = max(peak, build if op.broadcast else build / stage.dop)
            elif isinstance(op, physical.NestedLoopJoin):
                peak = max(peak, node.children[1].true_bytes)
            elif isinstance(op, physical.HashAggregate):
                peak = max(peak, node.true_bytes / stage.dop)
            elif isinstance(op, physical.SortExec):
                peak = max(peak, node.children[0].true_bytes / stage.dop)
        return peak
