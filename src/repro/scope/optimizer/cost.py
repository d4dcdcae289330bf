"""The optimizer's cost model.

Costs are expressed in estimated seconds of *total work* (CPU + I/O summed
over all vertices), computed from **estimated** cardinalities only — the
optimizer never sees true row counts.  The gap between this number and the
runtime simulator's measurements is exactly the estimated-cost/latency gap
the paper studies (Fig. 6).

The model is deterministic: all noise lives in the cardinality estimates.
"""

from __future__ import annotations

import math

from repro.errors import OptimizationError
from repro.scope.optimizer.cardinality import GroupStats
from repro.scope.plan import physical
from repro.scope.plan.properties import Distribution, DistributionKind

__all__ = ["CostModel", "IO_BANDWIDTH", "CPU_ROW_COST"]

#: sequential I/O bandwidth per vertex, bytes/second (shared with the
#: runtime simulator, which charges true bytes at the same rate)
IO_BANDWIDTH = 80e6
#: CPU seconds consumed per processed row, scaled per operator class below
#: (PNhours ends up I/O-heavy, as in SCOPE — see paper §4.3)
CPU_ROW_COST = 3.5e-7
#: effective fan-out paid by a broadcast exchange (copies of the data)
_BROADCAST_FANOUT = 16.0
#: per-partition sort spills once its input exceeds this many bytes
_SORT_MEMORY_BYTES = 1 << 30


def op_cpu_seconds(
    op: physical.PhysicalOp,
    out_rows: float,
    child_rows: list[float],
) -> float:
    """CPU seconds of one operator given explicit row counts.

    Shared by the cost model (fed *estimated* rows) and the runtime
    simulator (fed *true* rows): the formulas are identical, only the
    cardinalities differ — mirroring how a real engine's work is a function
    of the data it actually sees.
    """
    cpu = CPU_ROW_COST
    if isinstance(op, physical.Extract):
        return out_rows * cpu
    if isinstance(op, physical.FilterExec):
        return child_rows[0] * cpu * (0.55 if op.fused else 0.4)
    if isinstance(op, physical.ComputeScalar):
        return child_rows[0] * cpu * (0.42 if op.lazy else 0.3)
    if isinstance(op, physical.HashJoin):
        return (child_rows[1] * 2.2 + child_rows[0] * 1.2 + out_rows * 0.2) * cpu
    if isinstance(op, physical.MergeJoin):
        return ((child_rows[0] + child_rows[1]) * 0.9 + out_rows * 0.2) * cpu
    if isinstance(op, physical.NestedLoopJoin):
        return child_rows[0] * child_rows[1] * cpu * 0.02 + out_rows * cpu * 0.2
    if isinstance(op, physical.HashAggregate):
        factor = 1.6 if op.is_partial else 2.0
        if any(spec.distinct for spec in op.aggs):
            factor += 2.5  # per-group distinct sets are expensive
        return child_rows[0] * cpu * factor + out_rows * cpu * 0.3
    if isinstance(op, physical.StreamAggregate):
        factor = 0.7
        if any(spec.distinct for spec in op.aggs):
            factor += 2.5
        return child_rows[0] * cpu * factor
    if isinstance(op, physical.SortExec):
        rows = max(child_rows[0], 2.0)
        return rows * math.log2(rows) * cpu * 1.1
    if isinstance(op, physical.Exchange):
        return child_rows[0] * cpu * 0.3
    if isinstance(op, physical.UnionAllExec):
        return (child_rows[0] + child_rows[1]) * cpu * 0.05
    if isinstance(op, (physical.OutputExec, physical.SuperRootExec)):
        return 0.0
    raise OptimizationError(f"no CPU cost rule for {type(op).__name__}")


class CostModel:
    """Costs physical operator templates over memo group statistics."""

    def local_cost(
        self,
        op: physical.PhysicalOp,
        out: GroupStats,
        children: list[GroupStats],
    ) -> float:
        """Cost of ``op`` itself, excluding children and enforcers."""
        if isinstance(op, physical.Exchange):
            return self.exchange_cost(op.target, children[0])
        cost = op_cpu_seconds(op, out.est_rows, [child.est_rows for child in children])
        if isinstance(op, physical.Extract):
            cost += out.est_bytes / IO_BANDWIDTH
        elif isinstance(op, physical.OutputExec):
            cost += out.est_bytes / IO_BANDWIDTH
        elif isinstance(op, physical.SortExec):
            if children[0].est_bytes > _SORT_MEMORY_BYTES:
                cost += 2.0 * children[0].est_bytes / IO_BANDWIDTH
        return cost

    def exchange_cost(self, target: Distribution, child: GroupStats) -> float:
        """Cost of moving ``child`` into the ``target`` distribution."""
        if target.kind == DistributionKind.BROADCAST:
            return child.est_bytes * _BROADCAST_FANOUT / IO_BANDWIDTH
        if target.kind == DistributionKind.SINGLETON:
            return child.est_bytes / IO_BANDWIDTH + child.est_rows * CPU_ROW_COST * 0.2
        # hash / random repartition: write + read every byte once
        return 2.0 * child.est_bytes / IO_BANDWIDTH + child.est_rows * CPU_ROW_COST * 0.5

    def sort_enforcer_cost(self, child: GroupStats) -> float:
        rows = max(child.est_rows, 2.0)
        cost = rows * math.log2(rows) * CPU_ROW_COST * 1.1
        if child.est_bytes > _SORT_MEMORY_BYTES:
            cost += 2.0 * child.est_bytes / IO_BANDWIDTH
        return cost
