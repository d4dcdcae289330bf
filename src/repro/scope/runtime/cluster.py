"""The cloud-variance model of the simulated cluster.

This module encodes the paper's central empirical observations about SCOPE
clusters (§5.1):

* **latency is noisy** — per-stage multiplicative noise, exponential
  scheduling waits, and Pareto-tailed stragglers put most jobs above 5 %
  A/A latency variance with a heavy tail (Fig. 3);
* **PNhours is comparatively stable** — CPU time gets only small
  multiplicative noise and I/O time is a deterministic function of bytes
  moved, so jobs dominated by I/O vary little across A/A runs (Fig. 5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClusterNoise"]

#: sigma of the multiplicative lognormal CPU-time noise (small: PNhours
#: stays stable across A/A runs, paper Fig. 5)
_CPU_NOISE_SIGMA = 0.09
#: sigma of the bounded multiplicative I/O-time noise ("the variability of
#: I/O time across A/A runs is bounded", paper §4.3)
_IO_NOISE_SIGMA = 0.025
#: sigma of the per-stage multiplicative latency noise (large: latency is
#: unstable across A/A runs, paper Fig. 3)
_LATENCY_NOISE_SIGMA = 0.25
#: probability that a stage suffers a straggler vertex
_STRAGGLER_PROB = 0.12
#: Pareto shape for straggler slowdown factors (smaller = heavier tail)
_STRAGGLER_SHAPE = 1.6
#: mean of the exponential scheduling wait added per stage, seconds
_SCHEDULING_WAIT_MEAN_S = 4.0


class ClusterNoise:
    """Draws the stochastic components of one job execution."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def cpu_multipliers(self, vertices: int) -> np.ndarray:
        """Per-vertex CPU-time multipliers (small, affects PNhours)."""
        return self.rng.lognormal(mean=0.0, sigma=_CPU_NOISE_SIGMA, size=vertices)

    def io_multiplier(self) -> float:
        """Per-stage I/O-time multiplier — bounded, per the paper's §4.3."""
        return float(self.rng.lognormal(mean=0.0, sigma=_IO_NOISE_SIGMA))

    def stage_latency_multiplier(self) -> float:
        """Per-stage wall-clock multiplier (large, affects latency only)."""
        return float(self.rng.lognormal(mean=0.0, sigma=_LATENCY_NOISE_SIGMA))

    def straggler_multiplier(self) -> float:
        """Slowdown of a stage's slowest vertex; 1.0 when no straggler hits."""
        if self.rng.random() >= _STRAGGLER_PROB:
            return 1.0
        # Pareto tail: occasionally a vertex is many times slower
        return 1.0 + float(self.rng.pareto(_STRAGGLER_SHAPE))

    def scheduling_wait(self) -> float:
        """Seconds a stage waits for containers before starting."""
        return float(self.rng.exponential(_SCHEDULING_WAIT_MEAN_S))
