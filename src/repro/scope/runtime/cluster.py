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

from repro.config import ClusterConfig

__all__ = ["ClusterNoise"]


class ClusterNoise:
    """Draws the stochastic components of one job execution."""

    def __init__(self, config: ClusterConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng

    def cpu_multipliers(self, vertices: int) -> np.ndarray:
        """Per-vertex CPU-time multipliers (small, affects PNhours)."""
        sigma = self.config.cpu_noise_sigma
        return self.rng.lognormal(mean=0.0, sigma=sigma, size=vertices)

    def io_multiplier(self) -> float:
        """Per-stage I/O-time multiplier — bounded, per the paper's §4.3."""
        sigma = self.config.io_noise_sigma
        if sigma <= 0.0:
            return 1.0
        return float(self.rng.lognormal(mean=0.0, sigma=sigma))

    def stage_latency_multiplier(self) -> float:
        """Per-stage wall-clock multiplier (large, affects latency only)."""
        return float(self.rng.lognormal(mean=0.0, sigma=self.config.latency_noise_sigma))

    def straggler_multiplier(self) -> float:
        """Slowdown of a stage's slowest vertex; 1.0 when no straggler hits."""
        if self.rng.random() >= self.config.straggler_prob:
            return 1.0
        # Pareto tail: occasionally a vertex is many times slower
        return 1.0 + float(self.rng.pareto(self.config.straggler_shape))

    def scheduling_wait(self) -> float:
        """Seconds a stage waits for containers before starting."""
        return float(self.rng.exponential(self.config.scheduling_wait_mean_s))
