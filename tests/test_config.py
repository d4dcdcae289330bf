"""The configuration surface is pinned.

A field of ``repro.config`` exists only where two callers outside the
tests and examples need different values of it, where it names a
deployment path, or where tests compare its settings as the reference
paths of the fingerprint contract (the module docstring states the rule).
Everything else is a constant beside its reader, so a new knob is an edit
to the literal below, made and reviewed on purpose.
"""

from __future__ import annotations

import dataclasses

import repro.config

SURFACE = {
    ("WorkloadConfig", "num_templates"),
    ("WorkloadConfig", "num_tables"),
    ("WorkloadConfig", "manual_hint_fraction"),
    ("WorkloadConfig", "shared_subtree_fraction"),
    ("WorkloadConfig", "shared_subtree_pool"),
    ("FlightingConfig", "queue_size"),
    ("FlightingConfig", "total_budget_s"),
    ("FlightingConfig", "filtered_prob"),
    ("FlightingConfig", "failure_prob"),
    ("CacheConfig", "enabled"),
    ("CacheConfig", "fragment_enabled"),
    ("CacheConfig", "mqo_enabled"),
    ("ExecutionConfig", "workers"),
    ("ExecutionConfig", "backend"),
    ("ShardingConfig", "shards"),
    ("ServingConfig", "workers_per_shard"),
    ("ObsConfig", "enabled"),
    ("ObsConfig", "trace_jsonl_path"),
    ("SimulationConfig", "seed"),
    ("SimulationConfig", "workload"),
    ("SimulationConfig", "flighting"),
    ("SimulationConfig", "cache"),
    ("SimulationConfig", "execution"),
    ("SimulationConfig", "sharding"),
    ("SimulationConfig", "serving"),
    ("SimulationConfig", "obs"),
}


def test_config_surface_is_pinned():
    surface = {
        (name, field.name)
        for name in repro.config.__all__
        for field in dataclasses.fields(getattr(repro.config, name))
    }
    assert len(SURFACE) == 26
    assert surface == SURFACE
