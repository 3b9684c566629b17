"""Shared fixtures for the sweep-service tests: tiny, fast manifests."""

import pytest

from repro.network.config import SimulationConfig
from repro.service.manifest import SweepManifest


@pytest.fixture()
def tiny_spec() -> dict:
    """The spec of the three-group dragonfly ``(p, a, h) = (1, 2, 1)``."""
    return {"family": "Dragonfly", "params": {"p": 1, "a": 2, "h": 1, "num_groups": 3}}


@pytest.fixture()
def tiny_config() -> SimulationConfig:
    return SimulationConfig(
        load=0.1,
        warmup_cycles=50,
        measure_cycles=100,
        drain_max_cycles=2000,
    )


@pytest.fixture()
def tiny_manifest(tiny_spec, tiny_config) -> SweepManifest:
    """Six fast units: 2 routings x 1 pattern x 3 loads x 1 seed."""
    return SweepManifest(
        figure="figtest",
        topology=tiny_spec,
        routings=("MIN", "VAL"),
        patterns=("uniform_random",),
        loads=(0.1, 0.2, 0.3),
        seeds=(1,),
        config=tiny_config,
    )
