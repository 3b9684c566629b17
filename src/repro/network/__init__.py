"""Cycle-accurate flit-level interconnection network simulator."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..settings": ("BACKENDS",),
    ".backend": ("make_simulator",),
    ".cache": ("SweepCache", "point_key"),
    ".parallel": ("PointSpec", "SweepExecutor"),
    ".config": ("SimulationConfig",),
    ".packet": ("Flit", "Packet", "RoutePlan", "make_flits"),
    ".simulator": ("Simulator", "SimulatorStateError", "simulate"),
    ".stats": ("LatencySample", "SimulationResult"),
    ".sweep": ("SweepPoint", "load_sweep", "run_point", "saturation_load"),
    ".traffic": (
        "FbAdversarial",
        "GroupTornado",
        "Hotspot",
        "RandomPermutation",
        "Shift",
        "TrafficPattern",
        "TorusTornado",
        "UniformRandom",
        "WorstCase",
        "make_pattern",
    ),
})
