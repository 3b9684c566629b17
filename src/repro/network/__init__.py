"""Cycle-accurate flit-level interconnection network simulator."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "..settings": ("BACKENDS",),
    ".backend": ("EquivalenceContract", "contract_for", "make_simulator"),
    ".cache": ("SweepCache", "point_key"),
    ".parallel": ("PointSpec", "SweepExecutor", "derive_seed", "derive_seeds"),
    ".config": ("SimulationConfig",),
    ".packet": ("Flit", "Packet", "RoutePlan", "make_flits"),
    ".replication": ("ReplicatedMetric", "ReplicatedResult", "replicate"),
    ".simulator": ("Simulator", "SimulatorStateError", "simulate"),
    ".stats": ("LatencySample", "SimulationResult"),
    ".sweep": ("SweepPoint", "load_sweep", "run_point", "saturation_load"),
    ".workloads": (
        "ApplicationWorkload",
        "CommunicationPhase",
        "PhaseResult",
        "WorkloadResult",
        "run_workload",
        "standard_workloads",
    ),
    ".traffic": (
        "BitComplement",
        "FbAdversarial",
        "GroupTornado",
        "Hotspot",
        "RandomPermutation",
        "Shift",
        "TrafficPattern",
        "TorusTornado",
        "Transpose",
        "UniformRandom",
        "WorstCase",
        "make_pattern",
    ),
})
