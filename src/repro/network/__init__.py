"""Cycle-accurate flit-level interconnection network simulator."""

from ..settings import BACKENDS
from .backend import (
    EquivalenceContract,
    contract_for,
    make_simulator,
)
from .cache import SweepCache, point_key
from .config import SimulationConfig
from .packet import Flit, Packet, RoutePlan, make_flits
from .parallel import PointSpec, SweepExecutor, derive_seed, derive_seeds
from .replication import ReplicatedMetric, ReplicatedResult, replicate
from .simulator import Simulator, SimulatorStateError, simulate
from .stats import LatencySample, SimulationResult
from .sweep import SweepPoint, load_sweep, run_point, saturation_load
from .workloads import (
    ApplicationWorkload,
    CommunicationPhase,
    PhaseResult,
    WorkloadResult,
    run_workload,
    standard_workloads,
)
from .traffic import (
    BitComplement,
    FbAdversarial,
    GroupTornado,
    Hotspot,
    RandomPermutation,
    Shift,
    TrafficPattern,
    TorusTornado,
    Transpose,
    UniformRandom,
    WorstCase,
    make_pattern,
)

__all__ = [
    "BACKENDS",
    "EquivalenceContract",
    "contract_for",
    "make_simulator",
    "SweepCache",
    "point_key",
    "PointSpec",
    "SweepExecutor",
    "derive_seed",
    "derive_seeds",
    "SimulationConfig",
    "Flit",
    "Packet",
    "RoutePlan",
    "make_flits",
    "ReplicatedMetric",
    "ReplicatedResult",
    "replicate",
    "Simulator",
    "SimulatorStateError",
    "simulate",
    "LatencySample",
    "SimulationResult",
    "SweepPoint",
    "load_sweep",
    "run_point",
    "saturation_load",
    "ApplicationWorkload",
    "CommunicationPhase",
    "PhaseResult",
    "WorkloadResult",
    "run_workload",
    "standard_workloads",
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
]
