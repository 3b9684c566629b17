"""Load sweeps and saturation-throughput search.

The paper's latency/throughput figures are load sweeps: run the simulator
at a series of offered loads and plot average latency (Figures 8, 10, 11,
14, 16) or read off the load where latency diverges (throughput).  This
module provides the sweep driver and a saturation-throughput bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..routing.base import RoutingAlgorithm
from ..settings import Settings
from ..topology.dragonfly import Dragonfly
from .backend import make_simulator
from .config import SimulationConfig
from .parallel import PointSpec, SweepExecutor
from .stats import SimulationResult
from .traffic import make_pattern


@dataclass
class SweepPoint:
    """One (offered load, result) pair of a sweep."""

    load: float
    result: SimulationResult

    @property
    def latency(self) -> float:
        """Average latency, infinite when the run saturated."""
        if self.result.saturated:
            return math.inf
        return self.result.avg_latency


def run_point(
    topology: Dragonfly,
    routing: RoutingAlgorithm,
    pattern_name: str,
    config: SimulationConfig,
    settings: Optional[Settings] = None,
) -> SimulationResult:
    """One simulation run with a freshly seeded pattern.

    The engine is built from ``settings`` (default
    ``Settings.from_env()``); the sweep runner passes the settings it
    resolved, in-process and in its workers alike.
    """
    pattern = make_pattern(pattern_name, topology, seed=config.seed + 17)
    return make_simulator(
        topology, routing, pattern, config, settings=settings
    ).run()


def load_sweep(
    topology: Dragonfly,
    routing_name: str,
    pattern_name: str,
    loads: Sequence[float],
    config: SimulationConfig,
    executor: Optional[SweepExecutor] = None,
) -> List[SweepPoint]:
    """Latency-vs-offered-load curve for one routing algorithm.

    Each point gets a fresh simulator and routing instance so runs are
    independent and reproducible.  ``executor`` selects parallelism and
    result caching (:mod:`repro.network.parallel`); the default runs
    serially in-process.  Points are returned in ``loads`` order and are
    bit-identical whichever executor computes them.
    """
    executor = executor or SweepExecutor()
    specs = [
        PointSpec(routing_name, pattern_name, config.with_load(load))
        for load in loads
    ]
    results = executor.run_points(topology, specs)
    return [
        SweepPoint(load=load, result=result)
        for load, result in zip(loads, results)
    ]


def saturation_load(
    topology: Dragonfly,
    routing_name: str,
    pattern_name: str,
    config: SimulationConfig,
    low: float = 0.02,
    high: float = 1.0,
    tolerance: float = 0.02,
    latency_limit: Optional[float] = None,
    accepted_fraction: float = 0.97,
    executor: Optional[SweepExecutor] = None,
) -> float:
    """Bisection estimate of saturation throughput.

    A load is "beyond saturation" when the run fails to drain its tagged
    packets, when accepted load falls below ``accepted_fraction`` of the
    offered load (the robust criterion -- beyond saturation the network
    delivers its capacity regardless of the measurement window), or when
    ``latency_limit`` is given and average latency exceeds it.  Returns
    the highest load found below saturation.

    Stable/unstable probes are memoised per load within the call, so no
    load is ever simulated twice, and routed through ``executor`` so an
    attached :class:`~repro.network.parallel.SweepCache` lets repeated
    bisections (tighter tolerance, different brackets, figure re-runs)
    reuse every previously probed load.  The bracket must satisfy
    ``0 < low < high <= 1`` and ``tolerance`` must be positive, or the
    bisection could never close.
    """
    if not 0 < low < high <= 1:
        raise ValueError(f"need 0 < low < high <= 1, got low={low}, high={high}")
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if not 0 < accepted_fraction <= 1:
        raise ValueError(
            f"accepted_fraction must be in (0, 1], got {accepted_fraction}"
        )
    executor = executor or SweepExecutor()
    probes: Dict[float, bool] = {}

    def is_stable(load: float) -> bool:
        if load in probes:
            return probes[load]
        result = executor.run_point(
            topology, routing_name, pattern_name, config.with_load(load)
        )
        stable = True
        if result.saturated:
            stable = False
        elif result.accepted_load < accepted_fraction * load:
            stable = False
        elif latency_limit is not None and result.avg_latency > latency_limit:
            stable = False
        probes[load] = stable
        return stable

    if not is_stable(low):
        return 0.0
    if is_stable(high):
        return high
    while high - low > tolerance:
        mid = (low + high) / 2
        if is_stable(mid):
            low = mid
        else:
            high = mid
    return low
