"""Network power model (extension of Section 5).

The paper closes its cost section with "the reduction of network cost in
the dragonfly also translates to reduction of power as shown in prior
work".  This module makes that claim checkable: it reuses the cost
models' cable enumerators and prices links in watts instead of dollars,
using the energy-per-bit figures of Table 1:

* active optical cable:  60 pJ/bit (Intel Connects Cables),
* electrical cable:       2 pJ/bit (repeatered copper),
* backplane trace:        1 pJ/bit,
* router:                40 pJ/bit of pin bandwidth (high-radix router
  budget in the YARC class).

Power per link = energy/bit x bandwidth (pJ/bit x Gb/s = mW).  The same
structure that makes the dragonfly cheap -- few long cables, with the
long ones optical -- drives its power: optical transceivers burn ~30x
the energy per bit of short copper, so minimising their count matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .cables import ELECTRICAL_CABLE, INTEL_CONNECTS, is_optical
from .model import ALL_COST_MODELS, CostConfig, TopologyCost


@dataclass(frozen=True)
class PowerConfig:
    """Energy-per-bit figures (pJ/bit)."""

    optical_pj_per_bit: float = INTEL_CONNECTS.energy_per_bit_pj  # 60
    electrical_pj_per_bit: float = ELECTRICAL_CABLE.energy_per_bit_pj  # 2
    backplane_pj_per_bit: float = 1.0
    router_pj_per_bit: float = 40.0
    #: Cable length above which the optical technology (and its power)
    #: is used; matches the cost model's methodology.
    crossover_m: float = 8.0

    def __post_init__(self) -> None:
        values = (
            self.optical_pj_per_bit,
            self.electrical_pj_per_bit,
            self.backplane_pj_per_bit,
            self.router_pj_per_bit,
        )
        if any(value < 0 for value in values):
            raise ValueError("energies must be >= 0")


@dataclass
class PowerBreakdown:
    """Watts by component for one topology instance."""

    topology: str
    num_terminals: int
    router_watts: float = 0.0
    backplane_watts: float = 0.0
    electrical_cable_watts: float = 0.0
    optical_cable_watts: float = 0.0

    @property
    def cable_watts(self) -> float:
        return (
            self.backplane_watts
            + self.electrical_cable_watts
            + self.optical_cable_watts
        )

    @property
    def total_watts(self) -> float:
        return self.router_watts + self.cable_watts

    @property
    def watts_per_node(self) -> float:
        return self.total_watts / self.num_terminals

    def summary(self) -> str:
        n = self.num_terminals
        return (
            f"{self.topology:20s} N={n:6d} {self.watts_per_node:7.2f} W/node "
            f"(router {self.router_watts / n:5.2f}, backplane "
            f"{self.backplane_watts / n:5.2f}, electrical "
            f"{self.electrical_cable_watts / n:5.2f}, optical "
            f"{self.optical_cable_watts / n:5.2f})"
        )


def _pj_gbps_to_watts(pj_per_bit: float, gbps: float) -> float:
    # pJ/bit * Gbit/s = 1e-12 J * 1e9 /s = mW; both directions of the
    # bidirectional link are active.
    return pj_per_bit * gbps * 1e-3 * 2


def power_breakdown(
    model: TopologyCost,
    power: Optional[PowerConfig] = None,
) -> PowerBreakdown:
    """Watts consumed by a topology described by a cost model."""
    power = power or PowerConfig()
    out = PowerBreakdown(topology=model.name, num_terminals=model.num_terminals)
    out.router_watts = (
        model.router_pin_gbps() * power.router_pj_per_bit * 1e-3
    )
    for run in model.cable_runs():
        if run.count == 0:
            continue
        if run.intra_cabinet:
            pj = power.backplane_pj_per_bit
            out.backplane_watts += _pj_gbps_to_watts(pj, run.gbps) * run.count
        elif not is_optical(run.length_m, power.crossover_m):
            pj = power.electrical_pj_per_bit
            out.electrical_cable_watts += (
                _pj_gbps_to_watts(pj, run.gbps) * run.count
            )
        else:
            pj = power.optical_pj_per_bit
            out.optical_cable_watts += (
                _pj_gbps_to_watts(pj, run.gbps) * run.count
            )
    return out


def power_comparison(
    sizes: Sequence[int],
    cost_config: Optional[CostConfig] = None,
    power_config: Optional[PowerConfig] = None,
) -> Dict[str, List[PowerBreakdown]]:
    """W/node for all four topologies over a sweep of network sizes."""
    cost_config = cost_config or CostConfig()
    power_config = power_config or PowerConfig()
    out: Dict[str, List[PowerBreakdown]] = {name: [] for name in ALL_COST_MODELS}
    for n in sizes:
        for name, model_cls in ALL_COST_MODELS.items():
            model = model_cls(n, cost_config)
            out[name].append(power_breakdown(model, power_config))
    return out
