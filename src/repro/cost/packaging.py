"""Physical packaging and floor-plan model.

The network cost of Section 5 depends on where routers live: channels
inside a cabinet are backplane traces, channels between cabinets are
cables whose length -- and therefore technology and price -- follows from
the machine-room layout.  This module provides the parametric layout the
cost models share: cabinets of a fixed terminal capacity arranged on a
near-square 2-D grid, with cable runs measured as Manhattan distance plus
a fixed routing overhead (rack ingress/egress and slack).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PackagingConfig:
    """Knobs of the packaging hierarchy.

    The default cabinet capacity of 512 terminals makes one dragonfly
    group (the paper's Figure 19 group size) the packaging unit, so
    intra-group channels are backplane traces -- the premise behind the
    paper's "group size twice the dimension size leads to lower cost"
    argument.  Set 256 to reproduce the Figure 18 drawing's smaller
    cabinets instead.
    """

    terminals_per_cabinet: int = 512
    #: Centre-to-centre spacing of adjacent cabinets (aisles included).
    cabinet_pitch_m: float = 1.5
    #: Fixed extra cable length per inter-cabinet run (vertical rack
    #: ingress/egress plus service slack).
    cable_overhead_m: float = 2.0
    #: Effective length of an intra-cabinet connection (backplane trace
    #: or very short jumper).
    intra_cabinet_length_m: float = 1.0

    def __post_init__(self) -> None:
        if self.terminals_per_cabinet < 1:
            raise ValueError("terminals_per_cabinet must be >= 1")
        if self.cabinet_pitch_m <= 0:
            raise ValueError("cabinet_pitch_m must be > 0")
        if self.cable_overhead_m < 0 or self.intra_cabinet_length_m < 0:
            raise ValueError("lengths must be >= 0")


class FloorPlan:
    """Cabinets on a near-square grid, addressed by cabinet index."""

    def __init__(self, num_cabinets: int, config: PackagingConfig) -> None:
        if num_cabinets < 1:
            raise ValueError("num_cabinets must be >= 1")
        self.num_cabinets = num_cabinets
        self.config = config
        self.columns = max(1, math.ceil(math.sqrt(num_cabinets)))
        self.rows = math.ceil(num_cabinets / self.columns)

    @classmethod
    def for_terminals(cls, num_terminals: int, config: PackagingConfig) -> "FloorPlan":
        cabinets = math.ceil(num_terminals / config.terminals_per_cabinet)
        return cls(cabinets, config)

    def position(self, cabinet: int) -> Tuple[int, int]:
        """(row, column) grid coordinates of a cabinet."""
        if not (0 <= cabinet < self.num_cabinets):
            raise ValueError(f"cabinet {cabinet} out of range")
        return divmod(cabinet, self.columns)

    def cable_length(self, cabinet_a: int, cabinet_b: int) -> float:
        """Length of a cable between two cabinets (intra-cabinet runs use
        the backplane length)."""
        if cabinet_a == cabinet_b:
            return self.config.intra_cabinet_length_m
        row_a, col_a = self.position(cabinet_a)
        row_b, col_b = self.position(cabinet_b)
        manhattan = abs(row_a - row_b) + abs(col_a - col_b)
        return manhattan * self.config.cabinet_pitch_m + self.config.cable_overhead_m

    def max_cable_length(self) -> float:
        """Corner-to-corner cable run."""
        if self.num_cabinets == 1:
            return self.config.intra_cabinet_length_m
        return (
            (self.rows - 1 + self.columns - 1) * self.config.cabinet_pitch_m
            + self.config.cable_overhead_m
        )

    def average_pair_distance(self) -> float:
        """Mean cable length over distinct cabinet pairs."""
        if self.num_cabinets == 1:
            return self.config.intra_cabinet_length_m
        total = 0.0
        count = 0
        for a in range(self.num_cabinets):
            for b in range(a + 1, self.num_cabinets):
                total += self.cable_length(a, b)
                count += 1
        return total / count

    def central_cabinet(self) -> int:
        """Cabinet nearest the floor centre (spine placement for Clos)."""
        centre_row = (self.rows - 1) / 2
        centre_col = (self.columns - 1) / 2
        best = 0
        best_distance = math.inf
        for cabinet in range(self.num_cabinets):
            row, col = self.position(cabinet)
            distance = abs(row - centre_row) + abs(col - centre_col)
            if distance < best_distance:
                best, best_distance = cabinet, distance
        return best
