"""Hop-count and cable-length comparison (Table 2).

Table 2 of the paper compares the dragonfly and the flattened butterfly
of the same scale in terms of hop counts -- ``hl`` local hops and ``hg``
global hops -- and cable lengths relative to ``E``, the length of one
dimension of the physical system layout:

====================  ==============  =================  =========  ====
topology              minimal         non-minimal        avg cable  max
====================  ==============  =================  =========  ====
flattened butterfly   hl + 2 hg       2 hl + 4 hg        E/3        E
dragonfly             2 hl + hg       3 hl + 2 hg        2E/3       2E
====================  ==============  =================  =========  ====

(the dragonfly's maximum drops to ``sqrt(2) E`` with diagonal cable
runs).  The hop expressions assume the 64K-node configuration of Figure
18: a 3-D flattened butterfly (one local dimension, two global) versus a
dragonfly whose groups connect in a single global dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class HopCount:
    """A path cost expressed in local and global hops."""

    local: int
    global_: int

    def cycles(self, local_latency: float, global_latency: float) -> float:
        return self.local * local_latency + self.global_ * global_latency

    def __str__(self) -> str:
        return f"{self.local}*hl + {self.global_}*hg"


@dataclass(frozen=True)
class TopologyComparison:
    """One row of Table 2."""

    topology: str
    minimal_diameter: HopCount
    nonminimal_diameter: HopCount
    #: Average and maximum cable length as fractions of the layout
    #: dimension ``E``.
    avg_cable_fraction: float
    max_cable_fraction: float


def flattened_butterfly_row() -> TopologyComparison:
    """Table 2's flattened butterfly row (3-D configuration)."""
    return TopologyComparison(
        topology="flattened butterfly",
        minimal_diameter=HopCount(local=1, global_=2),
        nonminimal_diameter=HopCount(local=2, global_=4),
        avg_cable_fraction=1.0 / 3.0,
        max_cable_fraction=1.0,
    )


def dragonfly_row(diagonal_cables: bool = False) -> TopologyComparison:
    """Table 2's dragonfly row.

    ``diagonal_cables`` applies the footnote: with diagonal runs the
    maximum cable shrinks from ``2E`` to ``sqrt(2) E``.
    """
    return TopologyComparison(
        topology="dragonfly",
        minimal_diameter=HopCount(local=2, global_=1),
        nonminimal_diameter=HopCount(local=3, global_=2),
        avg_cable_fraction=2.0 / 3.0,
        max_cable_fraction=math.sqrt(2.0) if diagonal_cables else 2.0,
    )


def table2() -> list:
    """Both rows, dragonfly last as in the paper."""
    return [flattened_butterfly_row(), dragonfly_row()]
