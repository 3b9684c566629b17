"""Scalability curves of the dragonfly paper (Figures 1 and 4).

These are closed-form consequences of the parameter algebra in
:mod:`repro.core.params`:

* Figure 1 plots the router radix required to build a *flat* network in
  which every minimally-routed packet crosses a single global hop.  It
  grows as ``k ~ 2 sqrt(N)`` -- the motivation for virtual routers.
* Figure 4 plots the network size reachable by a *balanced* dragonfly as
  a function of router radix: ``N = ap(ah+1)`` with ``a = 2p = 2h``
  explodes as ``k^4 / 64``-ish, reaching >256K terminals at radix 64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from .params import DragonflyParams, balanced_params_for_radix, required_radix_single_hop


@dataclass(frozen=True)
class RadixRequirementPoint:
    """One point of the Figure 1 curve."""

    num_terminals: int
    required_radix: int


@dataclass(frozen=True)
class ScalabilityPoint:
    """One point of the Figure 4 curve."""

    radix: int
    params: DragonflyParams

    @property
    def num_terminals(self) -> int:
        return self.params.num_terminals


def radix_requirement_curve(
    sizes: Iterable[int],
) -> List[RadixRequirementPoint]:
    """Figure 1: radix required for a one-global-hop flat network vs N."""
    return [
        RadixRequirementPoint(num_terminals=n, required_radix=required_radix_single_hop(n))
        for n in sizes
    ]


def dragonfly_scalability_curve(
    radices: Sequence[int],
) -> List[ScalabilityPoint]:
    """Figure 4: balanced-dragonfly network size vs router radix."""
    points = []
    for k in radices:
        params = balanced_params_for_radix(k)
        points.append(ScalabilityPoint(radix=k, params=params))
    return points
