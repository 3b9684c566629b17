"""Parameter algebra for the dragonfly topology.

The dragonfly (Kim, Dally, Scott, Abts -- ISCA 2008) is described by three
parameters:

``p``
    number of terminals connected to each router,
``a``
    number of routers in each group,
``h``
    number of global channels per router (channels to other groups).

From these the paper derives (Section 3.1):

* router radix            ``k  = p + a + h - 1``
* effective group radix   ``k' = a * (p + h)``
* maximum group count     ``g_max = a * h + 1``
* maximum network size    ``N = a * p * (a * h + 1)``

A *balanced* dragonfly satisfies ``a = 2p = 2h`` so that the two local hops
per packet (one at each end of the global channel) do not oversubscribe the
local channels.  Deviations should overprovision local/terminal channels:
``a >= 2h`` and ``2p >= 2h`` (the paper's balance inequalities).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class TopologyError(ValueError):
    """Raised when topology parameters are inconsistent or unbuildable."""


@dataclass(frozen=True)
class DragonflyParams:
    """Immutable description of a dragonfly configuration.

    Parameters
    ----------
    p:
        Terminals per router (concentration).
    a:
        Routers per group.
    h:
        Global channels per router.
    num_groups:
        Number of groups ``g``.  Defaults to the maximum ``a*h + 1``.
        Smaller values produce non-maximal dragonflies in which the excess
        global connections are distributed evenly over the group pairs.
    """

    p: int
    a: int
    h: int
    num_groups: Optional[int] = None

    def __post_init__(self) -> None:
        if self.p < 1:
            raise TopologyError(f"p must be >= 1, got {self.p}")
        if self.a < 1:
            raise TopologyError(f"a must be >= 1, got {self.a}")
        if self.h < 0:
            raise TopologyError(f"h must be >= 0, got {self.h}")
        g = self.num_groups
        if g is None:
            object.__setattr__(self, "num_groups", self.max_groups)
        else:
            if g < 1:
                raise TopologyError(f"num_groups must be >= 1, got {g}")
            if g > self.max_groups:
                raise TopologyError(
                    f"num_groups={g} exceeds the maximum a*h+1={self.max_groups}"
                )
            if g > 1 and self.h == 0:
                raise TopologyError("h=0 cannot connect more than one group")
            if g > 1 and (self.a * self.h) % 2 != 0 and g == self.max_groups:
                # In a maximum-size dragonfly every group pair has exactly
                # one channel so parity is automatically satisfied; for
                # smaller networks total endpoints g*a*h must be even.
                pass
            if g > 1 and (g * self.a * self.h) % 2 != 0:
                raise TopologyError(
                    "g*a*h must be even so global channels can be paired "
                    f"(got g={g}, a={self.a}, h={self.h})"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def balanced(cls, h: int, num_groups: Optional[int] = None) -> "DragonflyParams":
        """Build a balanced dragonfly (``a = 2p = 2h``) from ``h``."""
        return cls(p=h, a=2 * h, h=h, num_groups=num_groups)

    @classmethod
    def paper_1k(cls) -> "DragonflyParams":
        """The paper's default simulation configuration.

        ``p = h = 4, a = 8`` which scales to ``N = 1056`` terminals
        ("1K node" in the paper's terminology).
        """
        return cls(p=4, a=8, h=4)

    @classmethod
    def paper_example_72(cls) -> "DragonflyParams":
        """The Figure 5 example: ``p = h = 2, a = 4`` giving ``N = 72``."""
        return cls(p=2, a=4, h=2)

    # ------------------------------------------------------------------
    # Derived quantities (Section 3.1)
    # ------------------------------------------------------------------
    @property
    def radix(self) -> int:
        """Router radix ``k = p + a + h - 1``."""
        return self.p + self.a + self.h - 1

    @property
    def effective_radix(self) -> int:
        """Virtual-router radix ``k' = a (p + h)``."""
        return self.a * (self.p + self.h)

    @property
    def max_groups(self) -> int:
        """Maximum group count ``g = a h + 1`` at global diameter one."""
        return self.a * self.h + 1

    @property
    def g(self) -> int:
        """Actual group count (``num_groups``)."""
        assert self.num_groups is not None
        return self.num_groups

    @property
    def is_max_size(self) -> bool:
        return self.g == self.max_groups

    @property
    def num_routers(self) -> int:
        return self.a * self.g

    @property
    def num_terminals(self) -> int:
        """Network size ``N = a p g``."""
        return self.a * self.p * self.g

    @property
    def terminals_per_group(self) -> int:
        return self.a * self.p

    @property
    def is_balanced(self) -> bool:
        """Exact balance: ``a = 2p = 2h``."""
        return self.a == 2 * self.p and self.a == 2 * self.h

    @property
    def is_overprovisioned(self) -> bool:
        """The paper's relaxed balance: ``a >= 2h`` and ``p >= h``.

        Deviations from 2:1 should leave the expensive global channels the
        bottleneck, i.e. overprovision local and terminal bandwidth.
        """
        return self.a >= 2 * self.h and self.p >= self.h

    def min_channels_between_group_pairs(self) -> int:
        """Lower bound on channels between any two groups.

        In a maximum-size dragonfly each pair of groups is connected by
        exactly one channel; in smaller dragonflies the excess connections
        are distributed so each pair gets at least
        ``floor(a*h / (g-1))`` channels.
        """
        if self.g <= 1:
            return 0
        return (self.a * self.h) // (self.g - 1)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"dragonfly(p={self.p}, a={self.a}, h={self.h}, g={self.g}): "
            f"N={self.num_terminals}, k={self.radix}, k'={self.effective_radix}"
        )


def required_radix_single_hop(num_terminals: int) -> int:
    """Radix needed for a *flat* fully-connected network of ``N`` terminals.

    Figure 1 of the paper: if a single router level must reach every other
    router with one (global) hop and concentration equals the number of
    network-facing ports, the radix grows as ``k ~ 2 sqrt(N)``.  Concretely,
    with ``c`` terminals per router and ``N/c - 1`` router-to-router ports,
    radix is minimised at ``c = sqrt(N)``, giving ``k = 2 sqrt(N) - 1``.
    """
    if num_terminals < 1:
        raise ValueError("num_terminals must be >= 1")
    best = num_terminals  # single router with N terminals
    c = 1
    while c * c <= num_terminals:
        routers = math.ceil(num_terminals / c)
        k = c + routers - 1
        best = min(best, k)
        c += 1
    return best


def balanced_params_for_radix(radix: int) -> DragonflyParams:
    """Largest balanced dragonfly buildable from routers of a given radix.

    Inverts ``k = p + a + h - 1 = 4h - 1`` for a balanced network, so
    ``h = floor((k + 1) / 4)``.  Used for the Figure 4 scalability curve.
    """
    if radix < 3:
        raise TopologyError(f"radix {radix} too small for a balanced dragonfly")
    h = (radix + 1) // 4
    return DragonflyParams.balanced(h)
