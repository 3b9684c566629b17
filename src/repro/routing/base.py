"""Routing-algorithm interface.

A routing algorithm makes one decision per packet, at the source router
(Section 4): minimal or non-minimal, and which global channel(s) to use.
Adaptive algorithms read congestion estimates through the narrow
:class:`CongestionView` interface the simulator implements, which is what
makes the local/global information distinction of the paper explicit:

* ``output_occupancy``/``output_vc_occupancy`` at the *source router* is
  the only information a realisable router has (UGAL-L and variants);
* reading the occupancy of a *remote* router's global port is the ideal
  UGAL-G oracle.

Every later hop is a pure function of the route stage and the router,
so the simulator reaches a routing's hops through its :class:`HopMemo`.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Dict, Protocol, Tuple

from ..network.packet import RoutePlan
from ..topology.dragonfly import Dragonfly
from .paths import DragonflyHops, topology_memo


class CongestionView(Protocol):
    """Queue-state queries the simulator exposes to routing algorithms."""

    def output_occupancy(self, router: int, out_port: int) -> int:
        """Flits committed to an output: queued here + downstream buffer."""
        ...

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        """Per-VC component of :meth:`output_occupancy`."""
        ...


class HopMemo(Protocol):
    """A routing's hops on one topology, memoised by route stage.

    :meth:`keys` gives a decided plan's stage keys, indexed by the
    flit's ``progress``; the hop at ``router`` is ``hops[keys[progress]
    + router]``, an ``(out_port, out_vc, advance)`` that adds
    ``advance`` to the progress.  Port -1 means "eject here" (VC 0).
    :meth:`fill` computes, stores and returns a missing entry.
    """

    hops: Dict[int, Tuple[int, int, int]]

    def keys(self, plan: Any, src_router: int, dst_terminal: int) -> Tuple[int, ...]:
        """The stage keys of ``plan``, decided at ``src_router``."""
        ...

    def fill(
        self, key: int, plan: Any, progress: int, router: int, dst_terminal: int
    ) -> Tuple[int, int, int]:
        """The hop stored at ``key`` (``keys[progress] + router``)."""
        ...


class ZeroCongestion:
    """A congestion view that always reports empty queues (for tests)."""

    def output_occupancy(self, router: int, out_port: int) -> int:
        return 0

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        return 0


class RoutingAlgorithm(abc.ABC):
    """Per-packet routing decision maker."""

    #: Display name used by experiments and plots.
    name: str = "base"
    #: The topology class the plans and hop memo are written for; the
    #: engines refuse any other (:class:`repro.network.simulator.Simulator`).
    topology_type: type = Dragonfly
    #: True for UGAL-L_CR: the simulator enables the credit round-trip
    #: congestion sensing and delayed-credit backpressure mechanism.
    needs_credit_delay: bool = False
    #: Decide-kernel lowering metadata (:mod:`repro.network.decide_kernel`).
    #: ``kernel_decide`` names the decision structure the batched kernel
    #: can reproduce ("min" / "val" / "ugal"); ``kernel_signal`` names
    #: which occupancy feeds the UGAL comparison ("port" = first-hop
    #: whole port at the source, "remote" = the candidate global channel
    #: at its own router, "vc" = first-hop VC, "vc_hybrid" = VC when the
    #: candidates share a port, whole port otherwise).  ``None`` means no
    #: lowering exists and the array backend falls back to calling
    #: ``decide`` per packet.  Declared on the exact registry classes
    #: only -- a subclass overriding behaviour is deliberately not
    #: trusted by the kernel's eligibility check.
    kernel_decide: str | None = None
    kernel_signal: str | None = None

    @abc.abstractmethod
    def decide(
        self,
        view: CongestionView,
        topology: Dragonfly,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> RoutePlan:
        """Choose the route plan for a packet entering at ``src_router``."""

    def hop_memo(self, topology: Any) -> HopMemo:
        """The memo the simulator walks this routing's plans with: for
        dragonfly plans (Section 4.1) the topology's
        :class:`~repro.routing.paths.DragonflyHops`, built on first use
        and kept by :func:`topology_memo`."""
        return topology_memo(topology, DragonflyHops, DragonflyHops)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
