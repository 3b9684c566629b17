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
"""

from __future__ import annotations

import abc
import random
from typing import Any, Protocol, Tuple

from ..network.packet import RoutePlan
from ..topology.dragonfly import Dragonfly
from .paths import next_hop as _dragonfly_next_hop


class CongestionView(Protocol):
    """Queue-state queries the simulator exposes to routing algorithms."""

    def output_occupancy(self, router: int, out_port: int) -> int:
        """Flits committed to an output: queued here + downstream buffer."""
        ...

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        """Per-VC component of :meth:`output_occupancy`."""
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
    #: The topology class the plans and executor are written for; the
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

    def next_hop(
        self,
        topology: Any,
        router: int,
        plan: Any,
        progress: int,
        dst_terminal: int,
    ) -> Tuple[int, int, int]:
        """Execute one hop of a plan: (out_port, out_vc, next_progress).

        The default executor implements dragonfly routing (Section 4.1),
        where ``progress`` counts global channels crossed.  Topology
        families with their own plan encoding (e.g. the flattened
        butterfly) override this.
        """
        port, vc = _dragonfly_next_hop(topology, router, plan, progress, dst_terminal)
        next_progress = progress
        if not topology.is_terminal_port(port) and topology.is_global_port(port):
            next_progress += 1
        return port, vc, next_progress

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
