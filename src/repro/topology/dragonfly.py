"""The dragonfly topology (Section 3 of the paper).

A dragonfly is a three-level hierarchy: router, group, system.  Each
router has ``p`` terminals, ``a - 1`` local channels to the other routers
of its group (the intra-group network here is the paper's default
completely-connected / 1-D flattened butterfly), and ``h`` global channels
to routers in other groups.  The ``a`` routers of a group act together as
a virtual router of radix ``k' = a(p + h)``, which lets up to
``g = ah + 1`` groups be connected with a global diameter of one.

:class:`GroupedTopology` owns what does not depend on the intra-group
network: terminals, group identity, global wiring and link indexes.
:class:`Dragonfly` (complete groups) and the Figure 6
:class:`~repro.topology.group_variants.FlattenedButterflyGroupDragonfly`
are sibling subclasses that add only their local wiring.

Port layout of every router (radix ``k = p + local_ports + h``, with
``local_ports = a - 1`` for the dragonfly)::

    [0, p)                      terminal ports
    [p, p + local_ports)        local ports
    [p + local_ports, k)        global ports

Global wiring
-------------
For a maximum-size dragonfly (``g = ah + 1``) each pair of groups is
connected by exactly one channel, using the *absolute* arrangement: group
``gi``'s group-level port ``e`` (``e`` in ``[0, ah)``) connects to group
``e`` if ``e < gi`` else ``e + 1``.  For smaller dragonflies the excess
global connections are distributed round-robin over the group pairs so
that every pair is connected by at least ``floor(ah / (g-1))`` channels
(Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.params import DragonflyParams, TopologyError
from .base import ChannelKind, Fabric, PortRef, state_without_memos


@dataclass(frozen=True)
class GlobalLink:
    """One directed global connection leaving a group."""

    src_router: int
    src_port: int
    dst_router: int
    dst_group: int


class GroupedTopology:
    """Routers in ``g`` groups of ``a``, joined by global channels.

    ``params`` gives the shape and is not stored (a subclass keeps it
    only if it identifies the topology, see
    :func:`repro.network.cache.topology_signature`); ``local_ports`` is
    the number of local ports per router.  A subclass supplies
    ``fabric_name``, ``_wire_group(group)``, ``local_port(router,
    dst_router)`` (the first local hop toward a router of the same
    group), ``intra_group_hops`` and ``describe()``.
    """

    __getstate__ = state_without_memos

    def __init__(
        self,
        params: DragonflyParams,
        local_ports: int,
        local_latency: int = 1,
        global_latency: int = 1,
        terminal_latency: int = 1,
        max_channels_per_pair: Optional[int] = None,
    ) -> None:
        if max_channels_per_pair is not None and max_channels_per_pair < 1:
            raise TopologyError("max_channels_per_pair must be >= 1 when set")
        self.max_channels_per_pair = max_channels_per_pair
        self.local_latency = local_latency
        self.global_latency = global_latency
        self.terminal_latency = terminal_latency
        # Plain attributes (not properties): these sit on the hot path
        # of routing decisions, where descriptor dispatch is measurable.
        self.p = params.p
        self.a = params.a
        self.h = params.h
        self.g = params.g
        self.num_terminals = params.num_terminals
        self.num_routers = params.num_routers
        self.terminals_per_group = params.terminals_per_group
        self.local_ports = local_ports
        self.radix = params.p + local_ports + params.h
        self.fabric = Fabric(num_routers=self.num_routers, name=self.fabric_name)
        # (group, group) -> list of directed GlobalLink from first to second
        self._group_links: Dict[Tuple[int, int], List[GlobalLink]] = {}
        # router -> list of GlobalLink (one per global port)
        self._router_global_links: Dict[int, List[GlobalLink]] = {
            r: [] for r in range(self.num_routers)
        }
        self._build(params)

    @property
    def effective_radix(self) -> int:
        """Virtual-router radix ``k' = a (p + h)``."""
        return self.a * (self.p + self.h)

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def group_of(self, router: int) -> int:
        return router // self.a

    def local_index(self, router: int) -> int:
        return router % self.a

    def router_id(self, group: int, local_index: int) -> int:
        return group * self.a + local_index

    def group_routers(self, group: int) -> range:
        return range(group * self.a, (group + 1) * self.a)

    def terminal_router(self, terminal: int) -> int:
        return self._terminal_routers[terminal]

    def terminal_port(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].port

    # Port-class helpers -------------------------------------------------
    def is_terminal_port(self, port: int) -> bool:
        return port < self.p

    def is_global_port(self, port: int) -> bool:
        return self.p + self.local_ports <= port < self.radix

    def global_port(self, slot: int) -> int:
        """The port of a router's global channel ``slot`` (``< h``)."""
        if not (0 <= slot < self.h):
            raise TopologyError(f"global slot {slot} out of range")
        return self.p + self.local_ports + slot

    def global_links_of(self, router: int) -> List[GlobalLink]:
        """The ``h`` global connections of a router."""
        return self._router_global_links[router]

    def group_links(self, src_group: int, dst_group: int) -> List[GlobalLink]:
        """All directed global connections from one group to another."""
        if src_group == dst_group:
            raise TopologyError("no global links within a group")
        return self._group_links.get((src_group, dst_group), [])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, params: DragonflyParams) -> None:
        # Terminals: terminal t -> router t // p, port t % p.
        for router in range(params.num_routers):
            for port in range(params.p):
                self.fabric.add_terminal(router=router, port=port)
        # Local channels.
        for group in range(params.g):
            self._wire_group(group)
        # Global channels.
        if params.g > 1:
            if params.is_max_size and self.max_channels_per_pair is None:
                self._wire_global_max_size()
            else:
                self._wire_global_distributed()
        self.fabric.validate()
        #: True when every connected group pair has exactly one global
        #: link -- the canonical ``g = ah + 1`` dragonfly.  Route-plan
        #: construction then never has a tie to break (consumes no rng
        #: beyond the Valiant intermediate-group draw), which lets
        #: :mod:`repro.routing.paths` memoise plans per group tuple.
        self.single_link_pairs = all(
            len(links) == 1 for links in self._group_links.values()
        )
        #: Flat terminal -> router table; ``terminal_router`` sits on the
        #: per-packet routing path, where the ``fabric.terminals[t]``
        #: attribute chain is measurable.
        self._terminal_routers = [
            ref.router for ref in self.fabric.terminals
        ]

    def _group_port_to_router_port(self, group: int, group_port: int) -> PortRef:
        """Map a group-level global port index to a concrete router port."""
        router = self.router_id(group, group_port // self.h)
        return PortRef(router, self.global_port(group_port % self.h))

    def _record_global(self, src: PortRef, dst: PortRef) -> None:
        src_group = self.group_of(src.router)
        dst_group = self.group_of(dst.router)
        forward = GlobalLink(
            src_router=src.router,
            src_port=src.port,
            dst_router=dst.router,
            dst_group=dst_group,
        )
        backward = GlobalLink(
            src_router=dst.router,
            src_port=dst.port,
            dst_router=src.router,
            dst_group=src_group,
        )
        self._group_links.setdefault((src_group, dst_group), []).append(forward)
        self._group_links.setdefault((dst_group, src_group), []).append(backward)
        self._router_global_links[src.router].append(forward)
        self._router_global_links[dst.router].append(backward)

    def _wire_global_max_size(self) -> None:
        """Absolute arrangement: one channel between every pair of groups."""
        for src_group in range(self.g):
            for group_port in range(self.a * self.h):
                dst_group = group_port if group_port < src_group else group_port + 1
                if dst_group < src_group:
                    continue  # wired when iterating the smaller group
                src = self._group_port_to_router_port(src_group, group_port)
                dst_group_port = src_group  # since src_group < dst_group
                dst = self._group_port_to_router_port(dst_group, dst_group_port)
                self.fabric.connect(src, dst, ChannelKind.GLOBAL, latency=self.global_latency)
                self._record_global(src, dst)

    def _wire_global_distributed(self) -> None:
        """Round-robin distribution of channels over group pairs.

        Guarantees every pair is connected by at least
        ``floor(ah / (g-1))`` channels and that channel counts between
        pairs differ by at most one.
        """
        free_ports = {group: list(range(self.a * self.h)) for group in range(self.g)}
        pairs = [
            (i, j)
            for i in range(self.g)
            for j in range(i + 1, self.g)
        ]
        wired = {pair: 0 for pair in pairs}
        cap = self.max_channels_per_pair
        # Balanced greedy: always extend the least-wired pair, breaking
        # ties toward the groups with the most free ports.  This keeps
        # per-pair counts within one of each other and avoids stranding
        # ports on a group whose peers exhausted theirs.
        while True:
            candidates = [
                pair
                for pair in pairs
                if free_ports[pair[0]]
                and free_ports[pair[1]]
                and (cap is None or wired[pair] < cap)
            ]
            if not candidates:
                break
            i, j = min(
                candidates,
                key=lambda pair: (
                    wired[pair],
                    -(len(free_ports[pair[0]]) + len(free_ports[pair[1]])),
                    pair,
                ),
            )
            src = self._group_port_to_router_port(i, free_ports[i].pop(0))
            dst = self._group_port_to_router_port(j, free_ports[j].pop(0))
            self.fabric.connect(src, dst, ChannelKind.GLOBAL, latency=self.global_latency)
            self._record_global(src, dst)
            wired[(i, j)] += 1
        leftover = sum(len(ports) for ports in free_ports.values())
        if cap is None and leftover > 1:
            # At most one port can remain unpaired (odd total endpoints are
            # rejected by DragonflyParams); more indicates a wiring bug.
            raise TopologyError(f"{leftover} global ports left unwired")
        if any(count == 0 for count in wired.values()):
            raise TopologyError("tapering disconnected a pair of groups")


class Dragonfly(GroupedTopology):
    """A concrete dragonfly network with routing tables.

    Parameters
    ----------
    params:
        The ``(p, a, h, g)`` configuration.
    local_latency, global_latency, terminal_latency:
        Channel latencies in cycles used by the simulator.
    """

    fabric_name = "dragonfly"

    def __init__(
        self,
        params: DragonflyParams,
        local_latency: int = 1,
        global_latency: int = 1,
        terminal_latency: int = 1,
        max_channels_per_pair: Optional[int] = None,
    ) -> None:
        """Build the network.

        ``max_channels_per_pair`` enables *bandwidth tapering*
        (Section 3.2): when set, at most that many global channels are
        wired between any pair of groups, leaving excess global ports
        unused and reducing global cable count (and cost) when uniform
        inter-group bandwidth is not required.
        """
        self.params = params
        super().__init__(
            params, params.a - 1, local_latency, global_latency,
            terminal_latency, max_channels_per_pair,
        )

    def local_port(self, router: int, dst_router: int) -> int:
        """Port of ``router`` on the direct local channel to ``dst_router``.

        Both routers must be in the same group and distinct.
        """
        if self.group_of(router) != self.group_of(dst_router):
            raise TopologyError("local_port requires routers in the same group")
        src_local = self.local_index(router)
        dst_local = self.local_index(dst_router)
        if src_local == dst_local:
            raise TopologyError("no local channel from a router to itself")
        offset = dst_local if dst_local < src_local else dst_local - 1
        return self.p + offset

    def intra_group_hops(self, src_router: int, dst_router: int) -> int:
        """Local hops between two routers of one group: a group is a
        complete graph, so 0 or 1."""
        return int(src_router != dst_router)

    def _wire_group(self, group: int) -> None:
        """Each group completely connected."""
        routers = self.group_routers(group)
        for i, src in enumerate(routers):
            for dst in routers[i + 1:]:
                self.fabric.connect(
                    PortRef(src, self.local_port(src, dst)),
                    PortRef(dst, self.local_port(dst, src)),
                    ChannelKind.LOCAL,
                    latency=self.local_latency,
                )

    def describe(self) -> str:
        return (
            f"{self.params.describe()}, "
            f"{self.fabric.num_cables(ChannelKind.LOCAL)} local cables, "
            f"{self.fabric.num_cables(ChannelKind.GLOBAL)} global cables"
        )


def make_dragonfly(
    p: int,
    a: int,
    h: int,
    num_groups: Optional[int] = None,
    **latencies: int,
) -> Dragonfly:
    """Convenience constructor: ``make_dragonfly(p=2, a=4, h=2)``."""
    return Dragonfly(DragonflyParams(p=p, a=a, h=h, num_groups=num_groups), **latencies)
