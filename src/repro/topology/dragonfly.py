"""The dragonfly topology (Section 3 of the paper).

A dragonfly is a three-level hierarchy: router, group, system.  Each
router has ``p`` terminals, ``a - 1`` local channels to the other routers
of its group (the intra-group network here is the paper's default
completely-connected / 1-D flattened butterfly), and ``h`` global channels
to routers in other groups.  The ``a`` routers of a group act together as
a virtual router of radix ``k' = a(p + h)``, which lets up to
``g = ah + 1`` groups be connected with a global diameter of one.

Port layout of every router (radix ``k = p + a + h - 1``)::

    [0, p)              terminal ports
    [p, p + a - 1)      local ports
    [p + a - 1, k)      global ports

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
from .base import ChannelKind, Fabric, PortRef


@dataclass(frozen=True)
class GlobalLink:
    """One directed global connection leaving a group."""

    src_router: int
    src_port: int
    dst_router: int
    dst_group: int


class Dragonfly:
    """A concrete dragonfly network with routing tables.

    Parameters
    ----------
    params:
        The ``(p, a, h, g)`` configuration.
    local_latency, global_latency, terminal_latency:
        Channel latencies in cycles used by the simulator.
    """

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
        if max_channels_per_pair is not None and max_channels_per_pair < 1:
            raise TopologyError("max_channels_per_pair must be >= 1 when set")
        self.params = params
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
        self.fabric = Fabric(num_routers=params.num_routers, name="dragonfly")
        # (group, group) -> list of directed GlobalLink from first to second
        self._group_links: Dict[Tuple[int, int], List[GlobalLink]] = {}
        # router -> list of GlobalLink (one per global port)
        self._router_global_links: Dict[int, List[GlobalLink]] = {
            r: [] for r in range(params.num_routers)
        }
        self._build()

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

    def terminal_group(self, terminal: int) -> int:
        return self.group_of(self.terminal_router(terminal))

    # Port-class helpers -------------------------------------------------
    def is_terminal_port(self, port: int) -> bool:
        return port < self.p

    def is_local_port(self, port: int) -> bool:
        return self.p <= port < self.p + self.a - 1

    def is_global_port(self, port: int) -> bool:
        return self.p + self.a - 1 <= port < self.params.radix

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

    def global_links_of(self, router: int) -> List[GlobalLink]:
        """The ``h`` global connections of a router."""
        return self._router_global_links[router]

    def group_links(self, src_group: int, dst_group: int) -> List[GlobalLink]:
        """All directed global connections from one group to another."""
        if src_group == dst_group:
            raise TopologyError("no global links within a group")
        return self._group_links.get((src_group, dst_group), [])

    def groups_reached_by(self, router: int) -> List[int]:
        return [link.dst_group for link in self._router_global_links[router]]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        params = self.params
        # Terminals: terminal t -> router t // p, port t % p.
        for router in range(params.num_routers):
            for port in range(params.p):
                self.fabric.add_terminal(router=router, port=port)
        # Local channels: each group completely connected.
        for group in range(params.g):
            routers = list(self.group_routers(group))
            for i, src in enumerate(routers):
                for dst in routers[i + 1:]:
                    self.fabric.connect(
                        PortRef(src, self.local_port(src, dst)),
                        PortRef(dst, self.local_port(dst, src)),
                        ChannelKind.LOCAL,
                        latency=self.local_latency,
                    )
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
        local_router = group_port // self.h
        port_within = group_port % self.h
        router = self.router_id(group, local_router)
        return PortRef(router, self.p + self.a - 1 + port_within)

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

    # ------------------------------------------------------------------
    # Path helpers (used by the routing algorithms and analytics)
    # ------------------------------------------------------------------
    def minimal_hop_count(self, src_terminal: int, dst_terminal: int) -> int:
        """Router-to-router channel traversals of the minimal route."""
        src_router = self.terminal_router(src_terminal)
        dst_router = self.terminal_router(dst_terminal)
        if src_router == dst_router:
            return 0
        src_group = self.group_of(src_router)
        dst_group = self.group_of(dst_router)
        if src_group == dst_group:
            return 1
        best = None
        for link in self.group_links(src_group, dst_group):
            hops = 1  # the global channel
            if link.src_router != src_router:
                hops += 1
            if link.dst_router != dst_router:
                hops += 1
            best = hops if best is None else min(best, hops)
        if best is None:
            raise TopologyError(
                f"groups {src_group} and {dst_group} are not connected"
            )
        return best

    def describe(self) -> str:
        return (
            f"{self.params.describe()}, "
            f"{self.fabric.num_cables(ChannelKind.LOCAL)} local cables, "
            f"{self.fabric.num_cables(ChannelKind.GLOBAL)} global cables"
        )


def group_link_matrix(
    topology: Dragonfly,
) -> Optional[List[List[Optional[GlobalLink]]]]:
    """``g x g`` matrix of the unique global link per ordered group pair.

    Returns ``None`` when any distinct pair has zero or multiple links
    (then the per-pair route is not a pure function of the pair and the
    caller -- the decide kernel's dense-table lowering -- must fall
    back).  The diagonal is ``None``; groups never link to themselves.
    """
    g = topology.g
    matrix: List[List[Optional[GlobalLink]]] = [[None] * g for _ in range(g)]
    for src_group in range(g):
        for dst_group in range(g):
            if src_group == dst_group:
                continue
            links = topology.group_links(src_group, dst_group)
            if len(links) != 1:
                return None
            matrix[src_group][dst_group] = links[0]
    return matrix


def make_dragonfly(
    p: int,
    a: int,
    h: int,
    num_groups: Optional[int] = None,
    **latencies: int,
) -> Dragonfly:
    """Convenience constructor: ``make_dragonfly(p=2, a=4, h=2)``."""
    return Dragonfly(DragonflyParams(p=p, a=a, h=h, num_groups=num_groups), **latencies)
