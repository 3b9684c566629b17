"""Shared fabric representation used by all topologies.

A :class:`Fabric` is the low-level wiring description every topology in
this package produces: a set of routers, each with numbered ports, a set
of directed channels between router ports, and a set of terminals attached
to dedicated router ports.  The cycle-accurate simulator in
:mod:`repro.network` consumes a fabric directly; the cost model consumes
the channel list together with a physical layout.

Channels are *directed*: every physical bidirectional cable appears as two
directed channels, one per direction.  Helpers are provided to enumerate
the underlying bidirectional links when counting cables for cost purposes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple


class ChannelKind(enum.Enum):
    """Classification of a channel for routing, VC and cost purposes."""

    TERMINAL = "terminal"  # router <-> attached terminal (injection/ejection)
    LOCAL = "local"        # intra-group / intra-dimension, short electrical
    GLOBAL = "global"      # inter-group / inter-cabinet, long (optical)


@dataclass(frozen=True)
class PortRef:
    """A (router, port) pair identifying one endpoint of a channel."""

    router: int
    port: int


@dataclass(frozen=True)
class Channel:
    """One directed channel of the fabric.

    ``index`` is the dense identifier assigned by the fabric; the reverse
    direction of the same cable is a distinct channel.
    """

    index: int
    src: PortRef
    dst: PortRef
    kind: ChannelKind
    latency: int = 1


@dataclass(frozen=True)
class Terminal:
    """A network endpoint (processor) attached to a router port."""

    index: int
    router: int
    port: int


class Fabric:
    """Mutable builder + queryable description of a wired network.

    Construction protocol (used by the topology builders):

    >>> fabric = Fabric(num_routers=2)
    >>> t = fabric.add_terminal(router=0, port=0)
    >>> c = fabric.connect(PortRef(0, 1), PortRef(1, 1), ChannelKind.LOCAL)

    ``connect`` wires *both* directions of a bidirectional cable and
    returns the forward channel.
    """

    def __init__(self, num_routers: int, name: str = "fabric") -> None:
        if num_routers < 1:
            raise ValueError("a fabric needs at least one router")
        self.name = name
        self.num_routers = num_routers
        self.channels: List[Channel] = []
        self.terminals: List[Terminal] = []
        # (router, port) -> outgoing channel index
        self._out_channel: Dict[Tuple[int, int], int] = {}
        # (router, port) -> incoming channel index
        self._in_channel: Dict[Tuple[int, int], int] = {}
        # (router, port) -> terminal index for terminal ports
        self._terminal_at: Dict[Tuple[int, int], int] = {}
        self._ports_used: Dict[int, set] = {r: set() for r in range(num_routers)}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _claim_port(self, router: int, port: int) -> None:
        if not (0 <= router < self.num_routers):
            raise ValueError(f"router {router} out of range")
        if port in self._ports_used[router]:
            raise ValueError(f"port {port} of router {router} already wired")
        self._ports_used[router].add(port)

    def add_terminal(self, router: int, port: int) -> Terminal:
        """Attach a terminal to a router port (claims the port)."""
        self._claim_port(router, port)
        terminal = Terminal(index=len(self.terminals), router=router, port=port)
        self.terminals.append(terminal)
        self._terminal_at[(router, port)] = terminal.index
        return terminal

    def connect(
        self,
        src: PortRef,
        dst: PortRef,
        kind: ChannelKind,
        latency: int = 1,
    ) -> Channel:
        """Wire a bidirectional cable between two router ports.

        Claims both ports and creates two directed channels.  Returns the
        ``src -> dst`` direction.
        """
        if src.router == dst.router:
            raise ValueError("cannot connect a router to itself")
        self._claim_port(src.router, src.port)
        self._claim_port(dst.router, dst.port)
        forward = Channel(index=len(self.channels), src=src, dst=dst, kind=kind, latency=latency)
        self.channels.append(forward)
        backward = Channel(
            index=len(self.channels),
            src=dst,
            dst=src,
            kind=kind,
            latency=latency,
        )
        self.channels.append(backward)
        self._out_channel[(src.router, src.port)] = forward.index
        self._in_channel[(dst.router, dst.port)] = forward.index
        self._out_channel[(dst.router, dst.port)] = backward.index
        self._in_channel[(src.router, src.port)] = backward.index
        return forward

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    @property
    def num_channels(self) -> int:
        """Count of *directed* router-to-router channels."""
        return len(self.channels)

    def radix(self, router: int) -> int:
        """Number of wired ports (including terminal ports) of a router."""
        return len(self._ports_used[router])

    def max_radix(self) -> int:
        return max(self.radix(r) for r in range(self.num_routers))

    def out_channel(self, router: int, port: int) -> Optional[Channel]:
        """The outgoing channel at a port, or None for terminal ports."""
        idx = self._out_channel.get((router, port))
        return self.channels[idx] if idx is not None else None

    def terminal_at(self, router: int, port: int) -> Optional[Terminal]:
        idx = self._terminal_at.get((router, port))
        return self.terminals[idx] if idx is not None else None

    def is_terminal_port(self, router: int, port: int) -> bool:
        return (router, port) in self._terminal_at

    def ports(self, router: int) -> List[int]:
        return sorted(self._ports_used[router])

    def channels_of_kind(self, kind: ChannelKind) -> List[Channel]:
        return [c for c in self.channels if c.kind == kind]

    def bidirectional_links(self) -> Iterator[Tuple[Channel, Channel]]:
        """Yield (forward, backward) pairs -- one per physical cable."""
        for i in range(0, len(self.channels), 2):
            yield self.channels[i], self.channels[i + 1]

    def num_cables(self, kind: Optional[ChannelKind] = None) -> int:
        """Count of physical bidirectional cables, optionally by kind."""
        count = 0
        for forward, _ in self.bidirectional_links():
            if kind is None or forward.kind == kind:
                count += 1
        return count

    def neighbors(self, router: int) -> List[int]:
        """Routers directly connected to ``router``."""
        out = []
        for port in self.ports(router):
            channel = self.out_channel(router, port)
            if channel is not None:
                out.append(channel.dst.router)
        return out

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------
    def unreachable_router(self) -> Optional[int]:
        """The lowest router not reachable from router 0, or None."""
        reached, frontier = {0}, [0]
        while frontier:
            fresh = set(self.neighbors(frontier.pop())) - reached
            reached |= fresh
            frontier.extend(fresh)
        return min(set(range(self.num_routers)) - reached, default=None)

    def is_connected(self) -> bool:
        return self.unreachable_router() is None

    def router_diameter(self) -> int:
        """Hop diameter of the router-to-router graph: the largest
        shortest-path hop count, by a breadth-first search from every
        router.  Raises ValueError on a disconnected fabric."""
        unreachable = self.unreachable_router()
        if unreachable is not None:
            raise ValueError(
                f"fabric is not connected: router {unreachable} unreachable "
                "from router 0, so its diameter is infinite"
            )
        adjacency = [set(self.neighbors(router)) for router in range(self.num_routers)]
        diameter = 0
        for source in range(self.num_routers):
            reached, frontier, hops = {source}, {source}, 0
            while len(reached) < self.num_routers:
                frontier = set().union(*(adjacency[r] for r in frontier)) - reached
                reached |= frontier
                hops += 1
            diameter = max(diameter, hops)
        return diameter

    def validate(self) -> None:
        """Structural sanity checks; raises ValueError on inconsistency."""
        for (router, port), idx in self._out_channel.items():
            channel = self.channels[idx]
            if channel.src != PortRef(router, port):
                raise ValueError(f"channel map corrupt at router {router} port {port}")
        for terminal in self.terminals:
            if (terminal.router, terminal.port) in self._out_channel:
                raise ValueError(
                    f"terminal {terminal.index} shares a port with a channel"
                )
        unreachable = self.unreachable_router()
        if unreachable is not None:
            raise ValueError(
                f"fabric is not connected: router {unreachable} unreachable from router 0"
            )
