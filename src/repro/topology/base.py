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

import dataclasses
import enum
import functools
import inspect
import types
import typing
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Type


def state_without_memos(topology: Any) -> Dict[str, Any]:
    """A topology's pickled state: its wiring, without the routing memos
    built on it (:func:`repro.routing.paths.topology_memo`: plans, hop
    memos, compiled tables).  A pickle -- what a sweep worker receives --
    is the same before and after any run.  :class:`Topology` sets
    ``__getstate__`` to it (``tests/routing/test_hop_memo.py`` checks
    every class); memos held beside the topology instead, in a
    weak-keyed map, would need no hook but cost the UGAL-L decide path
    ~3.5% more executed opcodes."""
    state = dict(topology.__dict__)
    state.pop("_routing_memos", None)
    return state


#: The default of a constructor argument that has none: a spec always
#: names it.
_REQUIRED = inspect.Parameter.empty


def _as_json(value: Any) -> Any:
    """A constructor argument as JSON: a dataclass as its fields, a
    tuple as a list, a set as a sorted list."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_as_json(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_as_json(item) for item in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _as_json(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    return value


@functools.lru_cache(maxsize=None)
def _signature(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(name, default as JSON)`` of each argument of ``cls``'s
    constructor, read once per class."""
    arguments = []
    for parameter in inspect.signature(cls).parameters.values():
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            raise ValueError(
                f"{cls.__name__}'s constructor argument {parameter.name!r} "
                "cannot be named in a spec"
            )
        default = parameter.default
        arguments.append(
            (parameter.name, default if default is _REQUIRED else _as_json(default))
        )
    return tuple(arguments)


def _describe(cls: type, source: Any) -> Dict[str, Any]:
    """The spec of a ``cls`` whose constructor arguments are ``source``'s
    attributes of the same names: its family and every argument not at
    its default, as JSON."""
    spec: Dict[str, Any] = {"family": cls.__name__}
    for name, default in _signature(cls):
        try:
            value = getattr(source, name)
        except AttributeError:
            raise ValueError(
                f"{cls.__name__} does not keep its constructor argument "
                f"{name!r}, so its spec cannot name it"
            ) from None
        value = _as_json(value)
        if value != default:
            spec[name] = value
    return spec


class Topology:
    """What every topology class shares: it says what network it is
    (:meth:`spec`, inverted by :func:`build`), and its pickle holds its
    wiring without the routing memos built on it."""

    __getstate__ = state_without_memos

    #: Ejection latency in cycles, read by the simulator; a dragonfly
    #: takes it as a constructor argument.
    terminal_latency = 1

    def spec(self) -> Dict[str, Any]:
        """The network as JSON: ``family`` (the class name) and each
        constructor argument away from its default, read from the
        attribute of the same name.  The sweep cache key and a sweep
        manifest's ``topology`` are this; a class that does not keep an
        argument makes it a ``ValueError`` naming the argument."""
        return _describe(type(self), self)

    def terminal_router(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].router  # type: ignore[attr-defined]

    def terminal_port(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].port  # type: ignore[attr-defined]


def _resolve(spec: Mapping[str, Any]) -> Tuple[Type[Topology], Dict[str, Any]]:
    """The class a spec names and its constructor arguments.  Any
    argument a spec cannot give (an unknown family or argument, a
    missing one) is a ``ValueError`` naming it."""
    from .. import topology as package

    if not isinstance(spec, Mapping):
        raise ValueError(f"a topology spec is a JSON object, got {spec!r}")
    family = spec.get("family")
    cls = getattr(package, family, None) if isinstance(family, str) else None
    if not (isinstance(cls, type) and issubclass(cls, Topology)) or cls is Topology:
        known = [
            name for name in package.__all__
            if isinstance(getattr(package, name), type)
            and issubclass(getattr(package, name), Topology)
            and name != "Topology"
        ]
        raise ValueError(
            f"unknown topology family {family!r} (one of {', '.join(known)})"
        )
    signature = dict(_signature(cls))
    unknown = sorted(set(spec) - set(signature) - {"family"})
    if unknown:
        raise ValueError(f"{family} takes no argument {unknown[0]!r}")
    hints = typing.get_type_hints(cls.__init__)
    arguments = {}
    for name, default in signature.items():
        if name in spec:
            value, hint = spec[name], hints.get(name)
            if dataclasses.is_dataclass(hint) and isinstance(value, Mapping):
                value = hint(**value)
            arguments[name] = value
        elif default is _REQUIRED:
            raise ValueError(f"a {family} spec needs its argument {name!r}")
    return cls, arguments


def parse_spec(spec: Mapping[str, Any]) -> Tuple[Type[Topology], Dict[str, Any]]:
    """The class ``spec`` names and the spec as :meth:`Topology.spec`
    writes it, checked without wiring the network."""
    cls, arguments = _resolve(spec)
    values = types.SimpleNamespace(**{**dict(_signature(cls)), **arguments})
    return cls, _describe(cls, values)


def build(spec: Mapping[str, Any]) -> Topology:
    """The topology ``spec`` describes: ``build(t.spec())`` wires the
    same channels as ``t``, in order."""
    cls, arguments = _resolve(spec)
    return cls(**arguments)


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
