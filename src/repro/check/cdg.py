"""Static channel-dependency-graph (CDG) certification of deadlock freedom.

The classic Dally--Seitz condition: wormhole/VCT routing is deadlock-free
iff the dependency graph over *buffer resources* -- here (directed
channel, virtual channel) pairs -- is acyclic, where an edge A -> B means
some admissible route can hold a flit in buffer A while requesting
buffer B.

This module proves that condition *statically* for a concrete
(topology, routing algorithm, VC assignment) triple from the traces of
every route the route-class admits, and proves the resulting graph
acyclic with :mod:`graphlib`.  It is graph machinery only: it knows a
fabric and (router, port, vc) traces, no routing family and no concrete
topology.  The traces come from the family's single route enumerator,
:meth:`repro.routing.tables.Lowering.traces` (every source router, every
destination terminal, every global-channel / intermediate / up-port
choice, each re-executed through the same ``next_hop`` executor the
simulator uses); the table pass feeds the same functions with walks
*through compiled tables*.  When the proof fails,
:func:`find_counterexample` extracts a concrete cycle of (channel, VC)
buffers -- the one ``networkx.find_cycle`` would name, found by the
stdlib :func:`first_cycle` -- and :func:`describe_cycle` renders it as a
human-readable deadlock scenario.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, TypeVar

from ..topology.base import Fabric

#: One hop of a walked route: (router, out_port, vc).  The final element
#: of a trace is the ejection hop (terminal port), which holds no network
#: buffer and is excluded from the CDG.
Trace = List[Tuple[int, int, int]]

#: A CDG node: (directed channel index, virtual channel).
CdgNode = Tuple[int, int]

#: A CDG: buffer -> buffers requested while holding it, in first-seen order.
Cdg = Dict[CdgNode, Dict[CdgNode, None]]

#: A graph node: a CdgNode, or a channel class in the symbolic pass.
Node = TypeVar("Node")


@dataclass(frozen=True)
class Certification:
    """Outcome of certifying one (topology, routing, VC) configuration."""

    name: str
    ok: bool
    num_routes: int
    num_nodes: int
    num_edges: int
    #: The counterexample cycle as CDG nodes, when the proof failed.
    cycle: Optional[List[CdgNode]] = None
    #: Human-readable rendering of ``cycle`` (one line per buffer).
    cycle_description: Optional[str] = None

    def summary(self) -> str:
        verdict = "deadlock-free" if self.ok else "CYCLIC"
        return (
            f"{self.name}: {verdict} "
            f"({self.num_routes} routes, {self.num_nodes} buffers, "
            f"{self.num_edges} dependencies)"
        )


def cdg_from_traces(fabric: Fabric, traces: Iterable[Trace]) -> Tuple[Cdg, int]:
    """Build the (channel, VC) dependency graph of a set of route traces.

    Returns the graph and the number of traces consumed.  A dependency
    edge is added between every pair of *consecutive* buffers a route
    occupies: holding buffer ``i`` while requesting buffer ``i+1``.
    (Unlike the abstract channel-class analysis, no subsequence closure
    is needed -- the enumeration includes every admissible route, so
    skipped-hop variants appear as their own traces.)
    """
    channel_at = {(c.src.router, c.src.port): c.index for c in fabric.channels}.get
    #: hop -> its buffer, or None for an ejection hop; routes share hops.
    buffer_of: Dict[Tuple[int, int, int], Optional[CdgNode]] = {}
    graph: Cdg = {}
    num_routes = 0
    for trace in traces:
        num_routes += 1
        held: Optional[Dict[CdgNode, None]] = None
        for hop in trace:
            try:
                node = buffer_of[hop]
            except KeyError:
                channel = channel_at(hop[:2])
                node = buffer_of[hop] = None if channel is None else (channel, hop[2])
            if node is None:
                break  # ejection: terminal ports hold no network buffer
            if held is not None:
                held[node] = None
            held = graph.get(node)
            if held is None:
                held = graph[node] = {}
    return graph, num_routes


def find_counterexample(graph: Dict[Node, Dict[Node, None]]) -> Optional[List[Node]]:
    """A cycle, or None when acyclic.  :mod:`graphlib` decides;
    :func:`first_cycle` names the cycle only when there is one."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
        return None
    except graphlib.CycleError:
        return first_cycle(graph)


def first_cycle(graph: Mapping[Node, Iterable[Node]]) -> Optional[List[Node]]:
    """The cycle ``networkx.find_cycle(G, orientation="original")`` finds
    on ``G`` built from ``graph`` in insertion order, as its tail nodes.

    The same edge DFS: start from each unexplored node in insertion
    order, take each node's out-edges through one iterator shared by the
    whole search, and stop at the first edge back onto the active path.
    A node whose edges are exhausted is explored and never re-entered.
    """
    explored: Set[Node] = set()
    for start in graph:
        if start in explored:
            continue
        path = [start]
        on_path = {start}
        edges = [iter(graph[start])]
        while edges:
            for head in edges[-1]:
                if head in on_path:
                    return path[path.index(head):]
                if head not in explored:
                    path.append(head)
                    on_path.add(head)
                    edges.append(iter(graph.get(head, ())))
                    break
            else:
                done = path.pop()
                on_path.remove(done)
                explored.add(done)
                edges.pop()
    return None


def describe_cycle(fabric: Fabric, cycle: List[CdgNode]) -> str:
    """Render a buffer cycle as one 'holds ... waits for ...' line per hop."""
    lines = []
    for i, (channel_index, vc) in enumerate(cycle):
        channel = fabric.channels[channel_index]
        nxt_channel, nxt_vc = cycle[(i + 1) % len(cycle)]
        nxt = fabric.channels[nxt_channel]
        lines.append(
            f"  packet holding {channel.kind.value} channel "
            f"{channel.src.router}->{channel.dst.router} VC{vc} "
            f"waits for {nxt.kind.value} channel "
            f"{nxt.src.router}->{nxt.dst.router} VC{nxt_vc}"
        )
    return "\n".join(lines)


def certify(name: str, fabric: Fabric, traces: Iterable[Trace]) -> Certification:
    """Certify one configuration: build the CDG and prove acyclicity."""
    graph, num_routes = cdg_from_traces(fabric, traces)
    cycle = find_counterexample(graph)
    return Certification(
        name=name,
        ok=cycle is None,
        num_routes=num_routes,
        num_nodes=len(graph),
        num_edges=sum(len(requests) for requests in graph.values()),
        cycle=cycle,
        cycle_description=describe_cycle(fabric, cycle) if cycle else None,
    )


def max_vc_used(traces: Iterable[Trace]) -> int:
    """Highest VC index any non-ejection hop of any trace uses."""
    highest = 0
    for trace in traces:
        for _, _, vc in trace[:-1] if trace else []:
            highest = max(highest, vc)
    return highest
