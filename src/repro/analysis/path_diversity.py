"""Path diversity and fault tolerance of the dragonfly.

Non-minimal routing is not only a load-balancing tool: the same route
freedom provides fault tolerance.  Between any two groups a dragonfly
offers one minimal global channel and ``g - 2`` two-hop alternatives
through intermediate groups, so single global-cable faults are always
routable around.  This module quantifies that:

* route counts per source/destination pair (minimal and Valiant),
* global-channel fault tolerance: the number of distinct global-channel
  failures a pair of groups can absorb while staying connected at the
  group level,
* survivability of a concrete fault set, decided on the group graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Set, Tuple

from ..topology.dragonfly import Dragonfly, GlobalLink

if TYPE_CHECKING:  # pragma: no cover - type-only import
    import networkx as nx


def minimal_route_count(topology: Dragonfly, src_terminal: int, dst_terminal: int) -> int:
    """Distinct minimal routes (one per parallel global channel)."""
    src_group = topology.terminal_group(src_terminal)
    dst_group = topology.terminal_group(dst_terminal)
    if src_group == dst_group:
        return 1
    return len(topology.group_links(src_group, dst_group))

def valiant_route_count(topology: Dragonfly, src_terminal: int, dst_terminal: int) -> int:
    """Distinct two-global-hop routes through intermediate groups."""
    src_group = topology.terminal_group(src_terminal)
    dst_group = topology.terminal_group(dst_terminal)
    if src_group == dst_group:
        return 0
    count = 0
    for intermediate in range(topology.g):
        if intermediate in (src_group, dst_group):
            continue
        first = len(topology.group_links(src_group, intermediate))
        second = len(topology.group_links(intermediate, dst_group))
        count += first * second
    return count


def group_graph(
    topology: Dragonfly,
    failed_channels: Iterable[GlobalLink] = (),
) -> nx.MultiGraph:
    """The group-level multigraph, optionally minus failed channels.

    A failed link removes both directions of its physical cable.
    """
    import networkx as nx

    failed: Set[Tuple[int, int]] = set()
    for link in failed_channels:
        failed.add((link.src_router, link.src_port))
        channel = topology.fabric.out_channel(link.src_router, link.src_port)
        assert channel is not None
        failed.add((channel.dst.router, channel.dst.port))
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(topology.g))
    for group_i in range(topology.g):
        for group_j in range(group_i + 1, topology.g):
            for link in topology.group_links(group_i, group_j):
                if (link.src_router, link.src_port) in failed:
                    continue
                graph.add_edge(group_i, group_j)
    return graph


def survives_faults(
    topology: Dragonfly,
    failed_channels: Iterable[GlobalLink],
) -> bool:
    """True when every group pair is still connected (possibly via
    intermediate groups) after the given global-channel failures."""
    import networkx as nx

    return nx.is_connected(group_graph(topology, failed_channels))


def group_fault_tolerance(topology: Dragonfly) -> int:
    """Global-channel failures any adversary needs to disconnect groups,
    minus one (i.e. the guaranteed-survivable fault count).

    Equals the edge connectivity of the group multigraph: a maximum-size
    dragonfly (complete group graph) tolerates ``g - 2`` arbitrary
    global-cable failures.
    """
    import networkx as nx

    if topology.g < 2:
        return 0
    return nx.edge_connectivity(group_graph(topology)) - 1
