"""Tests for the shared Fabric wiring representation."""

import networkx as nx
import pytest

from repro.check.registry import default_configurations
from repro.topology.base import ChannelKind, Fabric, PortRef


def two_router_fabric():
    fabric = Fabric(num_routers=2)
    fabric.add_terminal(router=0, port=0)
    fabric.add_terminal(router=1, port=0)
    fabric.connect(PortRef(0, 1), PortRef(1, 1), ChannelKind.LOCAL, latency=3)
    return fabric


class TestConstruction:
    def test_connect_creates_both_directions(self):
        fabric = two_router_fabric()
        assert fabric.num_channels == 2
        forward = fabric.out_channel(0, 1)
        backward = fabric.out_channel(1, 1)
        assert forward.dst == PortRef(1, 1)
        assert backward.dst == PortRef(0, 1)
        assert forward.latency == backward.latency == 3

    def test_port_collision_rejected(self):
        fabric = two_router_fabric()
        with pytest.raises(ValueError):
            fabric.connect(PortRef(0, 1), PortRef(1, 2), ChannelKind.LOCAL)

    def test_terminal_port_collision_rejected(self):
        fabric = two_router_fabric()
        with pytest.raises(ValueError):
            fabric.add_terminal(router=0, port=0)

    def test_self_loop_rejected(self):
        fabric = Fabric(num_routers=2)
        with pytest.raises(ValueError):
            fabric.connect(PortRef(0, 0), PortRef(0, 1), ChannelKind.LOCAL)

    def test_router_out_of_range(self):
        fabric = Fabric(num_routers=2)
        with pytest.raises(ValueError):
            fabric.add_terminal(router=5, port=0)

    def test_needs_at_least_one_router(self):
        with pytest.raises(ValueError):
            Fabric(num_routers=0)


class TestQueries:
    def test_radix_counts_all_wired_ports(self):
        fabric = two_router_fabric()
        assert fabric.radix(0) == 2  # one terminal + one channel

    def test_terminal_lookup(self):
        fabric = two_router_fabric()
        assert fabric.is_terminal_port(0, 0)
        assert not fabric.is_terminal_port(0, 1)
        assert fabric.terminal_at(0, 0).index == 0
        assert fabric.terminal_at(0, 1) is None

    def test_out_channel_none_for_terminal_port(self):
        fabric = two_router_fabric()
        assert fabric.out_channel(0, 0) is None

    def test_neighbors(self):
        fabric = two_router_fabric()
        assert fabric.neighbors(0) == [1]

    def test_num_cables_by_kind(self):
        fabric = two_router_fabric()
        assert fabric.num_cables() == 1
        assert fabric.num_cables(ChannelKind.LOCAL) == 1
        assert fabric.num_cables(ChannelKind.GLOBAL) == 0

    def test_bidirectional_links_pairs_forward_backward(self):
        fabric = two_router_fabric()
        (pair,) = list(fabric.bidirectional_links())
        forward, backward = pair
        assert forward.src == backward.dst
        assert forward.dst == backward.src


class TestGraphExport:
    def test_connectivity(self):
        fabric = two_router_fabric()
        assert fabric.unreachable_router() is None
        assert fabric.router_diameter() == 1

    def test_validate_detects_disconnection(self):
        fabric = Fabric(num_routers=3)
        fabric.connect(PortRef(0, 0), PortRef(1, 0), ChannelKind.LOCAL)
        with pytest.raises(ValueError):
            fabric.validate()

    def test_disconnection_names_an_unreachable_router(self):
        """Two islands {0, 1, 2} and {3, 4}: the error names router 3."""
        fabric = Fabric(num_routers=5)
        fabric.connect(PortRef(0, 0), PortRef(1, 0), ChannelKind.LOCAL)
        fabric.connect(PortRef(1, 1), PortRef(2, 0), ChannelKind.LOCAL)
        fabric.connect(PortRef(3, 0), PortRef(4, 0), ChannelKind.LOCAL)
        assert fabric.unreachable_router() == 3
        with pytest.raises(
            ValueError,
            match=r"^fabric is not connected: router 3 unreachable from router 0$",
        ):
            fabric.validate()

    def test_isolated_router_is_named(self):
        fabric = Fabric(num_routers=3)
        fabric.connect(PortRef(0, 0), PortRef(2, 0), ChannelKind.GLOBAL)
        with pytest.raises(ValueError, match="router 1 unreachable"):
            fabric.validate()

    def test_single_router_is_connected(self):
        fabric = Fabric(num_routers=1)
        fabric.add_terminal(router=0, port=0)
        assert fabric.unreachable_router() is None
        fabric.validate()

    def test_validate_passes_on_connected(self):
        two_router_fabric().validate()

    def test_diameter_of_disconnected_fabric_names_the_router(self):
        with pytest.raises(ValueError, match=r"router 1 unreachable from router 0"):
            Fabric(3).router_diameter()

    def test_single_router_diameter_is_zero(self):
        assert Fabric(num_routers=1).router_diameter() == 0


@pytest.mark.parametrize("configuration", default_configurations(), ids=lambda c: c.name)
def test_router_diameter_matches_networkx(configuration):
    """The breadth-first diameter against ``nx.diameter`` on the
    router graph, one edge per cable."""
    fabric = configuration.lowering.topology.fabric
    reference = nx.Graph()
    reference.add_nodes_from(range(fabric.num_routers))
    reference.add_edges_from(
        (forward.src.router, forward.dst.router)
        for forward, _ in fabric.bidirectional_links()
    )
    assert fabric.router_diameter() == nx.diameter(reference)

