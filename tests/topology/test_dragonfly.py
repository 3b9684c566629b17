"""Tests for the dragonfly topology builder, including hypothesis
property tests over arbitrary (p, a, h, g) configurations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_hop_count
from repro.core.params import DragonflyParams, TopologyError
from repro.topology.base import ChannelKind
from repro.topology.dragonfly import Dragonfly, make_dragonfly


@st.composite
def dragonfly_params(draw, max_routers: int = 60):
    """Hypothesis strategy over buildable dragonfly configurations."""
    p = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.integers(min_value=1, max_value=5))
    h = draw(st.integers(min_value=1, max_value=3))
    max_g = min(a * h + 1, max_routers // a)
    g = draw(st.integers(min_value=1, max_value=max(1, max_g)))
    if g > 1 and (g * a * h) % 2:
        g -= 1
    return DragonflyParams(p=p, a=a, h=h, num_groups=max(1, g))


class TestFigure5Example:
    """The concrete N=72 example of the paper's Figure 5."""

    def test_sizes(self, paper72_dragonfly):
        df = paper72_dragonfly
        assert df.num_terminals == 72
        assert df.fabric.num_routers == 36
        assert df.g == 9

    def test_every_router_has_full_radix(self, paper72_dragonfly):
        fabric = paper72_dragonfly.fabric
        for router in range(fabric.num_routers):
            assert fabric.radix(router) == 7

    def test_cable_counts(self, paper72_dragonfly):
        fabric = paper72_dragonfly.fabric
        assert fabric.num_cables(ChannelKind.LOCAL) == 9 * 6
        assert fabric.num_cables(ChannelKind.GLOBAL) == 36

    def test_each_group_pair_connected_once(self, paper72_dragonfly):
        df = paper72_dragonfly
        for group_i in range(df.g):
            for group_j in range(df.g):
                if group_i == group_j:
                    continue
                assert len(df.group_links(group_i, group_j)) == 1

    def test_router_diameter_is_three(self, paper72_dragonfly):
        assert paper72_dragonfly.fabric.router_diameter() == 3


class TestPortLayout:
    def test_port_classes(self, paper72_dragonfly):
        df = paper72_dragonfly
        assert df.is_terminal_port(0) and df.is_terminal_port(1)
        assert all(
            df.fabric.out_channel(0, port).kind is ChannelKind.LOCAL
            for port in (2, 3, 4)
        )
        assert df.is_global_port(5) and df.is_global_port(6)

    def test_local_port_is_symmetric_channel(self, paper72_dragonfly):
        df = paper72_dragonfly
        src, dst = 0, 2  # same group
        channel = df.fabric.out_channel(src, df.local_port(src, dst))
        assert channel.dst.router == dst
        assert channel.dst.port == df.local_port(dst, src)

    def test_local_port_rejects_cross_group(self, paper72_dragonfly):
        with pytest.raises(TopologyError):
            paper72_dragonfly.local_port(0, 10)

    def test_local_port_rejects_self(self, paper72_dragonfly):
        with pytest.raises(TopologyError):
            paper72_dragonfly.local_port(3, 3)

    def test_terminal_mapping(self, paper72_dragonfly):
        df = paper72_dragonfly
        assert df.terminal_router(0) == 0
        assert df.terminal_router(2) == 1
        assert df.terminal_port(3) == 1
        assert df.group_of(df.terminal_router(71)) == 8


class TestGlobalWiring:
    def test_global_links_consistent_with_fabric(self, paper72_dragonfly):
        df = paper72_dragonfly
        for router in range(df.fabric.num_routers):
            for link in df.global_links_of(router):
                channel = df.fabric.out_channel(link.src_router, link.src_port)
                assert channel is not None
                assert channel.kind == ChannelKind.GLOBAL
                assert channel.dst.router == link.dst_router
                assert df.group_of(channel.dst.router) == link.dst_group

    def test_each_router_has_h_global_links(self, paper72_dragonfly):
        df = paper72_dragonfly
        for router in range(df.fabric.num_routers):
            assert len(df.global_links_of(router)) == df.h

    def test_group_links_reciprocal(self, paper72_dragonfly):
        df = paper72_dragonfly
        for i in range(df.g):
            for j in range(i + 1, df.g):
                assert len(df.group_links(i, j)) == len(df.group_links(j, i))


class TestNonMaximalDragonfly:
    def test_distributed_wiring_minimum_guarantee(self):
        df = make_dragonfly(p=2, a=4, h=2, num_groups=5)
        minimum = df.params.min_channels_between_group_pairs()
        assert minimum == 2
        for i in range(df.g):
            for j in range(df.g):
                if i != j:
                    assert len(df.group_links(i, j)) >= minimum

    def test_channel_counts_balanced_within_one(self):
        df = make_dragonfly(p=2, a=4, h=2, num_groups=5)
        counts = [
            len(df.group_links(i, j))
            for i in range(df.g)
            for j in range(i + 1, df.g)
        ]
        assert max(counts) - min(counts) <= 1

    def test_all_ports_used_when_even(self):
        df = make_dragonfly(p=2, a=4, h=2, num_groups=5)
        total = sum(
            len(df.group_links(i, j))
            for i in range(df.g)
            for j in range(i + 1, df.g)
        )
        assert total == df.g * df.a * df.h // 2


class TestTapering:
    def test_tapered_network_has_fewer_global_cables(self):
        full = make_dragonfly(p=2, a=4, h=2, num_groups=5)
        tapered = Dragonfly(
            DragonflyParams(p=2, a=4, h=2, num_groups=5),
            max_channels_per_pair=1,
        )
        assert (
            tapered.fabric.num_cables(ChannelKind.GLOBAL)
            < full.fabric.num_cables(ChannelKind.GLOBAL)
        )
        for i in range(tapered.g):
            for j in range(tapered.g):
                if i != j:
                    assert len(tapered.group_links(i, j)) == 1

    def test_invalid_taper(self):
        with pytest.raises(TopologyError):
            Dragonfly(DragonflyParams(p=2, a=4, h=2), max_channels_per_pair=0)

    #: ``(num_groups, cap)`` of p=2, a=4, h=2 networks whose cap binds:
    #: untapered, g=3 wires 4 channels per pair, g=4 wires 2 or 3 and
    #: g=5 wires 2.
    BINDING = [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1)]

    @staticmethod
    def _pair_counts(df):
        return {
            (i, j): len(df.group_links(i, j))
            for i in range(df.g)
            for j in range(df.g)
            if i != j
        }

    @pytest.mark.parametrize("num_groups,cap", BINDING)
    def test_cap_bounds_every_group_pair(self, num_groups, cap):
        params = DragonflyParams(p=2, a=4, h=2, num_groups=num_groups)
        full = self._pair_counts(Dragonfly(params))
        tapered = Dragonfly(params, max_channels_per_pair=cap)
        expected = {pair: min(cap, count) for pair, count in full.items()}
        assert self._pair_counts(tapered) == expected
        assert tapered.fabric.num_cables(ChannelKind.GLOBAL) == (
            sum(expected.values()) // 2
        )

    @pytest.mark.parametrize("num_groups,cap", BINDING)
    def test_taper_keeps_local_channels_and_connectivity(self, num_groups, cap):
        params = DragonflyParams(p=2, a=4, h=2, num_groups=num_groups)
        full = Dragonfly(params)
        tapered = Dragonfly(params, max_channels_per_pair=cap)
        assert tapered.fabric.num_cables(ChannelKind.LOCAL) == (
            full.fabric.num_cables(ChannelKind.LOCAL)
        )
        assert tapered.fabric.unreachable_router() is None
        for router in range(tapered.fabric.num_routers):
            assert len(tapered.global_links_of(router)) <= tapered.h

    @pytest.mark.parametrize(
        "params,cap",
        [
            (DragonflyParams(p=2, a=4, h=2, num_groups=3), 4),
            (DragonflyParams(p=2, a=4, h=2, num_groups=3), 5),
            (DragonflyParams(p=2, a=4, h=2, num_groups=4), 3),
            (DragonflyParams(p=2, a=4, h=2, num_groups=5), 2),
            (DragonflyParams.paper_example_72(), 1),
        ],
    )
    def test_cap_at_or_above_untapered_count_removes_nothing(self, params, cap):
        full = Dragonfly(params)
        tapered = Dragonfly(params, max_channels_per_pair=cap)
        assert self._pair_counts(tapered) == self._pair_counts(full)
        assert tapered.fabric.num_cables() == full.fabric.num_cables()


class TestMinimalHopCount:
    def test_same_router(self, paper72_dragonfly):
        assert minimal_hop_count(paper72_dragonfly, 0, 1) == 0

    def test_same_group(self, paper72_dragonfly):
        assert minimal_hop_count(paper72_dragonfly, 0, 2) == 1

    def test_cross_group_at_most_three(self, paper72_dragonfly):
        df = paper72_dragonfly
        for src in range(0, df.num_terminals, 7):
            for dst in range(0, df.num_terminals, 5):
                if df.group_of(df.terminal_router(src)) != df.group_of(
                    df.terminal_router(dst)
                ):
                    assert 1 <= minimal_hop_count(df, src, dst) <= 3


@given(dragonfly_params())
@settings(max_examples=30, deadline=None)
def test_dragonfly_structure_invariants(params):
    """Property: any buildable configuration yields a consistent fabric."""
    df = Dragonfly(params)
    fabric = df.fabric
    assert fabric.num_terminals == params.num_terminals
    assert fabric.num_cables(ChannelKind.LOCAL) == params.g * (params.a * (params.a - 1) // 2)
    if params.g > 1:
        # Connectivity between every pair of groups.
        for i in range(params.g):
            for j in range(params.g):
                if i != j:
                    assert df.group_links(i, j)
    # No router exceeds the radix budget.
    assert fabric.max_radix() <= params.radix
    # The router graph is connected (validated at build, re-check).
    if fabric.num_routers > 1:
        assert fabric.unreachable_router() is None


@given(dragonfly_params())
@settings(max_examples=20, deadline=None)
def test_global_diameter_is_one(params):
    """Property: minimal routes cross at most one global channel, i.e.
    every group pair is directly connected (the paper's unity global
    diameter)."""
    df = Dragonfly(params)
    for src in range(0, params.num_terminals, max(1, params.num_terminals // 10)):
        for dst in range(0, params.num_terminals, max(1, params.num_terminals // 10)):
            if src != dst:
                assert minimal_hop_count(df, src, dst) <= 3
