"""Tests for the Figure 6 group variants (flattened-butterfly groups)."""

import pytest

from repro.core.params import TopologyError
from repro.topology.base import ChannelKind
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly


class TestFigure6b:
    """3-D flattened butterfly (2x2x2 cube) intra-group network."""

    def make(self, num_groups=0):
        return FlattenedButterflyGroupDragonfly(
            p=2, group_dims=(2, 2, 2), h=2, num_groups=num_groups
        )

    def test_router_radix_is_7(self):
        variant = self.make(num_groups=3)
        assert variant.radix == 2 + 3 + 2  # p + one port per dim + h

    def test_effective_radix_doubles_figure5(self):
        """k' goes from 16 (Figure 5) to 32 with the same k=7 router."""
        variant = self.make(num_groups=3)
        assert variant.a == 8
        assert variant.effective_radix == 32

    def test_max_group_count(self):
        variant = self.make()
        assert variant.g == 8 * 2 + 1  # a*h + 1 = 17

    def test_intra_group_hops_bounded_by_dims(self):
        variant = self.make(num_groups=3)
        for src in variant.fabric.ports(0) and range(8):
            for dst in range(8):
                hops = variant.intra_group_hops(src, dst)
                assert hops <= 3
                assert (hops == 0) == (src == dst)

    def test_group_connectivity(self):
        variant = self.make(num_groups=3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert variant.group_links(i, j)

    def test_fabric_connected(self):
        variant = self.make(num_groups=3)
        assert variant.fabric.unreachable_router() is None


def test_coordinates_and_hops_agree_with_local_router_at():
    """Uneven dimensions: coordinates round-trip in every group, and the
    hop count is the number of coordinates that differ."""
    variant = FlattenedButterflyGroupDragonfly(
        p=1, group_dims=(3, 2), h=1, num_groups=3
    )
    coords = [(x, y) for x in range(3) for y in range(2)]
    for group in range(variant.g):
        for src in coords:
            src_router = variant.local_router_at(group, src)
            assert variant.coords_of(src_router) == src
            for dst in coords:
                dst_router = variant.local_router_at(group, dst)
                assert variant.intra_group_hops(src_router, dst_router) == sum(
                    s != d for s, d in zip(src, dst)
                )


class TestFigure6a:
    """2-D flattened butterfly group exploiting packaging locality."""

    def test_same_effective_radix_as_figure5(self):
        variant = FlattenedButterflyGroupDragonfly(
            p=2, group_dims=(2, 2), h=2, num_groups=3
        )
        assert variant.a == 4
        assert variant.effective_radix == 16  # same k' as Figure 5
        # but one fewer local port (2 dims of size 2 -> 2 ports vs 3).
        assert variant.local_ports == 2


class TestValidation:
    def test_rejects_bad_dims(self):
        with pytest.raises(TopologyError):
            FlattenedButterflyGroupDragonfly(p=2, group_dims=(), h=2)

    def test_rejects_too_many_groups(self):
        with pytest.raises(TopologyError):
            FlattenedButterflyGroupDragonfly(
                p=2, group_dims=(2, 2), h=1, num_groups=10
            )

    def test_rejects_odd_endpoints(self):
        with pytest.raises(TopologyError):
            FlattenedButterflyGroupDragonfly(
                p=1, group_dims=(3,), h=1, num_groups=3
            )

    def test_global_port_range(self):
        variant = FlattenedButterflyGroupDragonfly(
            p=2, group_dims=(2, 2), h=2, num_groups=3
        )
        with pytest.raises(TopologyError):
            variant.global_port(2)


class TestScaling:
    def test_max_size_wiring_one_channel_per_pair(self):
        variant = FlattenedButterflyGroupDragonfly(
            p=1, group_dims=(2,), h=1, num_groups=0
        )
        assert variant.g == 3
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert len(variant.group_links(i, j)) == 1

    def test_global_cable_count(self):
        variant = FlattenedButterflyGroupDragonfly(
            p=2, group_dims=(2, 2, 2), h=2, num_groups=17
        )
        assert variant.fabric.num_cables(ChannelKind.GLOBAL) == 17 * 16 // 2
