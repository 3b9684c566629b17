"""The dragonfly and its Figure 6 variant share one grouped base: its
terminals, group identity, global wiring and link indexes."""

import pytest

from repro.core.params import DragonflyParams, TopologyError
from repro.topology.dragonfly import Dragonfly, GroupedTopology
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly


def channel_list(topology):
    return [
        (channel.src, channel.dst, channel.kind, channel.latency)
        for channel in topology.fabric.channels
    ]


@pytest.mark.parametrize("p, a, h, num_groups", [
    (2, 4, 2, None),
    (1, 2, 1, None),
    (4, 8, 4, None),
    (2, 4, 2, 5),
    (2, 4, 2, 7),
    (1, 2, 2, 3),
], ids=["paper72", "tiny", "paper1k", "g5", "g7", "tiny-g3"])
def test_one_dimensional_variant_is_the_dragonfly(p, a, h, num_groups):
    """A variant whose group is one complete dimension of ``a`` routers
    is the dragonfly channel for channel, in order, with the same link
    indexes."""
    dragonfly = Dragonfly(DragonflyParams(p, a, h, num_groups))
    variant = FlattenedButterflyGroupDragonfly(p, (a,), h, num_groups or 0)
    assert channel_list(variant) == channel_list(dragonfly)
    assert variant._group_links == dragonfly._group_links
    assert variant._router_global_links == dragonfly._router_global_links
    assert variant.single_link_pairs == dragonfly.single_link_pairs
    assert variant.radix == dragonfly.params.radix
    assert variant.terminals_per_group == dragonfly.params.terminals_per_group
    for terminal in range(dragonfly.num_terminals):
        assert variant.terminal_router(terminal) == dragonfly.terminal_router(terminal)


def test_variant_and_dragonfly_are_siblings():
    """Code that checks for ``Dragonfly`` (routing topology types, the
    invariant audit, the decide kernel) never takes the variant for it,
    and the variant has no ``params`` a cache key could read."""
    variant = FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2), h=2)
    assert isinstance(variant, GroupedTopology)
    assert not isinstance(variant, Dragonfly)
    assert not hasattr(variant, "params")


def test_variant_is_validated_as_dragonfly_params():
    """A negative group count is refused, as ``DragonflyParams`` refuses
    it, instead of building a network of ``g = -1`` groups."""
    with pytest.raises(TopologyError, match="num_groups must be >= 1"):
        FlattenedButterflyGroupDragonfly(1, (2, 2), 2, num_groups=-1)


def test_global_links_of_every_router():
    """Each router records one link per wired global port, leaving it."""
    variant = FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2, 2), h=2)
    for router in range(variant.num_routers):
        links = variant.global_links_of(router)
        assert len(links) == variant.h
        for link in links:
            assert link.src_router == router
            assert variant.is_global_port(link.src_port)
            assert variant.group_of(link.dst_router) == link.dst_group
