"""The one link picker of every grouped topology, and the hop count it
scores.

``paths._pick_best_link`` chooses the global links of dragonfly plans,
of Figure 6 group-variant plans and of a degraded fabric's plans.  Its
draw rule is part of the determinism contract: a group pair with one
link draws nothing, any other draws exactly once.  It scores links by
the topology's ``intra_group_hops``, which must count the local steps
the executor takes (``local_port``, repeated).
"""

import random

import pytest

from repro.core.params import DragonflyParams
from repro.routing.paths import _pick_best_link
from repro.topology.base import ChannelKind
from repro.topology.dragonfly import Dragonfly
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly

#: name -> (builder, the number of links every group pair has).
TOPOLOGIES = {
    "paper-72": (lambda: Dragonfly(DragonflyParams.paper_example_72()), 1),
    "nonmax-two-links": (
        lambda: Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=5)), 2,
    ),
    "fig6b-cube": (
        lambda: FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2, 2), h=2), 1,
    ),
}


class CountingRandom(random.Random):
    """A seeded generator that counts its ``randrange`` calls."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.draws = 0

    def randrange(self, *args, **kwargs):
        self.draws += 1
        return super().randrange(*args, **kwargs)


@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_picker_draws_only_between_several_links(name):
    """On a single-link pair the generator's state is untouched; on a
    multi-link pair one ``randrange`` is drawn, even where a single
    link scores best."""
    build, links_per_pair = TOPOLOGIES[name]
    topology = build()
    a = topology.a
    for src_group in range(topology.g):
        for dst_group in range(topology.g):
            if src_group == dst_group:
                continue
            links = topology.group_links(src_group, dst_group)
            assert len(links) == links_per_pair
            for src_router in range(src_group * a, (src_group + 1) * a):
                for dst_router in (None, dst_group * a):
                    rng = CountingRandom(7)
                    state = rng.getstate()
                    link = _pick_best_link(topology, links, rng, src_router, dst_router)
                    assert link in links
                    if links_per_pair == 1:
                        assert rng.draws == 0
                        assert rng.getstate() == state
                    else:
                        assert rng.draws == 1


@pytest.mark.parametrize("name", list(TOPOLOGIES))
def test_intra_group_hops_counts_the_executors_local_steps(name):
    """For every ordered router pair of every group, ``intra_group_hops``
    is the number of ``local_port`` steps from the first router to the
    second, followed through the fabric's channels."""
    topology = TOPOLOGIES[name][0]()
    fabric = topology.fabric
    a = topology.a
    for group in range(topology.g):
        routers = range(group * a, (group + 1) * a)
        for src_router in routers:
            for dst_router in routers:
                router, steps = src_router, 0
                while router != dst_router:
                    channel = fabric.out_channel(
                        router, topology.local_port(router, dst_router)
                    )
                    assert channel.kind is ChannelKind.LOCAL
                    router = channel.dst.router
                    steps += 1
                    assert steps < a
                assert topology.intra_group_hops(src_router, dst_router) == steps
