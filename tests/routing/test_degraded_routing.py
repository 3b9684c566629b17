"""Tests for ``TBL-MIN`` / ``TBL-MIN/gcK``: the table routing that
simulates detour-recompiled tables, its rule the degraded lowering's."""

import random

import pytest

from hop_walk import memo_walk
from repro.core.params import DragonflyParams, TopologyError
from repro.network.config import SimulationConfig
from repro.network.parallel import SweepExecutor
from repro.routing.tables import DegradedDragonflyLowering, TableRouting
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly
from repro.topology.faults import canonical_global_faults


@pytest.fixture(scope="module")
def paper72():
    return Dragonfly(DragonflyParams.paper_example_72())


def walk(routing, topology, src_terminal, dst_terminal, seed=0):
    """Decide, then walk the routing's hop memo to ejection; returns the
    (router, port, vc) trace exactly as the simulator would execute it."""
    rng = random.Random(seed)
    router = topology.terminal_router(src_terminal)
    plan = routing.decide(None, topology, rng, router, dst_terminal)
    trace = memo_walk(routing.hop_memo(topology), topology, router, dst_terminal, plan)
    assert len(trace) <= 12
    assert trace[-1][0] == topology.terminal_router(dst_terminal)
    assert all(not topology.is_terminal_port(port) for _, port, _ in trace[:-1])
    return trace


class TestFactoryNames:
    def test_healthy_name(self, paper72):
        routing = make_routing("TBL-MIN")
        assert isinstance(routing, TableRouting)
        assert not routing.hop_memo(paper72).lowering.faults
        assert routing.name == "TBL-MIN"

    def test_degraded_name_parses_pair_count(self, paper72):
        routing = make_routing("TBL-MIN/gc3")
        lowering = routing.hop_memo(paper72).lowering
        assert isinstance(lowering, DegradedDragonflyLowering)
        assert lowering.faults == canonical_global_faults(paper72, 3)
        assert routing.name == "TBL-MIN/gc3"

    def test_bad_suffix_names_the_convention(self):
        with pytest.raises(ValueError, match="TBL-MIN/gcK"):
            make_routing("TBL-MIN/gcfoo")

    def test_negative_pairs_rejected(self, paper72):
        with pytest.raises(ValueError, match="TBL-MIN/gcK"):
            make_routing("TBL-MIN/gc-1")
        with pytest.raises(TopologyError, match="negative"):
            canonical_global_faults(paper72, -1)

    def test_unknown_name_mentions_table_routings(self):
        with pytest.raises(ValueError, match="TBL-MIN"):
            make_routing("no-such-routing")


class TestTableWalks:
    def test_surviving_pairs_route_minimally(self, paper72):
        routing = make_routing("TBL-MIN/gc1")
        # Groups 6 and 7 keep their cable (only pair (0,1) is severed).
        src = 6 * paper72.a * paper72.p
        dst = 7 * paper72.a * paper72.p
        trace = walk(routing, paper72, src, dst)
        global_hops = [
            (router, port) for router, port, _ in trace
            if paper72.is_global_port(port)
        ]
        assert len(global_hops) == 1

    def test_severed_pair_takes_the_detour(self, paper72):
        routing = make_routing("TBL-MIN/gc1")
        faults = canonical_global_faults(paper72, 1)
        src = 0  # terminal in group 0
        dst = 1 * paper72.a * paper72.p  # terminal in group 1
        trace = walk(routing, paper72, src, dst)
        global_hops = [
            (router, port) for router, port, _ in trace
            if paper72.is_global_port(port)
        ]
        # Third-group detour: two global hops, neither over a dead cable.
        assert len(global_hops) == 2
        for router, port in global_hops:
            channel = paper72.fabric.out_channel(router, port)
            assert not faults.link_dead(channel.src.router, channel.dst.router)

    def test_intra_group_routes_stay_local(self, paper72):
        routing = make_routing("TBL-MIN/gc2")
        trace = walk(routing, paper72, 0, 3)
        assert not any(
            paper72.is_global_port(port) for _, port, _ in trace
        )

    def test_every_pair_delivers_on_degraded_fabric(self, paper72):
        routing = make_routing("TBL-MIN/gc3")
        # walk() asserts delivery at the destination router.
        terminals = range(0, paper72.num_terminals, 7)
        for src in terminals:
            for dst in terminals:
                if src != dst:
                    walk(routing, paper72, src, dst)

    def test_tables_compiled_once_per_topology(self, paper72):
        routing = make_routing("TBL-MIN/gc1")
        walk(routing, paper72, 0, 30)
        routes = routing.hop_memo(paper72)
        walk(routing, paper72, 0, 40)
        assert routing.hop_memo(paper72) is routes
        tiny = Dragonfly(DragonflyParams(p=1, a=2, h=1))
        assert routing.hop_memo(tiny) is not routes
        assert routing.hop_memo(paper72) is routes
        # Kept on the topology: routings built alike share them.
        assert make_routing("TBL-MIN/gc1").hop_memo(paper72) is routes
        assert make_routing("TBL-MIN/gc2").hop_memo(paper72) is not routes


class TestSimulation:
    def test_degraded_routing_simulates_and_delivers(self, paper72):
        config = SimulationConfig(
            load=0.1, seed=2, warmup_cycles=100, measure_cycles=100,
            drain_max_cycles=2000,
        )
        result = SweepExecutor().run_point(
            paper72, "TBL-MIN/gc2", "uniform_random", config
        )
        assert not result.saturated
        assert result.accepted_load > 0.08
