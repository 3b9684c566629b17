"""Tests for flattened-butterfly routing and simulation (extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ZeroCongestion, check_invariants
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import FbAdversarial, make_pattern
from repro.routing.fb_paths import RouterPlan, fb_next_hop, router_valiant_plan
from repro.routing.paths import walk_route
from repro.routing.tables import FbLowering
from repro.routing.ugal import make_routing
from repro.topology.flattened_butterfly import FlattenedButterfly


@pytest.fixture(scope="module")
def fb():
    return FlattenedButterfly(dims=(4, 4), concentration=4)


def _walk_hops(topology, src_router, dst_terminal, plan):
    """Channel hops of ``plan`` as the simulator walks it: over the
    compiled tables."""
    routes = make_routing("FB-VAL").hop_memo(topology)
    return routes.candidate(plan, src_router, topology.terminal_router(dst_terminal))[2]


def _route_reaches(topology, src_terminal, dst_terminal, plan):
    src_router = topology.terminal_router(src_terminal)
    trace = walk_route(topology, fb_next_hop, src_router, dst_terminal, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst_terminal)
    assert last_port == topology.terminal_port(dst_terminal)
    return trace


class TestFbPlans:
    def test_minimal_is_dimension_order(self, fb):
        plan = RouterPlan(minimal=True)
        trace = _route_reaches(fb, 0, fb.num_terminals - 1, plan)
        # 2 dimension hops + ejection.
        assert len(trace) == 3
        assert _walk_hops(fb, 0, fb.num_terminals - 1, plan) == 2

    def test_minimal_same_router(self, fb):
        plan = RouterPlan(minimal=True)
        trace = _route_reaches(fb, 0, 1, plan)
        assert len(trace) == 1  # direct ejection

    def test_valiant_reaches_destination(self, fb):
        rng = random.Random(3)
        for _ in range(30):
            plan = router_valiant_plan(fb, rng, 0, fb.terminal_router(fb.num_terminals - 1))
            _route_reaches(fb, 0, fb.num_terminals - 1, plan)

    def test_valiant_hop_bound(self, fb):
        rng = random.Random(4)
        for _ in range(30):
            plan = router_valiant_plan(fb, rng, 0, fb.terminal_router(63))
            hops = _walk_hops(fb, 0, 63, plan)
            assert hops <= 2 * len(fb.dims)
            assert hops == len(walk_route(fb, fb_next_hop, 0, 63, plan)) - 1

    def test_valiant_degenerates_on_endpoint_draw(self, fb):
        dst_router = fb.terminal_router(63)
        plan = router_valiant_plan(fb, random.Random(5), 0, fb.terminal_router(63),
                                   intermediate_router=dst_router)
        assert plan.minimal

    def test_vcs_escalate_at_intermediate(self, fb):
        plan = router_valiant_plan(fb, random.Random(6), 0, fb.terminal_router(63),
                                   intermediate_router=5)
        trace = walk_route(fb, fb_next_hop, 0, 63, plan)
        vcs_used = [vc for _, port, vc in trace[:-1]]
        assert vcs_used == sorted(vcs_used)
        assert set(vcs_used) <= {0, 1}


class TestFbUgal:
    def test_idle_network_routes_minimally(self, fb):
        algorithm = make_routing("FB-UGAL-L")
        rng = random.Random(7)
        for dst in (10, 40, 63):
            assert algorithm.decide(ZeroCongestion(), fb, rng, 0, dst).minimal


class TestFbAdversarialPattern:
    def test_targets_next_router_in_dim(self, fb):
        pattern = FbAdversarial(fb, seed=8)
        src_router = fb.terminal_router(0)
        dst_router = fb.terminal_router(pattern(0))
        src_coords, dst_coords = fb.coords_of(src_router), fb.coords_of(dst_router)
        assert dst_coords[-1] == (src_coords[-1] + 1) % fb.dims[-1]
        assert dst_coords[:-1] == src_coords[:-1]

    def test_rejects_non_fb(self, paper72_dragonfly):
        with pytest.raises(TypeError):
            FbAdversarial(paper72_dragonfly)


class TestFbSimulation:
    def _run(self, fb, name, pattern_name, load, drain=6000):
        config = SimulationConfig(
            load=load, warmup_cycles=500, measure_cycles=500,
            drain_max_cycles=drain,
        )
        pattern = make_pattern(pattern_name, fb, seed=11)
        return Simulator(fb, make_routing(name), pattern, config).run()

    def test_all_algorithms_drain_uniform(self, fb):
        for name in ("FB-MIN", "FB-VAL", "FB-UGAL-L"):
            result = self._run(fb, name, "uniform_random", 0.3)
            assert result.drained, name

    def test_min_adversarial_caps_at_1_over_c(self, fb):
        """DOR funnels a router's c terminals onto one channel."""
        result = self._run(fb, "FB-MIN", "fb_adversarial", 0.4, drain=1000)
        assert result.accepted_load == pytest.approx(1 / fb.concentration, rel=0.2)

    def test_ugal_survives_adversarial(self, fb):
        result = self._run(fb, "FB-UGAL-L", "fb_adversarial", 0.4)
        assert result.drained
        assert result.avg_latency < 30

    def test_local_information_is_direct_on_fb(self, fb):
        """The dragonfly paper's contrast: on the FB the congested
        channel sits on the source router, so UGAL-L adapts without the
        dragonfly's intermediate-latency pathology."""
        ugal = self._run(fb, "FB-UGAL-L", "fb_adversarial", 0.35)
        val = self._run(fb, "FB-VAL", "fb_adversarial", 0.35)
        assert ugal.avg_latency < 2 * val.avg_latency

    def test_invariants(self, fb):
        config = SimulationConfig(
            load=0.4, warmup_cycles=300, measure_cycles=300,
            drain_max_cycles=3000,
        )
        pattern = make_pattern("fb_adversarial", fb, seed=12)
        simulator = Simulator(fb, make_routing("FB-UGAL-L"), pattern, config)
        simulator.run()
        check_invariants(simulator)

    def test_tables_compile_once_per_topology_across_a_sweep(self, monkeypatch):
        """A sweep builds a fresh routing for every point; the tables and
        hop memo stay on the topology, one per lowering."""
        compiles = []
        compile_tables = FbLowering.compile

        def counted(lowering):
            compiles.append(lowering)
            return compile_tables(lowering)

        monkeypatch.setattr(FbLowering, "compile", counted)
        topology = FlattenedButterfly(dims=(2, 2), concentration=2)
        for load in (0.1, 0.2, 0.3):
            for name in ("FB-MIN", "FB-VAL", "FB-UGAL-L"):
                config = SimulationConfig(
                    load=load, warmup_cycles=50, measure_cycles=50,
                    drain_max_cycles=500,
                )
                pattern = make_pattern("uniform_random", topology, seed=11)
                Simulator(topology, make_routing(name), pattern, config).run()
        # FB-MIN's minimal lowering, and the non-minimal one FB-VAL and
        # FB-UGAL-L share.
        assert len(compiles) == 2


@given(
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_fb_any_route_reaches(src, dst, seed):
    """Property: every FB plan terminates at its destination."""
    fb = FlattenedButterfly(dims=(4, 4), concentration=4)
    rng = random.Random(seed)
    plan = router_valiant_plan(fb, rng, fb.terminal_router(src), fb.terminal_router(dst))
    trace = walk_route(fb, fb_next_hop, fb.terminal_router(src), dst, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == fb.terminal_router(dst)
    assert last_port == fb.terminal_port(dst)
