"""Tests for torus routing (dateline DOR and Valiant, extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_invariants, minimal_hop_count
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import TorusTornado, make_pattern
from repro.routing.fb_paths import RouterPlan, router_valiant_plan
from repro.routing.paths import walk_route
from repro.routing.torus_routing import torus_next_hop
from repro.routing.ugal import make_routing
from repro.topology.torus import Torus


@pytest.fixture(scope="module")
def torus():
    return Torus(dims=(4, 4), concentration=2)


def _route_reaches(topology, src_terminal, dst_terminal, plan):
    src_router = topology.terminal_router(src_terminal)
    trace = walk_route(topology, torus_next_hop, src_router, dst_terminal, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst_terminal)
    assert last_port == topology.terminal_port(dst_terminal)
    return trace


class TestDatelineDor:
    def test_reaches_all_destinations(self, torus):
        plan = RouterPlan(minimal=True)
        for dst in range(torus.num_terminals):
            _route_reaches(torus, 0, dst, plan)

    def test_hop_count_is_ring_distance(self, torus):
        plan = RouterPlan(minimal=True)
        for dst in range(0, torus.num_terminals, 3):
            trace = _route_reaches(torus, 0, dst, plan)
            assert len(trace) - 1 == minimal_hop_count(torus, 0, dst)

    def test_takes_shorter_ring_direction(self, torus):
        """0 -> coordinate 3 in a size-4 ring wraps backwards (1 hop)."""
        plan = RouterPlan(minimal=True)
        dst_router = torus.router_at((3, 0))
        trace = _route_reaches(torus, 0, dst_router * 2, plan)
        assert len(trace) - 1 == 1

    def test_wrapping_hop_uses_dateline_vc(self, torus):
        plan = RouterPlan(minimal=True)
        dst_router = torus.router_at((3, 0))  # one hop backwards, wraps
        trace = _route_reaches(torus, 0, dst_router * 2, plan)
        (router, port, vc) = trace[0]
        assert vc == 1

    def test_non_wrapping_route_stays_on_vc0(self, torus):
        plan = RouterPlan(minimal=True)
        dst_router = torus.router_at((1, 1))
        trace = _route_reaches(torus, 0, dst_router * 2, plan)
        for _, port, vc in trace[:-1]:
            assert vc == 0

    def test_vc_resets_between_dimensions(self, torus):
        """Wrap in dim 0, then a fresh dim-1 traversal starts on VC0."""
        plan = RouterPlan(minimal=True)
        dst_router = torus.router_at((3, 1))
        trace = _route_reaches(torus, 0, dst_router * 2, plan)
        vcs = [vc for _, port, vc in trace[:-1]]
        assert vcs[0] == 1  # dim-0 wrap
        assert vcs[1] == 0  # dim-1 fresh


class TestTorusValiant:
    def test_reaches_destination(self, torus):
        rng = random.Random(5)
        for _ in range(40):
            plan = router_valiant_plan(torus, rng, 0, torus.terminal_router(31))
            _route_reaches(torus, 0, 31, plan)

    def test_vcs_partition_by_phase(self, torus):
        plan = router_valiant_plan(
            torus, random.Random(6), 0, torus.terminal_router(30),
            intermediate_router=9,
        )
        trace = walk_route(torus, torus_next_hop, 0, 30, plan)
        phase = 0
        for router, port, vc in trace[:-1]:
            if vc >= 2:
                phase = 1
            if phase == 0:
                assert vc < 2
            else:
                assert vc >= 2

    def test_degenerates_on_endpoint_draw(self, torus):
        plan = router_valiant_plan(
            torus, random.Random(7), 0, torus.terminal_router(31),
            intermediate_router=0,
        )
        assert plan.minimal


class TestTornadoPattern:
    def test_offset_is_half_ring(self, torus):
        pattern = TorusTornado(torus, seed=8)
        src_router = torus.terminal_router(0)
        dst_router = torus.terminal_router(pattern(0))
        src_coords, dst_coords = torus.coords_of(src_router), torus.coords_of(dst_router)
        assert dst_coords[0] == (src_coords[0] + 1) % 4  # (4-1)//2 = 1
        assert dst_coords[1:] == src_coords[1:]

    def test_rejects_non_torus(self, paper72_dragonfly):
        with pytest.raises(TypeError):
            TorusTornado(paper72_dragonfly)


class TestTorusSimulation:
    def _run(self, torus, name, pattern_name, load):
        config = SimulationConfig(
            load=load, warmup_cycles=400, measure_cycles=400,
            drain_max_cycles=6000, num_vcs=4,
        )
        pattern = make_pattern(pattern_name, torus, seed=9)
        return Simulator(torus, make_routing(name), pattern, config).run()

    def test_dor_drains_uniform(self, torus):
        result = self._run(torus, "TORUS-DOR", "uniform_random", 0.2)
        assert result.drained

    def test_valiant_drains(self, torus):
        result = self._run(torus, "TORUS-VAL", "uniform_random", 0.15)
        assert result.drained

    def test_invariants(self, torus):
        config = SimulationConfig(
            load=0.3, warmup_cycles=300, measure_cycles=300,
            drain_max_cycles=3000, num_vcs=4,
        )
        pattern = make_pattern("torus_tornado", torus, seed=10)
        simulator = Simulator(torus, make_routing("TORUS-DOR"), pattern, config)
        simulator.run()
        check_invariants(simulator)


@given(
    src=st.integers(min_value=0, max_value=31),
    dst=st.integers(min_value=0, max_value=31),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=50, deadline=None)
def test_torus_any_route_reaches(src, dst, seed):
    torus = Torus(dims=(4, 4), concentration=2)
    rng = random.Random(seed)
    plan = router_valiant_plan(torus, rng, torus.terminal_router(src), torus.terminal_router(dst))
    trace = walk_route(torus, torus_next_hop, torus.terminal_router(src), dst, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == torus.terminal_router(dst)
    assert last_port == torus.terminal_port(dst)
