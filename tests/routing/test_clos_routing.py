"""Tests for folded-Clos up*/down* routing (extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_invariants, minimal_hop_count
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing.clos_routing import clos_next_hop, clos_plan
from repro.routing.paths import walk_route
from repro.routing.ugal import make_routing
from repro.topology.folded_clos import FoldedClos


@pytest.fixture(scope="module")
def clos():
    return FoldedClos(num_terminals=64, radix=8)


def _route_reaches(topology, src_terminal, dst_terminal, plan):
    src_router = topology.terminal_router(src_terminal)
    trace = walk_route(topology, clos_next_hop, src_router, dst_terminal, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst_terminal)
    assert last_port == topology.terminal_port(dst_terminal)
    return trace


class TestAncestorLevel:
    def test_same_leaf_zero(self, clos):
        assert clos.ancestor_level(0, 0) == 0

    def test_adjacent_leaves(self, clos):
        assert clos.ancestor_level(0, 1) == 1

    def test_far_leaves_full_height(self, clos):
        assert clos.ancestor_level(0, clos.switches_per_level - 1) == clos.levels - 1


class TestClosPlans:
    def test_same_leaf_ejects_directly(self, clos):
        rng = random.Random(1)
        plan = clos_plan(clos, rng, clos.terminal_router(0), clos.terminal_router(1))
        trace = _route_reaches(clos, 0, 1, plan)
        assert len(trace) == 1

    def test_route_length_is_twice_ancestor(self, clos):
        rng = random.Random(2)
        for dst in (2, 17, 63):
            src_router = clos.terminal_router(0)
            plan = clos_plan(clos, rng, src_router, clos.terminal_router(dst))
            trace = _route_reaches(clos, 0, dst, plan)
            assert len(trace) - 1 == 2 * plan.ancestor_level
            assert len(trace) - 1 == minimal_hop_count(clos, 0, dst)

    def test_all_destinations_reachable_random(self, clos):
        rng = random.Random(3)
        for dst in range(clos.num_terminals):
            plan = clos_plan(clos, rng, clos.terminal_router(5), clos.terminal_router(dst))
            _route_reaches(clos, 5, dst, plan)

    def test_all_destinations_reachable_deterministic(self, clos):
        for dst in range(clos.num_terminals):
            plan = clos_plan(
                clos, None, clos.terminal_router(5), clos.terminal_router(dst),
                deterministic=True,
            )
            _route_reaches(clos, 5, dst, plan)

    def test_single_vc_suffices(self, clos):
        rng = random.Random(4)
        plan = clos_plan(clos, rng, clos.terminal_router(0), clos.terminal_router(63))
        trace = walk_route(clos, clos_next_hop, clos.terminal_router(0), 63, plan)
        assert all(vc == 0 for _, _, vc in trace)

    def test_up_then_down_never_up_again(self, clos):
        rng = random.Random(5)
        plan = clos_plan(clos, rng, clos.terminal_router(0), clos.terminal_router(63))
        trace = walk_route(clos, clos_next_hop, clos.terminal_router(0), 63, plan)
        levels = [clos.level_of(router) for router, _, _ in trace]
        peak = levels.index(max(levels))
        assert levels[:peak + 1] == sorted(levels[:peak + 1])
        assert levels[peak:] == sorted(levels[peak:], reverse=True)


class TestClosSimulation:
    def _run(self, clos, name, pattern_name, load):
        config = SimulationConfig(
            load=load, warmup_cycles=400, measure_cycles=400,
            drain_max_cycles=8000,
        )
        pattern = make_pattern(pattern_name, clos, seed=6)
        return Simulator(clos, make_routing(name), pattern, config).run()

    def test_random_up_is_load_balanced(self, clos):
        result = self._run(clos, "CLOS-RAND", "uniform_random", 0.5)
        assert result.drained
        assert result.avg_latency < 15

    def test_deterministic_up_congests(self, clos):
        """d-mod-k up-routing concentrates load: same traffic, far worse
        latency -- the motivation for randomised/adaptive up-routing."""
        rand = self._run(clos, "CLOS-RAND", "shift", 0.3)
        det = self._run(clos, "CLOS-DET", "shift", 0.3)
        assert det.avg_latency > 3 * rand.avg_latency

    def test_invariants(self, clos):
        config = SimulationConfig(
            load=0.4, warmup_cycles=300, measure_cycles=300,
            drain_max_cycles=3000,
        )
        pattern = make_pattern("uniform_random", clos, seed=7)
        simulator = Simulator(clos, make_routing("CLOS-RAND"), pattern, config)
        simulator.run()
        check_invariants(simulator)


_PROPERTY_CLOS = FoldedClos(num_terminals=64, radix=8)


@given(
    src=st.integers(min_value=0, max_value=63),
    dst=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_clos_any_route_reaches(src, dst, seed):
    clos = _PROPERTY_CLOS
    rng = random.Random(seed)
    plan = clos_plan(clos, rng, clos.terminal_router(src), clos.terminal_router(dst))
    trace = walk_route(clos, clos_next_hop, clos.terminal_router(src), dst, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == clos.terminal_router(dst)
    assert last_port == clos.terminal_port(dst)
