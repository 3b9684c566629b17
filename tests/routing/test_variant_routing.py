"""Tests for routing on Figure 6 group-variant dragonflies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_invariants
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing.paths import walk_route
from repro.routing.ugal import make_routing
from repro.routing.variant_paths import (
    variant_minimal_plan,
    variant_next_hop,
    variant_valiant_plan,
)
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly


@pytest.fixture(scope="module")
def cube_df():
    """Figure 6(b): 2x2x2 cube groups, p=h=2, k'=32, g=17, N=272."""
    return FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2, 2), h=2)


def _route_reaches(topology, src_terminal, dst_terminal, plan):
    src_router = topology.terminal_router(src_terminal)
    trace = walk_route(topology, variant_next_hop, src_router, dst_terminal, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst_terminal)
    assert last_port == topology.terminal_port(dst_terminal)
    return trace


class TestVariantPlans:
    def test_minimal_reaches_cross_group(self, cube_df):
        rng = random.Random(1)
        plan = variant_minimal_plan(cube_df, rng, 0, cube_df.num_terminals - 1)
        trace = _route_reaches(cube_df, 0, cube_df.num_terminals - 1, plan)
        # <= 3 local + 1 global + <= 3 local + ejection.
        assert len(trace) <= 8

    def test_minimal_single_global_hop(self, cube_df):
        rng = random.Random(2)
        plan = variant_minimal_plan(cube_df, rng, 0, cube_df.num_terminals - 1)
        assert plan.gc1 is not None and plan.gc2 is None

    def test_intra_group_route(self, cube_df):
        rng = random.Random(3)
        plan = variant_minimal_plan(cube_df, rng, 0, 15)  # same group
        assert plan.gc1 is None
        trace = _route_reaches(cube_df, 0, 15, plan)
        assert len(trace) - 1 <= 3  # DOR in a 2x2x2 cube

    def test_valiant_reaches(self, cube_df):
        rng = random.Random(4)
        for _ in range(25):
            plan = variant_valiant_plan(cube_df, rng, 0, 260)
            _route_reaches(cube_df, 0, 260, plan)

    def test_candidate_matches_trace(self, cube_df):
        rng = random.Random(5)
        for dst in (17, 100, 260):
            plan = variant_valiant_plan(cube_df, rng, 0, dst)
            trace = walk_route(cube_df, variant_next_hop, 0, dst, plan)
            routes = make_routing("VAR-VAL").hop_memo(cube_df)
            dst_router = cube_df.terminal_router(dst)
            assert routes.candidate(plan, 0, dst_router) == (
                trace[0][1], trace[0][2], len(trace) - 1
            )

    def test_vcs_nondecreasing(self, cube_df):
        rng = random.Random(6)
        for _ in range(25):
            plan = variant_valiant_plan(cube_df, rng, 0, 260)
            trace = walk_route(cube_df, variant_next_hop, 0, 260, plan)
            vcs_used = [vc for _, port, vc in trace[:-1]]
            assert vcs_used == sorted(vcs_used)


class TestVariantSimulation:
    def _run(self, topology, name, pattern_name, load, drain=8000):
        config = SimulationConfig(
            load=load, warmup_cycles=400, measure_cycles=400,
            drain_max_cycles=drain,
        )
        pattern = make_pattern(pattern_name, topology, seed=7)
        return Simulator(
            topology, make_routing(name), pattern, config
        ).run()

    def test_min_wc_caps_at_1_over_ah(self, cube_df):
        """a=8, h=2: the Figure 6(b) network's MIN bound is 1/16."""
        result = self._run(cube_df, "VAR-MIN", "worst_case", 0.2, drain=800)
        assert result.accepted_load == pytest.approx(1 / 16, rel=0.2)

    def test_valiant_survives_wc(self, cube_df):
        result = self._run(cube_df, "VAR-VAL", "worst_case", 0.15)
        assert result.drained
        assert result.avg_latency < 20

    def test_ugal_adapts(self, cube_df):
        result = self._run(cube_df, "VAR-UGAL-L", "worst_case", 0.15)
        assert result.drained

    def test_uniform_all_algorithms(self, cube_df):
        for name in ("VAR-MIN", "VAR-VAL", "VAR-UGAL-L"):
            result = self._run(cube_df, name, "uniform_random", 0.2)
            assert result.drained, name

    def test_invariants(self, cube_df):
        config = SimulationConfig(
            load=0.2, warmup_cycles=300, measure_cycles=300,
            drain_max_cycles=3000,
        )
        pattern = make_pattern("worst_case", cube_df, seed=8)
        simulator = Simulator(
            cube_df, make_routing("VAR-UGAL-L"), pattern, config
        )
        simulator.run()
        check_invariants(simulator)


_PROPERTY_TOPOLOGY = FlattenedButterflyGroupDragonfly(
    p=2, group_dims=(2, 2, 2), h=2
)


@given(
    src=st.integers(min_value=0, max_value=271),
    dst=st.integers(min_value=0, max_value=271),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_variant_any_route_reaches(src, dst, seed):
    topology = _PROPERTY_TOPOLOGY
    rng = random.Random(seed)
    plan = variant_valiant_plan(topology, rng, topology.terminal_router(src), dst)
    trace = walk_route(topology, variant_next_hop, topology.terminal_router(src), dst, plan)
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst)
    assert last_port == topology.terminal_port(dst)
