"""Tests for route-plan construction and execution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import plan_hops
from repro.core.params import DragonflyParams, TopologyError
from repro.network.packet import RoutePlan
from repro.routing.paths import minimal_plan, next_hop, valiant_plan, walk_route
from repro.routing import vc_assignment as vcs
from repro.routing.tables import DragonflyLowering
from repro.topology.dragonfly import Dragonfly


def EXECUTOR(topology, router, plan, progress, dst_terminal):
    """The dragonfly executor (canonical VC assignment) the certifier
    walks and the simulator's hop memo is filled from."""
    lowering = DragonflyLowering(topology, vcs.CANONICAL, include_nonminimal=True)
    return lowering.next_hop(topology, router, plan, progress, dst_terminal)


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


def _route_reaches(topology, src_terminal, dst_terminal, plan):
    trace = walk_route(
        topology, EXECUTOR, topology.terminal_router(src_terminal),
        dst_terminal, plan,
    )
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst_terminal)
    assert last_port == topology.terminal_port(dst_terminal)
    return trace


class TestMinimalPlan:
    def test_reaches_destination(self, df):
        rng = random.Random(1)
        for src, dst in [(0, 71), (0, 2), (0, 1), (10, 50)]:
            plan = minimal_plan(df, rng, df.terminal_router(src), dst)
            _route_reaches(df, src, dst, plan)

    def test_at_most_one_global_hop(self, df):
        rng = random.Random(2)
        plan = minimal_plan(df, rng, df.terminal_router(0), 71)
        assert plan.gc1 is not None and plan.gc2 is None
        assert plan.minimal

    def test_intra_group_has_no_global(self, df):
        rng = random.Random(3)
        plan = minimal_plan(df, rng, df.terminal_router(0), 7)
        assert plan.gc1 is None and plan.gc2 is None

    def test_hop_count_at_most_three(self, df):
        rng = random.Random(4)
        for dst in range(8, 72, 3):
            plan = minimal_plan(df, rng, 0, dst)
            assert plan_hops(df, 0, dst, plan) <= 3

    def test_prefers_direct_global_link(self, df):
        """If the source router owns a link to the target group, use it."""
        rng = random.Random(5)
        link = df.global_links_of(0)[0]
        dst_terminal = link.dst_group * df.params.terminals_per_group
        plan = minimal_plan(df, rng, 0, dst_terminal)
        assert plan.gc1.src_router == 0


class TestValiantPlan:
    def test_reaches_destination(self, df):
        rng = random.Random(6)
        for src, dst in [(0, 71), (3, 40), (20, 60)]:
            plan = valiant_plan(df, rng, df.terminal_router(src), dst)
            _route_reaches(df, src, dst, plan)

    def test_uses_up_to_two_global_hops(self, df):
        rng = random.Random(7)
        seen_two = False
        for _ in range(50):
            plan = valiant_plan(df, rng, 0, 71)
            assert plan.gc1 is not None
            seen_two = seen_two or plan.gc2 is not None
        assert seen_two

    def test_degenerates_to_minimal_via_destination_group(self, df):
        rng = random.Random(8)
        dst_group = df.group_of(df.terminal_router(71))
        plan = valiant_plan(df, rng, 0, 71, intermediate_group=dst_group)
        assert plan.minimal

    def test_rejects_source_group_intermediate(self, df):
        rng = random.Random(9)
        with pytest.raises(ValueError):
            valiant_plan(df, rng, 0, 71, intermediate_group=0)

    def test_intermediate_group_respected(self, df):
        rng = random.Random(10)
        plan = valiant_plan(df, rng, 0, 71, intermediate_group=4)
        assert plan.gc1.dst_group == 4

    def test_hop_count_at_most_five(self, df):
        rng = random.Random(11)
        for _ in range(30):
            plan = valiant_plan(df, rng, 0, 71)
            assert plan_hops(df, 0, 71, plan) <= 5


class TestNextHopVcs:
    def test_minimal_vcs(self, df):
        rng = random.Random(12)
        plan = minimal_plan(df, rng, 0, 71)
        trace = _route_reaches(df, 0, 71, plan)
        vcs_used = [vc for router, port, vc in trace if not df.is_terminal_port(port)]
        # Local hops 1 then 2, global on 1 (subsequence of [1, 1, 2]).
        assert all(vc in (1, 2) for vc in vcs_used)
        assert vcs_used == sorted(vcs_used)

    def test_nonminimal_vcs_nondecreasing(self, df):
        rng = random.Random(13)
        for _ in range(20):
            plan = valiant_plan(df, rng, 0, 71)
            trace = walk_route(df, EXECUTOR, 0, 71, plan)
            vcs_used = [
                vc for router, port, vc in trace if not df.is_terminal_port(port)
            ]
            assert vcs_used == sorted(vcs_used)

    def test_ejection_hop(self, df):
        rng = random.Random(14)
        plan = minimal_plan(df, rng, df.terminal_router(5), 5)
        port, vc = next_hop(df, df.terminal_router(5), plan, 0, 5)
        assert df.is_terminal_port(port)
        assert port == df.terminal_port(5)


def test_a_route_that_never_ejects_is_a_named_error(df):
    """The one walker bounds every family's walk by the fabric size and
    names the route, not just the fact."""

    def ping_pong(topology, router, plan, progress, dst_terminal):
        return topology.local_port(router, 1 - router), 0, progress

    plan = RoutePlan(minimal=True)
    with pytest.raises(TopologyError) as excinfo:
        walk_route(df, ping_pong, 0, 71, plan)
    message = str(excinfo.value)
    assert "Dragonfly route from router 0 to terminal 71" in message
    assert repr(plan) in message
    assert f"after {df.fabric.num_routers + 2} hops" in message
    assert "still at router 0" in message


@given(
    src=st.integers(min_value=0, max_value=71),
    dst=st.integers(min_value=0, max_value=71),
    seed=st.integers(min_value=0, max_value=2**16),
    use_valiant=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_any_route_terminates_and_reaches(src, dst, seed, use_valiant):
    """Property: every plan reaches its destination within hop bounds."""
    topology = Dragonfly(DragonflyParams.paper_example_72())
    rng = random.Random(seed)
    src_router = topology.terminal_router(src)
    if use_valiant:
        plan = valiant_plan(topology, rng, src_router, dst)
        bound = 5
    else:
        plan = minimal_plan(topology, rng, src_router, dst)
        bound = 3
    trace = walk_route(topology, EXECUTOR, src_router, dst, plan)
    assert len(trace) - 1 <= bound  # channel hops exclude the ejection
    last_router, last_port, _ = trace[-1]
    assert last_router == topology.terminal_router(dst)
    assert last_port == topology.terminal_port(dst)
    assert plan_hops(topology, src_router, dst, plan) == len(trace) - 1
