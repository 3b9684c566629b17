"""Property-based routing invariants over random valid dragonflies.

For every valid small ``(p, a, h)`` dragonfly and every (source router,
destination terminal) pair, the route plans of ``paths.py`` -- minimal,
Valiant, and the plans the UGAL family selects between them -- must

* terminate at the destination terminal's ejection port,
* cross at most one global channel on minimal paths (the paper's
  3-step route) and at most two on Valiant paths,
* never revisit a ``(channel, VC)`` pair -- the acyclic-resource-order
  argument behind the Dally-Seitz deadlock-freedom certificate of
  :mod:`repro.check.cdg` assumes routes are channel-VC-simple, so a
  revisit would silently void the certificate.

Hypothesis drives random topologies, endpoints and RNG seeds through
``walk_route`` with ``DragonflyLowering.next_hop``, the executor the
certifier walks and the simulator's hop memo is filled from.
"""

import functools
import random

from hypothesis import given, settings, strategies as st

from oracles import ZeroCongestion, plan_hops
from repro.core.params import DragonflyParams, TopologyError
from repro.routing import vc_assignment as vcs
from repro.routing.paths import minimal_plan, valiant_plan, walk_route
from repro.routing.tables import DragonflyLowering
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly

SETTINGS = settings(max_examples=60, deadline=None)


def _valid_param_tuples():
    """Every buildable (p, a, h) in a small envelope, maximal group count."""
    valid = []
    for p in (1, 2, 3):
        for a in (1, 2, 3, 4):
            for h in (1, 2, 3):
                try:
                    params = DragonflyParams(p=p, a=a, h=h)
                    if params.num_groups < 2:
                        continue
                    _topology(p, a, h)
                except (TopologyError, ValueError):
                    continue
                valid.append((p, a, h))
    assert valid, "no valid dragonfly parameters in the envelope"
    return valid


@functools.lru_cache(maxsize=None)
def _topology(p: int, a: int, h: int) -> Dragonfly:
    return Dragonfly(DragonflyParams(p=p, a=a, h=h))


@st.composite
def routed_case(draw):
    """(topology, rng, src_router, dst_terminal) over valid dragonflies."""
    p, a, h = draw(st.sampled_from(_valid_param_tuples()))
    topology = _topology(p, a, h)
    src_router = draw(st.integers(0, topology.fabric.num_routers - 1))
    dst_terminal = draw(st.integers(0, topology.num_terminals - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return topology, random.Random(seed), src_router, dst_terminal


def assert_route_invariants(topology, src_router, dst_terminal, plan,
                            max_global_hops):
    executor = DragonflyLowering(topology, vcs.CANONICAL, True).next_hop
    trace = walk_route(topology, executor, src_router, dst_terminal, plan)

    # Reaches its destination: the last hop ejects at the destination
    # terminal's port on the destination router, and no earlier hop is
    # an ejection.
    dst_router = topology.terminal_router(dst_terminal)
    last_router, last_port, _ = trace[-1]
    assert last_router == dst_router
    assert last_port == topology.terminal_port(dst_terminal)
    assert all(
        not topology.is_terminal_port(port) for _, port, _ in trace[:-1]
    )

    # Global channel budget: <= 1 for minimal, <= 2 for Valiant.
    global_hops = sum(
        1 for _, port, _ in trace if topology.is_global_port(port)
    )
    assert global_hops <= max_global_hops

    # Channel-VC-simple: no (channel, VC) pair is ever revisited.
    seen = set()
    for router, port, vc in trace[:-1]:
        channel = topology.fabric.out_channel(router, port)
        assert channel is not None
        assert (channel.index, vc) not in seen
        seen.add((channel.index, vc))

    # The walked trace agrees with the hop count UGAL bases its
    # adaptive decision on.
    assert len(trace) - 1 == plan_hops(topology, src_router, dst_terminal, plan)


class TestMinimalRouteProperties:
    @SETTINGS
    @given(case=routed_case())
    def test_minimal_route_invariants(self, case):
        topology, rng, src_router, dst_terminal = case
        plan = minimal_plan(topology, rng, src_router, topology.terminal_router(dst_terminal))
        assert plan.minimal
        assert_route_invariants(
            topology, src_router, dst_terminal, plan, max_global_hops=1
        )

    @SETTINGS
    @given(case=routed_case())
    def test_intra_group_minimal_has_no_global_channel(self, case):
        topology, rng, src_router, dst_terminal = case
        dst_router = topology.terminal_router(dst_terminal)
        if topology.group_of(src_router) != topology.group_of(dst_router):
            return
        plan = minimal_plan(topology, rng, src_router, topology.terminal_router(dst_terminal))
        assert plan.gc1 is None and plan.gc2 is None


class TestValiantRouteProperties:
    @SETTINGS
    @given(case=routed_case())
    def test_valiant_route_invariants(self, case):
        topology, rng, src_router, dst_terminal = case
        plan = valiant_plan(topology, rng, src_router, topology.terminal_router(dst_terminal))
        assert_route_invariants(
            topology, src_router, dst_terminal, plan,
            max_global_hops=1 if plan.minimal else 2,
        )


class TestUgalRouteProperties:
    @SETTINGS
    @given(case=routed_case(), name=st.sampled_from(
        ["UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR"]
    ))
    def test_ugal_chosen_route_invariants(self, case, name):
        """Whatever a UGAL variant picks obeys the same invariants."""
        topology, rng, src_router, dst_terminal = case
        routing = make_routing(name)
        plan = routing.decide(
            ZeroCongestion(), topology, rng, src_router, dst_terminal
        )
        assert_route_invariants(
            topology, src_router, dst_terminal, plan,
            max_global_hops=1 if plan.minimal else 2,
        )
