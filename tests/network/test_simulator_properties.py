"""Property-based tests of the simulator (hypothesis).

Random small configurations x loads x algorithms must preserve the
flow-control invariants, deliver packets to their actual destinations,
and conserve flits.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_invariants
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly


@st.composite
def simulation_setup(draw):
    p = draw(st.integers(min_value=1, max_value=2))
    h = draw(st.integers(min_value=1, max_value=2))
    a = draw(st.integers(min_value=2, max_value=4))
    max_g = a * h + 1
    g = draw(st.integers(min_value=2, max_value=max_g))
    if (g * a * h) % 2:
        g = g - 1 if g > 2 else g + 1
    g = max(2, min(g, max_g))
    routing = draw(
        st.sampled_from(["MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VCH",
                         "UGAL-L_CR"])
    )
    load = draw(st.sampled_from([0.05, 0.15, 0.3]))
    depth = draw(st.sampled_from([2, 4, 16]))
    packet_size = draw(st.sampled_from([1, 2]))
    if packet_size > depth:
        packet_size = 1
    seed = draw(st.integers(min_value=0, max_value=10_000))
    params = DragonflyParams(p=p, a=a, h=h, num_groups=g)
    config = SimulationConfig(
        load=load,
        warmup_cycles=100,
        measure_cycles=100,
        drain_max_cycles=5000,
        vc_buffer_depth=depth,
        packet_size=packet_size,
        seed=seed,
    )
    return params, routing, config


@given(simulation_setup())
@settings(max_examples=25, deadline=None)
def test_invariants_and_conservation(setup):
    """Random configurations preserve flow-control invariants.

    Misrouting cannot pass silently: the simulator itself asserts every
    ejected packet arrived at its destination terminal, so this property
    also proves correct delivery over the sampled space.
    """
    params, routing_name, config = setup
    topology = Dragonfly(params)
    pattern = make_pattern("uniform_random", topology, seed=config.seed + 1)
    simulator = Simulator(topology, make_routing(routing_name), pattern, config)
    result = simulator.run()
    check_invariants(simulator)
    # Tagged bookkeeping is exact.
    if result.drained:
        assert result.unfinished_tagged == 0
    # Latencies are causal.
    for sample in result.samples:
        assert sample.latency >= 1


@given(simulation_setup(), st.integers(min_value=3, max_value=17))
@settings(max_examples=15, deadline=None)
def test_invariants_hold_mid_run(setup, stride):
    """The active-set engine keeps the invariants at *every* cycle.

    ``check_invariants`` after ``run()`` only sees the drained end
    state; this drives the four phases manually (the exact order of
    ``run``) and re-checks the invariants every ``stride`` cycles while
    buffers are full and credits are in flight -- the states where a
    stale active-set bit or pending counter would actually hide.
    """
    params, routing_name, config = setup
    config = dataclasses.replace(
        config, warmup_cycles=40, measure_cycles=40, drain_max_cycles=0
    )
    topology = Dragonfly(params)
    pattern = make_pattern("uniform_random", topology, seed=config.seed + 1)
    simulator = Simulator(topology, make_routing(routing_name), pattern, config)
    for now in range(config.warmup_cycles + config.measure_cycles):
        simulator.now = now
        simulator._deliver_arrivals(now)
        simulator._deliver_credits(now)
        simulator._inject(now)
        simulator._switch()
        if now % stride == 0:
            check_invariants(simulator)
    check_invariants(simulator)


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=15, deadline=None)
def test_deliveries_complete_across_seeds(seed):
    """At moderate load every tagged packet of any seed is delivered
    (to the right terminal -- enforced by the simulator's ejection
    assertion) within the drain window."""
    topology = Dragonfly(DragonflyParams(p=1, a=2, h=1))
    config = SimulationConfig(
        load=0.3,
        warmup_cycles=100,
        measure_cycles=100,
        drain_max_cycles=4000,
        seed=seed,
    )
    pattern = make_pattern("uniform_random", topology, seed=seed + 9)
    simulator = Simulator(topology, make_routing("UGAL-L"), pattern, config)
    result = simulator.run()
    assert result.drained
    assert result.unfinished_tagged == 0
