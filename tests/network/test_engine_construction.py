"""What each engine allocates when it is built.

The array engine builds its counters and wiring as numpy arrays and
none of the scalar engine's per-slot deques; the scalar engine makes an
output queue only when a flit first queues there; the credit time
queues of UGAL-L_CR exist only in an engine whose routing senses credit
delay.
"""

import tracemalloc

import pytest

from repro.core.params import DragonflyParams
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly

#: Traced allocation peak allowed for building one UGAL-L array engine
#: on the paper's 1056-terminal dragonfly.  Building the scalar queues
#: first and converting them cost 15.5 MiB; the arrays alone ~2.5 MiB.
ARRAY_BUILD_PEAK_BYTES = 4 * 2**20

#: The same for one UGAL-L scalar engine.  A deque per output (port,
#: VC) slot built up front cost ~8.6 MiB of an 11.2 MiB peak; made on
#: first use, the build peaks at ~2.5 MiB.
SCALAR_BUILD_PEAK_BYTES = 4 * 2**20

#: Per-slot queue state only the scalar engine keeps.
SCALAR_QUEUES = (
    "_out_q", "_streams", "_source_head", "_head_slot", "_backlog",
    "_inflight_injection", "_active_mask", "_active_routers", "_records",
)


@pytest.fixture(scope="module")
def paper1k():
    return Dragonfly(DragonflyParams.paper_1k())


def inputs(topology, routing_name):
    """(routing, pattern, config) of one paper-scale worst-case point."""
    config = SimulationConfig(
        load=0.3, warmup_cycles=500, measure_cycles=500,
        drain_max_cycles=5000, seed=1,
    )
    pattern = make_pattern("worst_case", topology, seed=config.seed + 17)
    return make_routing(routing_name), pattern, config


def build(topology, routing_name, backend):
    return make_simulator(
        topology, *inputs(topology, routing_name), backend=backend
    )


@pytest.mark.parametrize(
    "backend, limit",
    [("array", ARRAY_BUILD_PEAK_BYTES), ("scalar", SCALAR_BUILD_PEAK_BYTES)],
    ids=["array", "scalar"],
)
def test_engine_build_peak(paper1k, backend, limit):
    """A second build (the first warms every per-topology memo) stays
    within ``limit`` of traced allocations."""
    build(paper1k, "UGAL-L", backend)
    args = inputs(paper1k, "UGAL-L")
    tracemalloc.start()
    try:
        sim = make_simulator(paper1k, *args, backend=backend)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sim.backend_provenance()["backend"] == backend
    assert peak <= limit, (
        f"{backend} engine build peaked at {peak / 2**20:.1f} MiB traced"
    )


def test_scalar_output_queues_are_made_on_first_use(paper72_dragonfly, fast_config):
    topology = paper72_dragonfly
    sim = make_simulator(
        topology, make_routing("MIN"), make_pattern("worst_case", topology, seed=3),
        fast_config, backend="scalar",
    )
    assert set(sim._out_q) == {None}
    sim.run()
    made = [queue for queue in sim._out_q if queue is not None]
    assert 0 < len(made) < len(sim._out_q)
    # The state view shows a missing queue as empty, a made one as itself.
    view = sim.state_view().out_q
    assert len(view) == len(sim._out_q)
    for shown, queue in zip(view, sim._out_q):
        assert shown == () if queue is None else shown is queue


def test_array_engine_holds_no_scalar_queues(paper1k):
    sim = build(paper1k, "UGAL-L", "array")
    assert [name for name in SCALAR_QUEUES if hasattr(sim, name)] == []


@pytest.mark.parametrize("backend", ["scalar", "array"])
def test_credit_time_queues_only_under_credit_sensing(paper1k, backend):
    plain = build(paper1k, "UGAL-L", backend)
    assert not plain._credit_delay_enabled
    assert plain._ctq == [] and plain._tcrt0 == []
    sensing = build(paper1k, "UGAL-L_CR", backend)
    assert sensing._credit_delay_enabled
    ports = sensing._num_routers * sensing._radix
    assert len(sensing._ctq) == ports and len(sensing._tcrt0) == ports
