"""Property-based backend equivalence (hypothesis).

The differential corpus pins fixed configurations; this fuzzer samples
the configuration space itself -- random small dragonfly shapes
(p, a, h, g), routing algorithms, traffic patterns, loads, buffer
depths, packet sizes and seeds -- and asserts scalar/array bit-identity
on every draw.  Failures shrink to a minimal configuration and the
assertion names the first diverging statistic, so a shrunk report reads
"p=1 a=2 h=1 g=3 MIN uniform_random load=0.05: packet_latencies
diverge", not just "results differ".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import DragonflyParams
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly


@st.composite
def backend_setup(draw):
    p = draw(st.integers(min_value=1, max_value=2))
    h = draw(st.integers(min_value=1, max_value=2))
    a = draw(st.integers(min_value=2, max_value=4))
    max_g = a * h + 1
    g = draw(st.integers(min_value=2, max_value=max_g))
    if (g * a * h) % 2:
        g = g - 1 if g > 2 else g + 1
    g = max(2, min(g, max_g))
    routing = draw(
        st.sampled_from(
            ["MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH",
             "UGAL-L_CR"]
        )
    )
    pattern = draw(st.sampled_from(["uniform_random", "worst_case"]))
    load = draw(st.sampled_from([0.05, 0.2, 0.5]))
    depth = draw(st.sampled_from([2, 4, 16]))
    packet_size = draw(st.sampled_from([1, 1, 1, 4]))  # bias: kernel path
    if packet_size > depth:
        packet_size = 1
    seed = draw(st.integers(min_value=0, max_value=10_000))
    params = DragonflyParams(p=p, a=a, h=h, num_groups=g)
    config = SimulationConfig(
        load=load,
        warmup_cycles=60,
        measure_cycles=60,
        drain_max_cycles=3000,
        vc_buffer_depth=depth,
        packet_size=packet_size,
        seed=seed,
    )
    return params, routing, pattern, config


def run_backend(params, routing_name, pattern_name, config, backend):
    topology = Dragonfly(params)
    pattern = make_pattern(pattern_name, topology, seed=config.seed + 17)
    sim = make_simulator(
        topology, make_routing(routing_name), pattern, config, backend=backend
    )
    return sim.run()


@given(backend_setup())
@settings(max_examples=30, deadline=None)
def test_backends_agree_on_random_configurations(setup):
    """Scalar and array backends agree bit for bit on any sampled
    shape/routing/pattern/load/packet-size/seed combination."""
    params, routing_name, pattern_name, config = setup
    label = (
        f"p={params.p} a={params.a} h={params.h} g={params.num_groups} "
        f"{routing_name} {pattern_name} load={config.load} "
        f"packet_size={config.packet_size} seed={config.seed}"
    )
    scalar = run_backend(params, routing_name, pattern_name, config, "scalar")
    array = run_backend(params, routing_name, pattern_name, config, "array")

    # Statistic-by-statistic comparison so a shrunk failure names the
    # first diverging statistic instead of dumping two result dicts.
    assert array.saturated == scalar.saturated, f"{label}: saturated diverges"
    assert len(array.samples) == len(scalar.samples), (
        f"{label}: sample_count diverges"
    )
    assert array.latencies == scalar.latencies, (
        f"{label}: packet_latencies diverge"
    )
    assert array.ejected_flits_in_window == scalar.ejected_flits_in_window, (
        f"{label}: ejected_flits_in_window diverges"
    )
    assert array.global_channel_flits == scalar.global_channel_flits, (
        f"{label}: global_channel_flits diverge"
    )
    assert array.to_dict() == scalar.to_dict(), (
        f"{label}: full result diverges"
    )
