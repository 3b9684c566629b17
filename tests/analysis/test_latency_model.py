"""Tests for the zero-load latency model, cross-validated against the
simulator."""

import functools

import pytest

from oracles import minimal_hop_count
from repro.analysis.latency_model import LatencyModel
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.sweep import run_point
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def model():
    return LatencyModel(DragonflyParams.paper_example_72())


class TestProbabilities:
    def test_sum_to_one(self, model):
        total = (
            model.probability_same_router()
            + model.probability_same_group()
            + model.probability_cross_group()
        )
        assert total == pytest.approx(1.0)

    def test_same_router_value(self, model):
        # p=2: one other terminal of 71 shares the router.
        assert model.probability_same_router() == pytest.approx(1 / 71)

    def test_same_group_value(self, model):
        # 8 per group, 2 on the source router -> 6 of 71.
        assert model.probability_same_group() == pytest.approx(6 / 71)


class TestExpectations:
    def test_minimal_global_hops_below_one(self, model):
        assert 0.85 < model.expected_minimal_global_hops() < 1.0

    def test_minimal_local_hops_below_two(self, model):
        assert 1.0 < model.expected_minimal_local_hops() < 2.0

    def test_worst_case_route(self, model):
        # 2 local + 1 global + ejection at unit latencies.
        assert model.worst_case_minimal_latency() == 4.0

    def test_serialisation_adds_flits(self):
        model = LatencyModel(DragonflyParams.paper_example_72(), packet_size=4)
        base = LatencyModel(DragonflyParams.paper_example_72())
        assert (
            model.expected_minimal_latency()
            == base.expected_minimal_latency() + 3
        )

    def test_global_latency_scales(self):
        slow = LatencyModel(DragonflyParams.paper_example_72(), global_latency=10)
        fast = LatencyModel(DragonflyParams.paper_example_72())
        delta = slow.expected_minimal_latency() - fast.expected_minimal_latency()
        assert delta == pytest.approx(9 * slow.expected_minimal_global_hops())


class TestAgainstSimulator:
    def test_min_zero_load_latency_matches(self, model):
        topology = Dragonfly(DragonflyParams.paper_example_72())
        config = SimulationConfig(
            load=0.01, warmup_cycles=500, measure_cycles=2000,
            drain_max_cycles=5000,
        )
        result = run_point(topology, make_routing("MIN"), "uniform_random", config)
        assert result.avg_latency == pytest.approx(
            model.expected_minimal_latency(), rel=0.1
        )

    def test_val_extra_latency_direction(self, model):
        topology = Dragonfly(DragonflyParams.paper_example_72())
        config = SimulationConfig(
            load=0.01, warmup_cycles=500, measure_cycles=2000,
            drain_max_cycles=5000,
        )
        minimal = run_point(topology, make_routing("MIN"), "uniform_random", config)
        valiant = run_point(topology, make_routing("VAL"), "uniform_random", config)
        measured_extra = valiant.avg_latency - minimal.avg_latency
        assert measured_extra == pytest.approx(
            model.valiant_extra_latency(), abs=0.7
        )

    def test_longer_global_channels_shift_latency(self):
        """With 5-cycle global channels the zero-load shift matches."""
        topology = Dragonfly(
            DragonflyParams.paper_example_72(), global_latency=5
        )
        model = LatencyModel(DragonflyParams.paper_example_72(), global_latency=5)
        config = SimulationConfig(
            load=0.01, warmup_cycles=500, measure_cycles=2000,
            drain_max_cycles=6000,
        )
        result = run_point(topology, make_routing("MIN"), "uniform_random", config)
        assert result.avg_latency == pytest.approx(
            model.expected_minimal_latency(), rel=0.1
        )


#: Maximum-size configurations small enough to enumerate every
#: source/destination pair.
ENUMERATED = [
    (1, 2, 1),
    (2, 2, 1),
    (1, 4, 2),
    (2, 4, 2),
    (1, 6, 3),
    (2, 6, 3),
]


@functools.lru_cache(maxsize=None)
def enumerate_minimal_routes(p, a, h):
    """Exact uniform-random averages of a minimal route's shape, taken
    over every ordered pair of distinct terminals."""
    topology = Dragonfly(DragonflyParams(p=p, a=a, h=h))
    n = topology.num_terminals
    same_router = same_group = local_hops = global_hops = longest = 0
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            hops = minimal_hop_count(topology, src, dst)
            group_of = topology.group_of
            crosses = group_of(topology.terminal_router(src)) != group_of(
                topology.terminal_router(dst)
            )
            same_router += hops == 0
            same_group += hops == 1 and not crosses
            global_hops += crosses
            local_hops += hops - crosses
            longest = max(longest, hops)
    pairs = n * (n - 1)
    return {
        "same_router": same_router / pairs,
        "same_group": same_group / pairs,
        "local_hops": local_hops / pairs,
        "global_hops": global_hops / pairs,
        "longest": longest,
    }


@pytest.mark.parametrize("p,a,h", ENUMERATED)
class TestAgainstEnumeration:
    """The hop expectations are exact on a maximum-size dragonfly: they
    equal the averages over every pair of the topology's own minimal
    routes."""

    def test_same_router_probability(self, p, a, h):
        model = LatencyModel(DragonflyParams(p=p, a=a, h=h))
        assert model.probability_same_router() == pytest.approx(
            enumerate_minimal_routes(p, a, h)["same_router"]
        )

    def test_same_group_probability(self, p, a, h):
        model = LatencyModel(DragonflyParams(p=p, a=a, h=h))
        assert model.probability_same_group() == pytest.approx(
            enumerate_minimal_routes(p, a, h)["same_group"]
        )

    def test_expected_local_hops(self, p, a, h):
        model = LatencyModel(DragonflyParams(p=p, a=a, h=h))
        assert model.expected_minimal_local_hops() == pytest.approx(
            enumerate_minimal_routes(p, a, h)["local_hops"]
        )

    def test_expected_global_hops(self, p, a, h):
        model = LatencyModel(DragonflyParams(p=p, a=a, h=h))
        assert model.expected_minimal_global_hops() == pytest.approx(
            enumerate_minimal_routes(p, a, h)["global_hops"]
        )

    def test_worst_case_is_longest_route(self, p, a, h):
        model = LatencyModel(DragonflyParams(p=p, a=a, h=h))
        longest = enumerate_minimal_routes(p, a, h)["longest"]
        assert model.worst_case_minimal_latency() == longest + 1
