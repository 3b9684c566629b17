"""Tests for request-reply protocol traffic with separate VC classes."""

import pytest

from oracles import check_invariants
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


def run(df, routing="UGAL-L_VCH", load=0.15, **kwargs):
    defaults = dict(
        load=load,
        warmup_cycles=500,
        measure_cycles=500,
        drain_max_cycles=12_000,
        num_vcs=6,
        request_reply=True,
    )
    defaults.update(kwargs)
    config = SimulationConfig(**defaults)
    pattern = make_pattern("uniform_random", df, seed=5)
    simulator = Simulator(df, make_routing(routing), pattern, config)
    return simulator, simulator.run()


class TestValidation:
    def test_needs_six_vcs(self):
        with pytest.raises(ValueError):
            SimulationConfig(request_reply=True, num_vcs=3)

    def test_six_vcs_accepted(self):
        config = SimulationConfig(request_reply=True, num_vcs=6)
        assert config.request_reply


class TestRoundTrip:
    def test_all_round_trips_complete(self, df):
        simulator, result = run(df)
        assert result.drained
        check_invariants(simulator)

    def test_latency_is_round_trip(self, df):
        _, round_trip = run(df)
        config = SimulationConfig(
            load=0.15, warmup_cycles=500, measure_cycles=500,
            drain_max_cycles=12_000,
        )
        pattern = make_pattern("uniform_random", df, seed=5)
        one_way = Simulator(df, make_routing("UGAL-L_VCH"), pattern, config).run()
        assert round_trip.avg_latency > 1.7 * one_way.avg_latency

    def test_reply_volume_doubles_ejections(self, df):
        _, with_replies = run(df, load=0.1)
        config = SimulationConfig(
            load=0.1, warmup_cycles=500, measure_cycles=500,
            drain_max_cycles=12_000,
        )
        pattern = make_pattern("uniform_random", df, seed=5)
        plain = Simulator(df, make_routing("UGAL-L_VCH"), pattern, config).run()
        ratio = with_replies.accepted_load / plain.accepted_load
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_reply_class_uses_upper_vcs(self, df):
        """After a run, the upper VC band (3..5) saw traffic: its credit
        counters moved at some point (pending counters prove usage)."""
        simulator, _ = run(df)
        # All credits restored at drain, so check the CTQ-free evidence:
        # re-run a short window and inspect live state mid-flight.
        config = SimulationConfig(
            load=0.3, warmup_cycles=0, measure_cycles=50,
            drain_max_cycles=0, num_vcs=6, request_reply=True,
        )
        pattern = make_pattern("uniform_random", df, seed=6)
        live = Simulator(df, make_routing("UGAL-L_VCH"), pattern, config)
        live.run()
        upper_band_used = any(
            live.output_vc_occupancy(router, port, vc)
            for router in range(df.fabric.num_routers)
            for port in range(df.params.radix)
            for vc in (3, 4, 5)
        )
        lower_band_used = any(
            live.output_vc_occupancy(router, port, vc)
            for router in range(df.fabric.num_routers)
            for port in range(df.params.radix)
            for vc in (0, 1, 2)
        )
        assert upper_band_used and lower_band_used

    def test_works_with_adversarial_traffic(self, df):
        config = SimulationConfig(
            load=0.1, warmup_cycles=500, measure_cycles=500,
            drain_max_cycles=15_000, num_vcs=6, request_reply=True,
        )
        pattern = make_pattern("worst_case", df, seed=7)
        simulator = Simulator(df, make_routing("UGAL-L_VCH"), pattern, config)
        result = simulator.run()
        assert result.drained
        check_invariants(simulator)
