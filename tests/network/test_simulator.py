"""Tests for the cycle-accurate simulator: conservation, latency
accounting, flow-control invariants, determinism and throughput caps."""

import pytest

from oracles import check_invariants
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator, simulate
from repro.network.traffic import UniformRandom, make_pattern
from repro.routing.ugal import make_routing


def run(
    topology,
    routing_name="MIN",
    pattern_name="uniform_random",
    **config_kwargs,
):
    defaults = dict(
        load=0.1, warmup_cycles=200, measure_cycles=200, drain_max_cycles=4000
    )
    defaults.update(config_kwargs)
    config = SimulationConfig(**defaults)
    pattern = make_pattern(pattern_name, topology, seed=config.seed + 17)
    simulator = Simulator(topology, make_routing(routing_name), pattern, config)
    result = simulator.run()
    return simulator, result


class TestConservation:
    def test_all_tagged_packets_drain_at_low_load(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, load=0.1)
        assert result.drained
        assert result.unfinished_tagged == 0
        assert result.samples  # something was measured

    def test_flow_control_invariants_hold_after_run(self, paper72_dragonfly):
        simulator, _ = run(paper72_dragonfly, load=0.3)
        check_invariants(simulator)

    def test_invariants_under_worst_case_overload(self, paper72_dragonfly):
        simulator, _ = run(
            paper72_dragonfly,
            routing_name="MIN",
            pattern_name="worst_case",
            load=0.4,
            drain_max_cycles=500,
        )
        check_invariants(simulator)


class TestLatencyAccounting:
    def test_zero_load_latency_is_hops_plus_ejection(self, paper72_dragonfly):
        """At vanishing load every packet sails through: latency equals
        channel hops (1 cycle each) + terminal ejection latency."""
        _, result = run(paper72_dragonfly, load=0.005, routing_name="MIN")
        # Minimal routes have 0..3 channel hops; + 1 cycle ejection.
        # Rare same-cycle collisions can add a cycle or two even at
        # vanishing load.
        assert result.samples
        assert result.latency_percentile(90) <= 4
        for sample in result.samples:
            assert 1 <= sample.latency <= 8

    def test_valiant_zero_load_latency_bounded_by_five_hops(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, load=0.005, routing_name="VAL")
        assert result.latency_percentile(90) <= 6
        for sample in result.samples:
            assert 1 <= sample.latency <= 10

    def test_latency_includes_source_queueing(self, paper72_dragonfly):
        """Beyond saturation, source queues grow and measured latency
        must reflect it (MIN on worst-case at twice the capacity)."""
        _, low = run(paper72_dragonfly, pattern_name="worst_case", load=0.05)
        _, high = run(
            paper72_dragonfly,
            pattern_name="worst_case",
            load=0.25,
            drain_max_cycles=30_000,
        )
        if high.drained:
            assert high.avg_latency > 4 * low.avg_latency


class TestDeterminism:
    def test_same_seed_same_result(self, paper72_dragonfly):
        _, first = run(paper72_dragonfly, load=0.2, seed=42)
        _, second = run(paper72_dragonfly, load=0.2, seed=42)
        assert first.latencies == second.latencies
        assert first.ejected_flits_in_window == second.ejected_flits_in_window

    def test_different_seed_differs(self, paper72_dragonfly):
        _, first = run(paper72_dragonfly, load=0.2, seed=1)
        _, second = run(paper72_dragonfly, load=0.2, seed=2)
        assert first.latencies != second.latencies


class TestThroughput:
    def test_accepted_tracks_offered_below_saturation(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, load=0.3, measure_cycles=500)
        assert result.accepted_load == pytest.approx(0.3, abs=0.05)

    def test_min_worst_case_caps_at_1_over_ah(self, paper72_dragonfly):
        """The paper's bound: MIN throughput on WC traffic is 1/(a*h)."""
        bound = 1.0 / (paper72_dragonfly.a * paper72_dragonfly.h)
        _, result = run(
            paper72_dragonfly,
            routing_name="MIN",
            pattern_name="worst_case",
            load=0.4,
            warmup_cycles=500,
            measure_cycles=500,
            drain_max_cycles=1000,
        )
        assert result.accepted_load == pytest.approx(bound, rel=0.15)

    def test_global_channel_utilization_bounded(self, paper72_dragonfly):
        _, result = run(
            paper72_dragonfly, pattern_name="worst_case", load=0.2,
            routing_name="UGAL-G", measure_cycles=400,
        )
        for utilization in result.global_channel_utilization().values():
            assert 0.0 <= utilization <= 1.0

    def test_min_overloaded_worst_case_shows_saturation(self, paper72_dragonfly):
        """Well past capacity: accepted load pins at the bound and the
        tagged packets' latency reflects the growing source queues."""
        _, result = run(
            paper72_dragonfly,
            routing_name="MIN",
            pattern_name="worst_case",
            load=0.5,
            drain_max_cycles=30_000,
        )
        assert result.accepted_load < 0.2
        assert result.saturated or result.avg_latency > 50


class TestRoutingClassification:
    def test_min_marks_all_packets_minimal(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, routing_name="MIN", load=0.2)
        assert result.minimal_fraction == 1.0

    def test_valiant_marks_most_packets_nonminimal(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, routing_name="VAL", load=0.2)
        # Degenerate Valiant routes (intermediate == destination group)
        # stay minimal with probability ~1/(g-1).
        assert result.minimal_fraction < 0.35


class TestMultiFlitPackets:
    def test_packets_arrive_whole(self, paper72_dragonfly):
        _, result = run(
            paper72_dragonfly,
            load=0.2,
            packet_size=4,
            measure_cycles=300,
        )
        assert result.drained
        assert result.samples

    def test_invariants_with_multi_flit(self, paper72_dragonfly):
        simulator, _ = run(paper72_dragonfly, load=0.3, packet_size=4)
        check_invariants(simulator)

    def test_serialization_latency(self, paper72_dragonfly):
        """A 4-flit packet's tail trails the head by >= 3 cycles."""
        _, single = run(paper72_dragonfly, load=0.01, packet_size=1)
        _, multi = run(paper72_dragonfly, load=0.04, packet_size=4)
        assert multi.avg_latency >= single.avg_latency + 3 - 0.5

    def test_flit_conservation(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, load=0.2, packet_size=2)
        # Accepted flit load tracks offered flit load.
        assert result.accepted_load == pytest.approx(0.2, abs=0.06)

    def test_paper_footnote6_trends_unchanged(self, paper72_dragonfly):
        """Footnote 6: multi-flit packets with virtual cut-through do not
        change the trends -- MIN still caps at 1/(a*h) on WC traffic."""
        bound = 1.0 / (paper72_dragonfly.a * paper72_dragonfly.h)
        _, result = run(
            paper72_dragonfly,
            routing_name="MIN",
            pattern_name="worst_case",
            load=0.4,
            packet_size=4,
            warmup_cycles=600,
            measure_cycles=600,
            drain_max_cycles=1000,
        )
        assert result.accepted_load == pytest.approx(bound, rel=0.2)


class TestCreditRoundTripMechanism:
    def test_td_registers_rise_under_congestion(self, paper72_dragonfly):
        simulator, _ = run(
            paper72_dragonfly,
            routing_name="UGAL-L_CR",
            pattern_name="worst_case",
            load=0.3,
            drain_max_cycles=2000,
        )
        max_td = max(simulator._td)
        assert max_td > 0

    def test_td_stays_zero_at_trivial_load(self, paper72_dragonfly):
        simulator, _ = run(
            paper72_dragonfly,
            routing_name="UGAL-L_CR",
            load=0.01,
        )
        max_td = max(simulator._td)
        assert max_td <= 2  # at most scheduling jitter

    def test_mechanism_disabled_for_other_algorithms(self, paper72_dragonfly):
        simulator, _ = run(
            paper72_dragonfly,
            routing_name="UGAL-L_VCH",
            pattern_name="worst_case",
            load=0.3,
        )
        assert not simulator._credit_delay_enabled
        # No credit time queue exists at all, not merely empty ones.
        assert simulator._ctq == []

    def test_cr_reduces_intermediate_latency(self, paper72_dragonfly):
        """The headline Figure 16 effect at unit-test scale."""
        _, vch = run(
            paper72_dragonfly,
            routing_name="UGAL-L_VCH",
            pattern_name="worst_case",
            load=0.3,
            warmup_cycles=600,
            measure_cycles=600,
        )
        _, cr = run(
            paper72_dragonfly,
            routing_name="UGAL-L_CR",
            pattern_name="worst_case",
            load=0.3,
            warmup_cycles=600,
            measure_cycles=600,
        )
        assert cr.avg_latency < vch.avg_latency


class TestTinyNetwork:
    def test_smallest_dragonfly_simulates(self, tiny_dragonfly):
        _, result = run(tiny_dragonfly, load=0.2)
        assert result.drained

    def test_all_routings_work_on_tiny(self, tiny_dragonfly):
        for name in ("MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC",
                     "UGAL-L_VCH", "UGAL-L_CR"):
            _, result = run(tiny_dragonfly, routing_name=name, load=0.2)
            assert result.drained, name


class TestSimulateHelper:
    def test_one_shot(self, tiny_dragonfly):
        config = SimulationConfig(
            load=0.1, warmup_cycles=100, measure_cycles=100, drain_max_cycles=2000
        )
        pattern = UniformRandom(tiny_dragonfly.num_terminals, seed=9)
        result = simulate(tiny_dragonfly, make_routing("MIN"), pattern, config)
        assert result.routing_name == "MIN"
        assert result.pattern_name == "uniform_random"


class TestSourceQueueMetric:
    def test_below_saturation_queues_empty(self, paper72_dragonfly):
        _, result = run(paper72_dragonfly, load=0.1)
        assert result.avg_source_queue_at_end < 1.0

    def test_beyond_saturation_queues_grow(self, paper72_dragonfly):
        _, result = run(
            paper72_dragonfly,
            routing_name="MIN",
            pattern_name="worst_case",
            load=0.3,
            drain_max_cycles=500,
        )
        assert result.avg_source_queue_at_end > 10.0

    def test_metric_scales_with_overload_duration(self, paper72_dragonfly):
        _, short = run(
            paper72_dragonfly, routing_name="MIN", pattern_name="worst_case",
            load=0.3, measure_cycles=200, drain_max_cycles=500,
        )
        _, long = run(
            paper72_dragonfly, routing_name="MIN", pattern_name="worst_case",
            load=0.3, measure_cycles=600, drain_max_cycles=500,
        )
        assert long.avg_source_queue_at_end > 1.5 * short.avg_source_queue_at_end


@pytest.fixture()
def df(paper72_dragonfly):
    return paper72_dragonfly


class TestBulkMode:
    def _run(self, df, routing="MIN", pattern="uniform_random", quota=10,
             **kwargs):
        config = SimulationConfig(
            packets_per_terminal=quota, drain_max_cycles=50_000, **kwargs
        )
        p = make_pattern(pattern, df, seed=3)
        return Simulator(df, make_routing(routing), p, config).run()

    def test_all_packets_delivered(self, df):
        result = self._run(df, quota=10)
        assert result.drained
        assert len(result.samples) == 10 * df.num_terminals

    def test_completion_time_scales_with_volume(self, df):
        small = self._run(df, quota=5)
        large = self._run(df, quota=20)
        assert large.total_cycles > 2 * small.total_cycles

    def test_adaptive_beats_minimal_on_adversarial_burst(self, df):
        minimal = self._run(df, routing="MIN", pattern="worst_case", quota=20)
        adaptive = self._run(df, routing="UGAL-L_CR", pattern="worst_case", quota=20)
        assert adaptive.total_cycles < 0.6 * minimal.total_cycles

    def test_rejects_zero_quota(self):
        with pytest.raises(ValueError):
            SimulationConfig(packets_per_terminal=0)

    def test_invariants_hold(self, df):
        config = SimulationConfig(packets_per_terminal=8, drain_max_cycles=20_000)
        pattern = make_pattern("worst_case", df, seed=4)
        simulator = Simulator(df, make_routing("UGAL-L_VCH"), pattern, config)
        simulator.run()
        check_invariants(simulator)

    def _check_quota_delivered(self, df, routing, pattern, quota=4):
        config = SimulationConfig(
            packets_per_terminal=quota, drain_max_cycles=20_000
        )
        simulator = Simulator(
            df, make_routing(routing), make_pattern(pattern, df, seed=3), config
        )
        result = simulator.run()
        assert result.drained
        assert result.unfinished_tagged == 0
        assert len(result.samples) == quota * df.num_terminals
        check_invariants(simulator)

    @pytest.mark.parametrize(
        "pattern",
        [
            "uniform_random",
            "worst_case",
            "group_tornado",
            "shift",
            "hotspot",
            "random_permutation",
            "bursty",
        ],
    )
    def test_every_dragonfly_pattern_delivers_its_quota(self, df, pattern):
        self._check_quota_delivered(df, "MIN", pattern)

    @pytest.mark.parametrize(
        "routing",
        ["MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR"],
    )
    def test_every_routing_delivers_its_quota(self, df, routing):
        self._check_quota_delivered(df, routing, "worst_case")
