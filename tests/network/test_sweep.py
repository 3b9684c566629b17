"""Tests for load sweeps and saturation search."""

import math

import pytest

from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.sweep import load_sweep, run_point, saturation_load
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(
        load=0.1, warmup_cycles=300, measure_cycles=300, drain_max_cycles=3000
    )


class TestLoadSweep:
    def test_latency_rises_with_load(self, df, config):
        points = load_sweep(df, "MIN", "uniform_random", (0.1, 0.5, 0.9), config)
        latencies = [p.latency for p in points]
        assert latencies[0] < latencies[-1]

    def test_point_metadata(self, df, config):
        (point,) = load_sweep(df, "VAL", "uniform_random", (0.2,), config)
        assert point.load == 0.2
        assert point.result.routing_name == "VAL"
        assert point.result.pattern_name == "uniform_random"

    def test_saturated_point_reports_inf(self, df, config):
        (point,) = load_sweep(df, "MIN", "worst_case", (0.9,), config)
        assert point.latency == math.inf or point.latency > 100


class TestSaturationLoad:
    def test_min_worst_case_near_1_over_ah(self, df, config):
        load = saturation_load(
            df, "MIN", "worst_case", config,
            low=0.02, high=0.5, tolerance=0.03, latency_limit=60.0,
        )
        assert load == pytest.approx(1.0 / 8.0, abs=0.05)

    def test_returns_zero_when_low_already_saturated(self, df, config):
        load = saturation_load(
            df, "MIN", "worst_case", config,
            low=0.3, high=0.5, latency_limit=30.0,
        )
        assert load == 0.0

    def test_returns_high_when_stable_everywhere(self, df, config):
        load = saturation_load(
            df, "MIN", "uniform_random", config,
            low=0.05, high=0.2, latency_limit=100.0,
        )
        assert load == 0.2

    @pytest.mark.parametrize("bad, named", [
        ({"tolerance": 0.0}, "tolerance"),
        ({"tolerance": -0.01}, "tolerance"),
        ({"low": 0.0}, "low"),
        ({"low": 0.5, "high": 0.5}, "low"),
        ({"low": 0.6, "high": 0.3}, "low"),
        ({"high": 1.5}, "high"),
        ({"accepted_fraction": 0.0}, "accepted_fraction"),
        ({"accepted_fraction": 1.2}, "accepted_fraction"),
    ])
    def test_rejects_arguments_that_cannot_bisect(self, df, config, bad, named):
        """Rejected before the first probe: ``tolerance=0`` used to spin
        forever between two adjacent floats."""

        class NoProbes:
            def run_point(self, *args):
                raise AssertionError("no load may be probed")

        with pytest.raises(ValueError, match=named):
            saturation_load(
                df, "MIN", "uniform_random", config, executor=NoProbes(), **bad
            )


class TestRunPoint:
    def test_independent_instances(self, df, config):
        first = run_point(df, make_routing("MIN"), "uniform_random", config)
        second = run_point(df, make_routing("MIN"), "uniform_random", config)
        assert first.latencies == second.latencies
