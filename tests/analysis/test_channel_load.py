"""Tests validating the analytic throughput bounds against simulation."""

import pytest

from repro.analysis.channel_load import (
    min_worst_case_throughput,
    ugal_ideal_worst_case_throughput,
    valiant_uniform_throughput,
    valiant_worst_case_throughput,
)
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.sweep import run_point
from repro.routing.ugal import make_routing


class TestClosedForms:
    def test_min_worst_case(self):
        params = DragonflyParams.paper_example_72()
        assert min_worst_case_throughput(params) == pytest.approx(1 / 8)

    def test_min_worst_case_1k(self):
        params = DragonflyParams.paper_1k()
        assert min_worst_case_throughput(params) == pytest.approx(1 / 32)

    def test_min_worst_case_nonmaximal_scales_with_links(self):
        params = DragonflyParams(p=2, a=4, h=2, num_groups=5)
        # At least 2 channels per pair -> twice the throughput.
        assert min_worst_case_throughput(params) == pytest.approx(2 / 8)

    def test_valiant_bounds_exact_finite_size(self):
        """Finite-g corrections: at g=9 the degenerate-intermediate
        probability is 1/8, so expected global hops = 15/8."""
        params = DragonflyParams.paper_example_72()
        # WC: 1 / (2 - 1/8) = 8/15.
        assert valiant_worst_case_throughput(params) == pytest.approx(8 / 15)
        # UR additionally scales by the cross-group fraction 64/71.
        expected_ur = 1.0 / ((64 / 71) * (15 / 8))
        assert valiant_uniform_throughput(params) == pytest.approx(expected_ur)
        # Ideal adaptive: (ah + 1) / (2 ah) = 9/16.
        assert ugal_ideal_worst_case_throughput(params) == pytest.approx(9 / 16)

    def test_bounds_approach_half_at_scale(self):
        """As g grows the paper's 'approximately 50%' emerges."""
        params = DragonflyParams.balanced(16)  # g = 513
        assert valiant_worst_case_throughput(params) == pytest.approx(0.5, abs=0.01)
        assert valiant_uniform_throughput(params) == pytest.approx(0.5, abs=0.01)
        assert ugal_ideal_worst_case_throughput(params) == pytest.approx(0.5, abs=0.01)

    def test_min_worst_case_requires_groups(self):
        with pytest.raises(ValueError):
            min_worst_case_throughput(
                DragonflyParams(p=2, a=4, h=2, num_groups=1)
            )


class TestBoundsAgainstSimulation:
    """Integration: the simulator respects the closed-form bounds."""

    def test_min_wc_simulated_matches_bound(self, paper72_dragonfly):
        bound = min_worst_case_throughput(paper72_dragonfly.params)
        config = SimulationConfig(
            load=0.4, warmup_cycles=400, measure_cycles=400, drain_max_cycles=800
        )
        result = run_point(
            paper72_dragonfly, make_routing("MIN"), "worst_case", config
        )
        assert result.accepted_load == pytest.approx(bound, rel=0.15)

    def test_valiant_ur_near_half(self, paper72_dragonfly):
        config = SimulationConfig(
            load=0.45, warmup_cycles=400, measure_cycles=400,
            drain_max_cycles=8000,
        )
        result = run_point(
            paper72_dragonfly, make_routing("VAL"), "uniform_random", config
        )
        assert result.drained
        assert result.accepted_load == pytest.approx(0.45, abs=0.03)
