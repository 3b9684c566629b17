"""Tests for the simulation configuration validation."""

import pytest

from repro.network.config import SimulationConfig


class TestValidation:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.num_vcs == 3
        assert config.vc_buffer_depth == 16

    @pytest.mark.parametrize("load", [0.0, -0.5, 1.5])
    def test_rejects_bad_load(self, load):
        with pytest.raises(ValueError):
            SimulationConfig(load=load)

    def test_rejects_too_few_vcs(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_vcs=2)

    def test_rejects_zero_buffer(self):
        with pytest.raises(ValueError):
            SimulationConfig(vc_buffer_depth=0)

    def test_rejects_packet_larger_than_buffer(self):
        with pytest.raises(ValueError):
            SimulationConfig(packet_size=20, vc_buffer_depth=16)

    def test_rejects_negative_gain(self):
        with pytest.raises(ValueError):
            SimulationConfig(credit_delay_gain=-1.0)

    def test_rejects_empty_measurement(self):
        with pytest.raises(ValueError):
            SimulationConfig(measure_cycles=0)

    def test_rejects_negative_drain_limit(self):
        # range(measure_end + drain_max_cycles) would be empty: both
        # engines returned total_cycles=1, 0 samples, accepted_load=0.0.
        with pytest.raises(ValueError, match="drain_max_cycles.*-5000"):
            SimulationConfig(
                warmup_cycles=100, measure_cycles=100, drain_max_cycles=-5000
            )

    def test_zero_drain_limit_stays_valid(self):
        assert SimulationConfig(drain_max_cycles=0).drain_max_cycles == 0


class TestBuilders:
    def test_with_load(self):
        config = SimulationConfig(load=0.1).with_load(0.5)
        assert config.load == 0.5

