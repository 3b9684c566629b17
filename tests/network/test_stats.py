"""Tests for the measurement/statistics containers."""

import math

import pytest

from repro.network.stats import LatencySample, LatencySamples, SimulationResult


def _result(latencies=(), minimal=(), drained=True, **kwargs):
    defaults = dict(
        routing_name="MIN",
        pattern_name="uniform_random",
        offered_load=0.2,
        num_terminals=10,
        measure_cycles=100,
        drained=drained,
        samples=LatencySamples(latencies, minimal),
    )
    defaults.update(kwargs)
    return SimulationResult(**defaults)


class TestLatencyStats:
    def test_average(self):
        result = _result([10, 20, 30], [True, True, False])
        assert result.avg_latency == 20

    def test_per_class_averages(self):
        result = _result([10, 20, 40], [True, True, False])
        assert result.avg_minimal_latency == 15
        assert result.avg_nonminimal_latency == 40

    def test_minimal_fraction(self):
        result = _result([1, 2, 3, 4], [True, False, True, True])
        assert result.minimal_fraction == 0.75

    def test_empty_samples_nan(self):
        result = _result()
        assert math.isnan(result.avg_latency)
        assert math.isnan(result.minimal_fraction)

    def test_percentiles(self):
        result = _result(list(range(1, 101)), [True] * 100)
        assert result.latency_percentile(0) == 1
        assert result.latency_percentile(100) == 100
        assert abs(result.latency_percentile(50) - 50.5) < 1e-9

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            _result([1], [True]).latency_percentile(101)


class TestSamplesReadAsASequence:
    """``SimulationResult.samples`` is two columns that still read as a
    ``Sequence[LatencySample]``."""

    def test_columns(self):
        samples = _result([10, 20, 40], [True, True, False]).samples
        assert samples.latency.tolist() == [10, 20, 40]
        assert bytes(samples.minimal) == b"\x01\x01\x00"
        assert samples.latencies(minimal=True).tolist() == [10, 20]
        assert samples.latencies(minimal=False).tolist() == [40]

    def test_len_iteration_indexing_equality_truthiness(self):
        samples = _result([10, 20, 40], [True, True, False]).samples
        expected = [
            LatencySample(10, True), LatencySample(20, True),
            LatencySample(40, False),
        ]
        assert len(samples) == 3 and samples
        assert list(samples) == expected
        assert samples[0] == expected[0] and samples[-1] == expected[-1]
        assert samples[1].minimal is True
        assert list(samples[1:]) == expected[1:]
        assert samples == LatencySamples([10, 20, 40], [1, 1, 0])
        assert samples != LatencySamples([10, 20], [1, 1])
        assert samples != LatencySamples([10, 20, 40], [1, 1, 1])
        assert LatencySample(20, True) in samples
        assert not _result().samples
        with pytest.raises(IndexError):
            samples[3]

    @pytest.mark.parametrize("minimal", [[True], [1, 0, 1], [1, 2]])
    def test_minimal_is_one_flag_per_latency(self, minimal):
        with pytest.raises(ValueError):
            LatencySamples([1, 2], minimal)

    def test_results_compare_by_their_samples(self):
        assert _result([1, 2], [True, False]) == _result([1, 2], [True, False])
        assert _result([1, 2], [True, False]) != _result([1, 2], [True, True])
        assert _result([1, 2], [True, False]) != _result([1, 3], [True, False])


class TestHistogram:
    def test_bins_and_fractions(self):
        result = _result([0, 1, 2, 10, 11], [True] * 5)
        histogram = dict(result.latency_histogram(bin_width=5))
        assert histogram[0] == pytest.approx(3 / 5)
        assert histogram[10] == pytest.approx(2 / 5)

    def test_minimal_only_filter_is_relative_to_all(self):
        result = _result([0, 0, 10], [True, False, True])
        minimal = dict(result.latency_histogram(bin_width=5, minimal_only=True))
        assert minimal[0] == pytest.approx(1 / 3)
        assert minimal[10] == pytest.approx(1 / 3)

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            _result([1], [True]).latency_histogram(bin_width=0)


class TestThroughput:
    def test_accepted_load(self):
        result = _result(ejected_flits_in_window=500)
        assert result.accepted_load == pytest.approx(0.5)

    def test_channel_utilization(self):
        result = _result(global_channel_flits={4: 50, 7: 100})
        util = result.global_channel_utilization()
        assert util == {4: 0.5, 7: 1.0}

    def test_saturated_flag(self):
        assert _result(drained=False).saturated
        assert not _result(drained=True).saturated

    def test_summary_contains_key_fields(self):
        text = _result([5], [True]).summary()
        assert "MIN" in text and "load=0.200" in text
