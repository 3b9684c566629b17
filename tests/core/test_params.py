"""Unit tests for the dragonfly parameter algebra."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import smallest_balanced_for
from repro.core.params import (
    DragonflyParams,
    TopologyError,
    balanced_params_for_radix,
    required_radix_single_hop,
)
from repro.topology.base import ChannelKind
from repro.topology.dragonfly import Dragonfly


class TestDerivedQuantities:
    def test_figure5_example(self):
        params = DragonflyParams.paper_example_72()
        assert params.radix == 7
        assert params.effective_radix == 16
        assert params.max_groups == 9
        assert params.g == 9
        assert params.num_terminals == 72
        assert params.num_routers == 36

    def test_paper_1k_configuration(self):
        params = DragonflyParams.paper_1k()
        assert (params.p, params.a, params.h) == (4, 8, 4)
        assert params.num_terminals == 1056
        assert params.max_groups == 33

    def test_radix_formula(self):
        params = DragonflyParams(p=3, a=5, h=2)
        assert params.radix == 3 + 5 + 2 - 1

    def test_effective_radix_formula(self):
        params = DragonflyParams(p=3, a=5, h=2)
        assert params.effective_radix == 5 * (3 + 2)

    def test_channel_counts_max_size(self):
        fabric = Dragonfly(DragonflyParams(p=2, a=4, h=2)).fabric
        # 9 groups, fully connected pairs: 36 global channels.
        assert fabric.num_cables(ChannelKind.GLOBAL) == 9 * 4 * 2 // 2
        assert fabric.num_cables(ChannelKind.LOCAL) == 9 * (4 * 3 // 2)

    def test_single_group_has_no_global_channels(self):
        fabric = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=1)).fabric
        assert fabric.num_cables(ChannelKind.GLOBAL) == 0

    def test_terminals_per_group(self):
        assert DragonflyParams(p=3, a=4, h=3).terminals_per_group == 12


class TestBalance:
    def test_balanced_constructor(self):
        params = DragonflyParams.balanced(4)
        assert params.is_balanced
        assert (params.p, params.a, params.h) == (4, 8, 4)

    def test_paper_configs_are_balanced(self):
        assert DragonflyParams.paper_1k().is_balanced
        assert DragonflyParams.paper_example_72().is_balanced

    def test_overprovisioned_accepts_extra_local(self):
        params = DragonflyParams(p=4, a=10, h=4)
        assert not params.is_balanced
        assert params.is_overprovisioned

    def test_underprovisioned_detected(self):
        params = DragonflyParams(p=2, a=4, h=4)
        assert not params.is_overprovisioned


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"p": 0, "a": 4, "h": 2},
        {"p": 2, "a": 0, "h": 2},
        {"p": 2, "a": 4, "h": -1},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(TopologyError):
            DragonflyParams(**kwargs)

    def test_rejects_too_many_groups(self):
        with pytest.raises(TopologyError):
            DragonflyParams(p=2, a=4, h=2, num_groups=10)

    def test_rejects_multi_group_without_global_channels(self):
        with pytest.raises(TopologyError):
            DragonflyParams(p=2, a=4, h=0, num_groups=2)

    def test_rejects_odd_global_endpoint_total(self):
        # g=3 groups with a*h=1 ports each: 3 endpoints cannot be paired.
        with pytest.raises(TopologyError):
            DragonflyParams(p=1, a=1, h=1, num_groups=3)

    def test_accepts_non_maximal_group_count(self):
        params = DragonflyParams(p=2, a=4, h=2, num_groups=5)
        assert params.g == 5
        assert not params.is_max_size


class TestMinChannelsBetweenPairs:
    def test_max_size_guarantees_one(self):
        assert DragonflyParams(p=2, a=4, h=2).min_channels_between_group_pairs() == 1

    def test_small_network_gets_more(self):
        params = DragonflyParams(p=2, a=4, h=2, num_groups=3)
        # 8 ports per group over 2 peers -> at least 4 channels per pair.
        assert params.min_channels_between_group_pairs() == 4

    def test_single_group_zero(self):
        assert DragonflyParams(p=2, a=4, h=2, num_groups=1).min_channels_between_group_pairs() == 0


class TestSmallestBalancedFor:
    def test_exact(self):
        params = smallest_balanced_for(72)
        assert params.num_terminals == 72

    def test_at_least(self):
        params = smallest_balanced_for(73)
        assert params.num_terminals >= 73
        smaller = DragonflyParams.balanced(params.h - 1)
        assert smaller.num_terminals < 73

    def test_invalid(self):
        with pytest.raises(TopologyError):
            smallest_balanced_for(0)


class TestRequiredRadix:
    def test_single_terminal(self):
        assert required_radix_single_hop(1) == 1

    def test_scales_as_two_sqrt_n(self):
        for n in (100, 10_000, 1_000_000):
            expected = 2 * int(n**0.5)
            assert abs(required_radix_single_hop(n) - expected) <= 2

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            required_radix_single_hop(0)

    @given(st.integers(min_value=1, max_value=50_000))
    @settings(max_examples=50)
    def test_radix_is_achievable(self, n):
        """Some concentration c actually achieves the reported radix."""
        import math

        k = required_radix_single_hop(n)
        achievable = any(
            c + math.ceil(n / c) - 1 == k for c in range(1, int(n**0.5) + 1)
        ) or k == n
        assert achievable


class TestBalancedParamsForRadix:
    def test_radix_64(self):
        params = balanced_params_for_radix(64)
        assert params.h == 16
        assert params.num_terminals == 262_656  # > 256K, paper's claim

    def test_radix_7_gives_figure5(self):
        params = balanced_params_for_radix(7)
        assert (params.p, params.a, params.h) == (2, 4, 2)

    def test_built_radix_never_exceeds_budget(self):
        for k in range(3, 128):
            assert balanced_params_for_radix(k).radix <= k

    def test_too_small(self):
        with pytest.raises(TopologyError):
            balanced_params_for_radix(2)
