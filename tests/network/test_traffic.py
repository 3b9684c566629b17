"""Tests for the synthetic traffic patterns."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import DragonflyParams
from repro.network.traffic import (
    GroupTornado,
    Hotspot,
    RandomPermutation,
    Shift,
    UniformRandom,
    WorstCase,
    make_pattern,
)
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


class TestUniformRandom:
    def test_never_self(self):
        pattern = UniformRandom(16, seed=3)
        for src in range(16):
            for _ in range(50):
                assert pattern(src) != src

    def test_covers_all_destinations(self):
        pattern = UniformRandom(8, seed=4)
        seen = {pattern(0) for _ in range(500)}
        assert seen == set(range(1, 8))

    def test_requires_two_terminals(self):
        with pytest.raises(ValueError):
            UniformRandom(1)


class TestWorstCase:
    def test_targets_next_group(self, df):
        pattern = WorstCase(df, seed=5)
        per_group = df.params.terminals_per_group
        for src in range(0, 72, 5):
            dst = pattern(src)
            assert dst // per_group == (src // per_group + 1) % df.g

    def test_randomises_within_group(self, df):
        pattern = WorstCase(df, seed=6)
        destinations = {pattern(0) for _ in range(200)}
        assert len(destinations) == df.params.terminals_per_group

    def test_rejects_zero_offset(self, df):
        with pytest.raises(ValueError):
            WorstCase(df, group_offset=df.g)

    def test_custom_offset(self, df):
        pattern = WorstCase(df, group_offset=3)
        per_group = df.params.terminals_per_group
        assert pattern(0) // per_group == 3


class TestTornado:
    def test_half_way_offset(self, df):
        pattern = GroupTornado(df)
        per_group = df.params.terminals_per_group
        assert pattern(0) // per_group == (df.g + 1) // 2 % df.g


class TestDeterministicPatterns:
    def test_shift(self):
        pattern = Shift(10, offset=3)
        assert pattern(9) == 2

    def test_shift_rejects_identity(self):
        with pytest.raises(ValueError):
            Shift(10, offset=10)


class TestHotspot:
    def test_hot_fraction(self):
        pattern = Hotspot(32, hot_terminal=0, hot_fraction=0.5, seed=7)
        hits = sum(pattern(5) == 0 for _ in range(1000))
        assert 380 <= hits <= 620

    def test_full_hotspot(self):
        pattern = Hotspot(32, hot_terminal=3, hot_fraction=1.0, seed=8)
        assert all(pattern(5) == 3 for _ in range(50))

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Hotspot(32, hot_fraction=0.0)


class TestRandomPermutation:
    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_is_fixed_point_free_permutation(self, seed):
        pattern = RandomPermutation(24, seed=seed)
        image = [pattern(src) for src in range(24)]
        assert sorted(image) == list(range(24))
        assert all(image[src] != src for src in range(24))


class TestFactory:
    @pytest.mark.parametrize("name", [
        "uniform_random", "worst_case", "group_tornado", "shift",
        "hotspot", "random_permutation",
    ])
    def test_known_names(self, df, name):
        pattern = make_pattern(name, df)
        dst = pattern(0)
        assert 0 <= dst < df.num_terminals

    def test_unknown_name(self, df):
        with pytest.raises(ValueError):
            make_pattern("nonsense", df)
