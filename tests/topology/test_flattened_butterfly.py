"""Tests for the flattened butterfly topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_hop_count
from repro.topology.base import ChannelKind
from repro.topology.flattened_butterfly import FlattenedButterfly


class TestOneDimensional:
    """A 1-D flattened butterfly is a completely-connected network."""

    def test_structure(self):
        fb = FlattenedButterfly(dims=(4,), concentration=2)
        assert fb.num_routers == 4
        assert fb.num_terminals == 8
        assert fb.radix == 2 + 3
        assert fb.fabric.num_cables() == 4 * 3 // 2

    def test_diameter_one(self):
        fb = FlattenedButterfly(dims=(4,), concentration=2)
        assert fb.fabric.router_diameter() == 1


class TestTwoDimensional:
    def test_figure6a_shape(self):
        """Figure 6(a): 2-D flattened butterfly group, 2x4 with p=2."""
        fb = FlattenedButterfly(dims=(2, 4), concentration=2)
        assert fb.num_routers == 8
        assert fb.radix == 2 + 1 + 3

    def test_coords_roundtrip(self):
        fb = FlattenedButterfly(dims=(3, 4), concentration=1)
        for router in range(fb.num_routers):
            assert fb.router_at(fb.coords_of(router)) == router

    def test_channels_connect_within_lines(self):
        fb = FlattenedButterfly(dims=(3, 4), concentration=1)
        for forward, _ in fb.fabric.bidirectional_links():
            src = fb.coords_of(forward.src.router)
            dst = fb.coords_of(forward.dst.router)
            differing = [i for i, (s, d) in enumerate(zip(src, dst)) if s != d]
            assert len(differing) == 1

    def test_hop_count_is_hamming_distance(self):
        fb = FlattenedButterfly(dims=(3, 4), concentration=1)
        assert minimal_hop_count(fb, 0, 0) == 0
        # terminal t sits on router t for c=1
        assert minimal_hop_count(fb, 0, 1) == 1  # same row
        assert minimal_hop_count(fb, 0, 5) == 2  # different row and column

    def test_global_dims_marking(self):
        fb = FlattenedButterfly(dims=(4, 4), concentration=2, global_dims=(1,))
        local = fb.fabric.num_cables(ChannelKind.LOCAL)
        global_ = fb.fabric.num_cables(ChannelKind.GLOBAL)
        assert local == global_ == 4 * (4 * 3 // 2)


class TestValidation:
    def test_rejects_empty_dims(self):
        with pytest.raises(ValueError):
            FlattenedButterfly(dims=(), concentration=2)

    def test_rejects_zero_concentration(self):
        with pytest.raises(ValueError):
            FlattenedButterfly(dims=(4,), concentration=0)

    def test_dim_port_rejects_self(self):
        fb = FlattenedButterfly(dims=(4,), concentration=1)
        with pytest.raises(ValueError):
            fb.dim_port(0, 0, 0)


@given(
    dims=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    concentration=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_fb_cable_count_formula(dims, concentration):
    """Property: cables per dimension = routers * (m - 1) / 2."""
    fb = FlattenedButterfly(dims=dims, concentration=concentration)
    expected = sum(fb.num_routers * (m - 1) // 2 for m in dims)
    assert fb.fabric.num_cables() == expected
    if fb.num_routers > 1:
        assert fb.fabric.router_diameter() <= len(dims)
