"""Tests for the k-ary n-cube (torus) topology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import minimal_hop_count
from repro.topology.torus import Torus


class TestConstruction:
    def test_3d_torus(self):
        torus = Torus(dims=(4, 4, 4), concentration=2)
        assert torus.num_routers == 64
        assert torus.num_terminals == 128
        assert torus.radix == 2 + 6
        assert torus.fabric.num_cables() == 3 * 64

    def test_size_two_rings_have_single_cables(self):
        torus = Torus(dims=(2, 2), concentration=1)
        # 4 routers, 2 dims; each ring of size 2 gets one cable, not two.
        assert torus.fabric.num_cables() == 4

    def test_rejects_dim_one(self):
        with pytest.raises(ValueError):
            Torus(dims=(1, 4), concentration=1)

    def test_rejects_zero_concentration(self):
        with pytest.raises(ValueError):
            Torus(dims=(4, 4), concentration=0)

    def test_coords_roundtrip(self):
        torus = Torus(dims=(3, 4, 5), concentration=1)
        for router in (0, 7, 59, torus.num_routers - 1):
            assert torus.router_at(torus.coords_of(router)) == router


class TestStructure:
    def test_neighbours_wrap(self):
        torus = Torus(dims=(4,), concentration=1)
        assert sorted(torus.fabric.neighbors(0)) == [1, 3]

    def test_connected(self):
        torus = Torus(dims=(3, 3, 3), concentration=1)
        assert torus.fabric.unreachable_router() is None

    def test_diameter(self):
        torus = Torus(dims=(4, 4), concentration=1)
        assert torus.fabric.router_diameter() == 4  # 2 + 2 ring halves

    def test_hop_count_ring_distance(self):
        torus = Torus(dims=(5,), concentration=1)
        assert minimal_hop_count(torus, 0, 1) == 1
        assert minimal_hop_count(torus, 0, 4) == 1  # wraps
        assert minimal_hop_count(torus, 0, 2) == 2


@given(
    dims=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
    concentration=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_torus_degree_regular(dims, concentration):
    """Property: every router's network degree is 2n (or n for size-2 dims)."""
    torus = Torus(dims=dims, concentration=concentration)
    expected_degree = sum(1 if m == 2 else 2 for m in dims)
    for router in range(torus.num_routers):
        network_ports = torus.fabric.radix(router) - concentration
        assert network_ports == expected_degree
