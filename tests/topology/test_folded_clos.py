"""Tests for the folded-Clos (fat tree) topology."""

import pytest

from oracles import minimal_hop_count
from repro.topology.folded_clos import FoldedClos, levels_required


class TestLevelsRequired:
    @pytest.mark.parametrize("n,radix,expected", [
        (4, 8, 1),
        (16, 8, 2),
        (64, 8, 3),
        (1024, 64, 2),
        (32768, 64, 3),
    ])
    def test_values(self, n, radix, expected):
        assert levels_required(n, radix) == expected

    def test_rejects_odd_radix(self):
        with pytest.raises(ValueError):
            levels_required(16, 7)


class TestSmallFatTree:
    def test_radix4_16_terminals(self):
        clos = FoldedClos(num_terminals=16, radix=4)
        assert clos.levels == 4
        assert clos.switches_per_level == 8
        assert clos.fabric.num_terminals == 16
        assert clos.fabric.unreachable_router() is None

    def test_radix8_64_terminals(self):
        clos = FoldedClos(num_terminals=64, radix=8)
        assert clos.levels == 3
        assert clos.num_switches == 3 * 16
        assert clos.fabric.unreachable_router() is None

    def test_radix8_16_terminals_two_levels(self):
        clos = FoldedClos(num_terminals=16, radix=8)
        assert clos.levels == 2
        assert clos.num_switches == 2 * 4
        assert clos.fabric.unreachable_router() is None

    def test_wrong_terminal_count_rejected(self):
        with pytest.raises(ValueError):
            FoldedClos(num_terminals=60, radix=8)

    def test_leaf_ports(self):
        clos = FoldedClos(num_terminals=16, radix=4)
        # Leaves have 2 terminals and 2 up channels.
        leaf = clos.switch_id(0, 0)
        assert clos.fabric.radix(leaf) == 4

    def test_top_level_uses_only_down_ports(self):
        clos = FoldedClos(num_terminals=16, radix=4)
        top = clos.switch_id(clos.levels - 1, 0)
        assert clos.fabric.radix(top) == 2

    def test_hop_counts(self):
        clos = FoldedClos(num_terminals=16, radix=4)
        assert minimal_hop_count(clos, 0, 1) == 0  # same leaf
        assert minimal_hop_count(clos, 0, 2) == 2  # adjacent leaf via level 1
        assert minimal_hop_count(clos, 0, 15) == 2 * (clos.levels - 1)

    def test_diameter_bounded_by_levels(self):
        clos = FoldedClos(num_terminals=64, radix=8)
        assert clos.fabric.router_diameter() <= 2 * (clos.levels - 1)


class TestButterflyWiring:
    def test_every_middle_switch_fully_wired(self):
        clos = FoldedClos(num_terminals=64, radix=8)
        for index in range(clos.switches_per_level):
            switch = clos.switch_id(0, index)
            assert clos.fabric.radix(switch) == 8

    def test_no_duplicate_channels(self):
        clos = FoldedClos(num_terminals=16, radix=4)
        seen = set()
        for forward, _ in clos.fabric.bidirectional_links():
            key = (forward.src.router, forward.src.port)
            assert key not in seen
            seen.add(key)
