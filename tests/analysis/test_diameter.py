"""Tests for the Table 2 hop/cable-length comparison."""

import math

import pytest

from repro.analysis.diameter import (
    HopCount,
    dragonfly_row,
    flattened_butterfly_row,
    table2,
)


class TestHopCount:
    def test_cycles(self):
        hops = HopCount(local=2, global_=1)
        assert hops.cycles(local_latency=3, global_latency=20) == 26

    def test_str(self):
        assert str(HopCount(2, 1)) == "2*hl + 1*hg"


class TestTable2Rows:
    def test_flattened_butterfly(self):
        row = flattened_butterfly_row()
        assert (row.minimal_diameter.local, row.minimal_diameter.global_) == (1, 2)
        assert (row.nonminimal_diameter.local, row.nonminimal_diameter.global_) == (2, 4)
        assert row.avg_cable_fraction == pytest.approx(1 / 3)
        assert row.max_cable_fraction == 1.0

    def test_dragonfly(self):
        row = dragonfly_row()
        assert (row.minimal_diameter.local, row.minimal_diameter.global_) == (2, 1)
        assert (row.nonminimal_diameter.local, row.nonminimal_diameter.global_) == (3, 2)
        assert row.avg_cable_fraction == pytest.approx(2 / 3)
        assert row.max_cable_fraction == 2.0

    def test_dragonfly_diagonal_footnote(self):
        row = dragonfly_row(diagonal_cables=True)
        assert row.max_cable_fraction == pytest.approx(math.sqrt(2))

    def test_dragonfly_fewer_global_hops(self):
        fb, df = flattened_butterfly_row(), dragonfly_row()
        assert df.minimal_diameter.global_ < fb.minimal_diameter.global_
        assert df.avg_cable_fraction > fb.avg_cable_fraction  # the trade

    def test_cable_lengths_scale_with_extent(self):
        row = dragonfly_row()
        assert row.avg_cable_fraction * 30.0 == pytest.approx(20.0)
        assert row.max_cable_fraction * 30.0 == pytest.approx(60.0)

    def test_table_order(self):
        rows = table2()
        assert rows[0].topology == "flattened butterfly"
        assert rows[1].topology == "dragonfly"


class TestConcreteDiameter:
    def test_matches_built_topology(self, paper72_dragonfly):
        # Minimal routing's local + global + local hops.
        assert paper72_dragonfly.fabric.router_diameter() == 3
