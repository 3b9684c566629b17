"""Tests for the packaging/floor-plan model."""

import pytest

from repro.cost.packaging import FloorPlan, PackagingConfig


@pytest.fixture()
def config():
    return PackagingConfig(
        terminals_per_cabinet=512,
        cabinet_pitch_m=1.5,
        cable_overhead_m=2.0,
        intra_cabinet_length_m=1.0,
    )


class TestConfigValidation:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PackagingConfig(terminals_per_cabinet=0)

    def test_rejects_zero_pitch(self):
        with pytest.raises(ValueError):
            PackagingConfig(cabinet_pitch_m=0)

    def test_rejects_negative_lengths(self):
        with pytest.raises(ValueError):
            PackagingConfig(cable_overhead_m=-1)


class TestFloorPlan:
    def test_near_square_grid(self, config):
        plan = FloorPlan(10, config)
        assert plan.columns == 4
        assert plan.rows == 3

    def test_for_terminals(self, config):
        plan = FloorPlan.for_terminals(5000, config)
        assert plan.num_cabinets == 10

    def test_positions_unique(self, config):
        plan = FloorPlan(12, config)
        positions = {plan.position(c) for c in range(12)}
        assert len(positions) == 12

    def test_intra_cabinet_length(self, config):
        plan = FloorPlan(4, config)
        assert plan.cable_length(2, 2) == 1.0

    def test_adjacent_cabinet_length(self, config):
        plan = FloorPlan(4, config)
        # cabinets 0 and 1 share a row: 1 pitch + overhead.
        assert plan.cable_length(0, 1) == pytest.approx(1.5 + 2.0)

    def test_manhattan_distance(self, config):
        plan = FloorPlan(9, config)  # 3x3 grid
        # cabinet 0 at (0,0), cabinet 8 at (2,2): 4 hops.
        assert plan.cable_length(0, 8) == pytest.approx(4 * 1.5 + 2.0)

    def test_symmetry(self, config):
        plan = FloorPlan(9, config)
        for a in range(9):
            for b in range(9):
                assert plan.cable_length(a, b) == plan.cable_length(b, a)

    def test_max_cable_length(self, config):
        plan = FloorPlan(9, config)
        lengths = [
            plan.cable_length(a, b) for a in range(9) for b in range(9) if a != b
        ]
        assert max(lengths) == plan.max_cable_length()

    def test_average_pair_distance(self, config):
        plan = FloorPlan(2, config)
        assert plan.average_pair_distance() == pytest.approx(3.5)

    def test_central_cabinet(self, config):
        plan = FloorPlan(9, config)  # 3x3
        assert plan.central_cabinet() == 4

    def test_out_of_range(self, config):
        plan = FloorPlan(4, config)
        with pytest.raises(ValueError):
            plan.position(4)

    def test_single_cabinet(self, config):
        plan = FloorPlan(1, config)
        assert plan.average_pair_distance() == 1.0
        assert plan.max_cable_length() == 1.0
