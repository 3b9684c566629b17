"""Tests for the Figure 1 / Figure 4 scaling curves."""

from repro.core.params import DragonflyParams, balanced_params_for_radix
from repro.core.scaling import dragonfly_scalability_curve, radix_requirement_curve
from repro.topology.dragonfly import Dragonfly


def balanced_size_for_radix(radix):
    """Terminals of the largest balanced dragonfly at ``radix``."""
    return balanced_params_for_radix(radix).num_terminals


class TestRadixRequirementCurve:
    def test_monotone_in_n(self):
        points = radix_requirement_curve([100, 1000, 10_000, 100_000])
        radices = [p.required_radix for p in points]
        assert radices == sorted(radices)

    def test_figure1_magnitude(self):
        """Near 1M nodes the required radix passes 1000 (Figure 1)."""
        (point,) = radix_requirement_curve([1_000_000])
        assert point.required_radix > 1000


class TestScalabilityCurve:
    def test_monotone_in_radix(self):
        points = dragonfly_scalability_curve(range(8, 64, 4))
        sizes = [p.num_terminals for p in points]
        assert sizes == sorted(sizes)

    def test_radix_64_exceeds_256k(self):
        assert balanced_size_for_radix(64) > 256_000

    def test_quartic_growth(self):
        """Doubling the radix grows the network ~16x (N ~ k^4 / 64)."""
        ratio = balanced_size_for_radix(63) / balanced_size_for_radix(31)
        assert 10 < ratio < 24

    def test_points_carry_params(self):
        (point,) = dragonfly_scalability_curve([7])
        assert point.params.num_terminals == 72


class TestDiameter:
    """The router diameter of a concrete dragonfly: local + global +
    local when groups hold several routers and there are several groups."""

    def test_full_dragonfly_diameter_three(self):
        assert Dragonfly(DragonflyParams(p=2, a=4, h=2)).fabric.router_diameter() == 3

    def test_single_group(self):
        single = Dragonfly(DragonflyParams(p=2, a=4, h=0, num_groups=1))
        assert single.fabric.router_diameter() == 1

    def test_single_router_groups(self):
        # a=1: no local hops, global diameter 1.
        assert Dragonfly(DragonflyParams(p=2, a=1, h=2)).fabric.router_diameter() == 1
