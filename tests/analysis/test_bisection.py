"""Tests for bisection bandwidth analytics."""

import pytest

from repro.analysis.bisection import dragonfly_group_bisection
from repro.core.params import DragonflyParams
from repro.topology.dragonfly import Dragonfly


def max_size_dragonfly_bisection(a, h):
    """Closed form for the maximum-size dragonfly (g = ah + 1): a
    balanced cut separates ``floor(g/2) * ceil(g/2)`` group pairs, one
    channel each."""
    g = a * h + 1
    return (g // 2) * ((g + 1) // 2)


class TestGroupBisection:
    def test_figure5_network(self, paper72_dragonfly):
        # g=9: balanced cut 4|5 -> 20 crossing pairs, one channel each.
        assert dragonfly_group_bisection(paper72_dragonfly) == 20

    def test_closed_form_matches(self, paper72_dragonfly):
        assert (
            max_size_dragonfly_bisection(4, 2)
            == dragonfly_group_bisection(paper72_dragonfly)
        )

    def test_single_group_zero(self):
        df = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=1))
        assert dragonfly_group_bisection(df) == 0

    def test_non_maximal_has_more_channels_per_cut(self):
        small = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=4))
        # 4 groups, 8 ports each, pairs get 2-3 channels; cut 2|2 crosses
        # 4 pairs of at least 2 channels.
        assert dragonfly_group_bisection(small) >= 8

    def test_per_node_near_half_for_balanced(self, paper72_dragonfly):
        """Balanced dragonfly ~= full bisection: >= 0.5 channels/node
        cross the cut (only half a node's uniform traffic crosses)."""
        value = dragonfly_group_bisection(paper72_dragonfly) / paper72_dragonfly.num_terminals
        assert 0.25 <= value <= 0.6


class TestClosedForm:
    @pytest.mark.parametrize("a,h", [(2, 1), (4, 2), (8, 4)])
    def test_formula(self, a, h):
        """The maximum-size dragonfly's counted bisection is the closed
        form: exhaustive below 17 groups, the contiguous split at g = 33."""
        df = Dragonfly(DragonflyParams(p=1, a=a, h=h))
        assert df.g == a * h + 1
        assert dragonfly_group_bisection(df) == max_size_dragonfly_bisection(a, h)

    def test_matches_exhaustive_for_small(self):
        df = Dragonfly(DragonflyParams(p=1, a=2, h=1))  # g = 3
        assert dragonfly_group_bisection(df) == max_size_dragonfly_bisection(2, 1)
