"""Tests for the per-topology cost models (Figure 19)."""

import pytest

from repro.cost.model import (
    CostConfig,
    DragonflyCost,
    FlattenedButterflyCost,
    FoldedClosCost,
    TorusCost,
    cost_comparison,
)


@pytest.fixture(scope="module")
def config():
    return CostConfig()


class TestBreakdownConsistency:
    @pytest.mark.parametrize("model_cls", [
        DragonflyCost, FlattenedButterflyCost, FoldedClosCost, TorusCost,
    ])
    @pytest.mark.parametrize("n", [512, 4096, 16384])
    def test_totals_positive_and_consistent(self, model_cls, n, config):
        breakdown = model_cls(n, config).breakdown()
        assert breakdown.total_dollars > 0
        assert breakdown.dollars_per_node == pytest.approx(
            breakdown.total_dollars / n
        )
        assert breakdown.cable_dollars == pytest.approx(
            breakdown.backplane_dollars
            + breakdown.electrical_cable_dollars
            + breakdown.optical_cable_dollars
        )

    def test_rejects_zero_terminals(self, config):
        with pytest.raises(ValueError):
            DragonflyCost(0, config)


class TestDragonflyCost:
    def test_single_group_below_784(self, config):
        model = DragonflyCost(512, config)
        assert model.g == 1
        assert model.h == 0
        # No optical cables needed in one fully-connected layer.
        assert model.breakdown().num_optical_cables == 0

    def test_multi_group_beyond_784(self, config):
        model = DragonflyCost(4096, config)
        assert model.g == 8
        assert (model.p, model.a, model.h) == (16, 32, 16)

    def test_taper_converges_to_balanced_wiring(self, config):
        """At large g the uniform-bisection taper equals the natural
        balanced wiring ah/(g-1)."""
        model = DragonflyCost(65536, config)
        natural = (model.a * model.h) // (model.g - 1)
        assert model._channels_per_pair() == pytest.approx(natural, abs=1)

    def test_global_cables_scale_linearly(self, config):
        small = DragonflyCost(8192, config).breakdown()
        large = DragonflyCost(32768, config).breakdown()
        ratio = (
            (large.num_electrical_cables + large.num_optical_cables)
            / (small.num_electrical_cables + small.num_optical_cables)
        )
        assert 2.5 < ratio < 6.0


class TestFlattenedButterflyCost:
    def test_single_dim_below_784(self, config):
        model = FlattenedButterflyCost(512, config)
        assert model.dims == (32,)

    def test_dims_grow_with_n(self, config):
        assert FlattenedButterflyCost(4096, config).dims == (16, 16)
        assert FlattenedButterflyCost(65536, config).dims == (16, 16, 16)

    def test_partial_dims_widen_channels(self, config):
        model = FlattenedButterflyCost(8192, config)
        assert model.dims == (16, 16, 2)
        assert model._dim_gbps(2) == pytest.approx(8 * config.channel_gbps)

    def test_identical_to_dragonfly_when_degenerate(self, config):
        """Below one fully-connected layer both topologies coincide."""
        df = DragonflyCost(512, config).breakdown()
        fb = FlattenedButterflyCost(512, config).breakdown()
        assert df.dollars_per_node == pytest.approx(fb.dollars_per_node, rel=0.01)


class TestFoldedClosCost:
    def test_level_counts(self, config):
        assert FoldedClosCost(1024, config).levels == 2
        assert FoldedClosCost(65536, config).levels == 3

    def test_switch_count_formula(self, config):
        model = FoldedClosCost(16384, config)
        assert model.num_routers() == (2 * 3 - 1) * 16384 // 64


class TestTorusCost:
    def test_near_cubic_dims(self, config):
        model = TorusCost(16384, config)
        assert len(model.dims) == 3
        assert model.routers >= 16384 // 2

    def test_channels_widen_with_ring_size(self, config):
        model = TorusCost(16384, config)
        for m in model.dims:
            assert model._dim_gbps(m) >= config.channel_gbps


class TestFigure19Shape:
    """The relative positions the paper reports."""

    @pytest.fixture(scope="class")
    def comparison(self):
        sizes = [512, 4096, 16384, 65536]
        return sizes, cost_comparison(sizes)

    def test_dragonfly_equals_fb_at_small_size(self, comparison):
        sizes, results = comparison
        df = results["dragonfly"][0].dollars_per_node
        fb = results["flattened_butterfly"][0].dollars_per_node
        assert df == pytest.approx(fb, rel=0.02)

    def test_dragonfly_beats_fb_at_scale(self, comparison):
        sizes, results = comparison
        df = results["dragonfly"][-1].dollars_per_node
        fb = results["flattened_butterfly"][-1].dollars_per_node
        assert 1 - df / fb > 0.15  # paper: ~20-30% at 64K

    def test_dragonfly_beats_clos_by_half(self, comparison):
        sizes, results = comparison
        for i, n in enumerate(sizes):
            if n < 4096:
                continue
            df = results["dragonfly"][i].dollars_per_node
            clos = results["folded_clos"][i].dollars_per_node
            assert 0.4 < 1 - df / clos < 0.65  # paper: ~52%

    def test_torus_is_most_expensive_at_scale(self, comparison):
        sizes, results = comparison
        for i, n in enumerate(sizes):
            if n < 4096:
                continue
            torus = results["torus_3d"][i].dollars_per_node
            for name in ("dragonfly", "flattened_butterfly", "folded_clos"):
                assert torus > results[name][i].dollars_per_node

    def test_dragonfly_cost_grows_slowest(self, comparison):
        """From 4K to 64K (both multi-level regimes) the dragonfly's
        $/node grows slower than every alternative."""
        sizes, results = comparison
        start = sizes.index(4096)

        def growth(name):
            return (
                results[name][-1].dollars_per_node
                / results[name][start].dollars_per_node
            )

        assert growth("dragonfly") < growth("flattened_butterfly")
        assert growth("dragonfly") < growth("torus_3d")
