"""Manifest identity, decomposition and figure presets."""

import dataclasses
import json

import pytest

from repro.network.cache import key_digest, point_key
from repro.routing.ugal import make_routing
from repro.service.manifest import (
    SweepManifest,
    TopologySpec,
    manifests_for_figure,
)


class TestTopologySpec:
    def test_build_matches_spec(self, tiny_spec):
        topology = tiny_spec.build()
        assert (topology.params.p, topology.params.a, topology.params.h) == (1, 2, 1)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            TopologySpec(family="torus", p=1, a=2, h=1)

    def test_bad_params_fail_at_submission(self):
        with pytest.raises(Exception):
            TopologySpec(family="dragonfly", p=0, a=2, h=1)

    def test_round_trip(self, tiny_spec):
        assert TopologySpec.from_dict(tiny_spec.to_dict()) == tiny_spec


class TestSweepManifest:
    def test_unit_count_is_grid_size(self, tiny_manifest):
        assert tiny_manifest.num_units() == 2 * 1 * 3 * 1
        units = tiny_manifest.work_units()
        assert len(units) == tiny_manifest.num_units()
        assert [u.index for u in units] == list(range(len(units)))

    def test_units_are_content_addressed(self, tiny_manifest):
        topology = tiny_manifest.topology.build()
        for unit in tiny_manifest.work_units(topology):
            expected = point_key(
                topology,
                unit.spec.routing_name,
                unit.spec.pattern_name,
                unit.spec.config,
            )
            assert unit.key == expected
            assert unit.digest == key_digest(expected)

    def test_digest_stable_across_json_round_trip(self, tiny_manifest):
        data = json.loads(json.dumps(tiny_manifest.to_dict()))
        clone = SweepManifest.from_dict(data)
        assert clone == tiny_manifest
        assert clone.digest == tiny_manifest.digest
        assert clone.job_id == tiny_manifest.job_id

    def test_digest_changes_with_grid(self, tiny_manifest):
        widened = dataclasses.replace(tiny_manifest, loads=(0.1, 0.2, 0.3, 0.4))
        assert widened.digest != tiny_manifest.digest

    def test_unknown_routing_rejected(self, tiny_spec, tiny_config):
        with pytest.raises(ValueError, match="routing"):
            SweepManifest(
                figure="x",
                topology=tiny_spec,
                routings=("BOGUS",),
                patterns=("uniform_random",),
                loads=(0.1,),
                seeds=(1,),
                config=tiny_config,
            )

    @pytest.mark.parametrize("routing", ["TBL-MIN/gcX", "UGAL-Q"])
    def test_rejection_is_make_routings_and_names_the_choices(
        self, tiny_manifest, routing
    ):
        with pytest.raises(ValueError) as excinfo:
            dataclasses.replace(tiny_manifest, routings=(routing,))
        with pytest.raises(ValueError) as expected:
            make_routing(routing)
        assert str(excinfo.value) == str(expected.value)
        assert repr(routing) in str(excinfo.value)
        assert "TBL-MIN/gcK" in str(excinfo.value)

    def test_every_name_make_routing_parses_is_accepted(self, tiny_manifest):
        """The manifest has no routing list of its own to fall behind."""
        manifest = dataclasses.replace(
            tiny_manifest, routings=("TBL-MIN/gc4", "UGAL-L_CR")
        )
        assert manifest.routings == ("TBL-MIN/gc4", "UGAL-L_CR")

    def test_empty_grid_axis_rejected(self, tiny_spec, tiny_config):
        with pytest.raises(ValueError, match="loads"):
            SweepManifest(
                figure="x",
                topology=tiny_spec,
                routings=("MIN",),
                patterns=("uniform_random",),
                loads=(),
                seeds=(1,),
                config=tiny_config,
            )

    def test_out_of_range_load_rejected(self, tiny_spec, tiny_config):
        with pytest.raises(ValueError, match="loads"):
            SweepManifest(
                figure="x",
                topology=tiny_spec,
                routings=("MIN",),
                patterns=("uniform_random",),
                loads=(1.5,),
                seeds=(1,),
                config=tiny_config,
            )


class TestFigurePresets:
    def test_fig09_preset(self):
        manifests = manifests_for_figure("fig09", quick=True)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.figure == "fig09"
        assert manifest.routings == ("UGAL-L", "UGAL-G")
        assert manifest.patterns == ("worst_case",)
        # Figure 9 (and Figure9ChannelUtilization) is the one load 0.2.
        assert manifest.loads == (0.2,)
        assert manifest.num_units() == 2

    def test_loads_override(self):
        (manifest,) = manifests_for_figure("fig09", quick=True, loads=[0.05, 0.1])
        assert manifest.loads == (0.05, 0.1)

    def test_depth_figures_expand_to_one_manifest_per_depth(self):
        manifests = manifests_for_figure("fig14", quick=True)
        depths = sorted(m.config.vc_buffer_depth for m in manifests)
        assert depths == [4, 8, 16, 32, 64]
        assert {m.figure for m in manifests} == {"fig14"}

    def test_every_preset_decomposes(self):
        for figure in ("fig08", "fig09", "fig10", "fig11", "fig12", "fig14", "fig16"):
            for manifest in manifests_for_figure(figure, quick=True):
                assert manifest.num_units() > 0

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="no sweep preset"):
            manifests_for_figure("fig99")
