"""Manifest identity and decomposition, and the service's layering."""

import dataclasses
import json

import pytest

from repro.core.params import DragonflyParams
from repro.network.cache import key_digest, point_key, topology_signature
from repro.routing.ugal import make_routing
from repro.service.manifest import SweepManifest, TopologySpec
from repro.topology.dragonfly import Dragonfly


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

    def test_from_topology_builds_the_same_network(self, tiny_spec):
        topology = tiny_spec.build()
        rebuilt = TopologySpec.from_topology(topology).build()
        assert topology_signature(rebuilt) == topology_signature(topology)

    @pytest.mark.parametrize("wiring, value", [
        ("max_channels_per_pair", 1),
        ("global_latency", 10),
    ])
    def test_from_topology_refuses_what_it_cannot_describe(self, wiring, value):
        """Its ``build()`` would return the untapered, unit-latency
        network: 20 global cables instead of 10 at ``p, a, h, g = 2, 4, 2, 5``."""
        topology = Dragonfly(DragonflyParams(2, 4, 2, 5), **{wiring: value})
        with pytest.raises(ValueError, match=f"cannot describe {wiring}={value}"):
            TopologySpec.from_topology(topology)


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

    @pytest.mark.parametrize("routing", ["FB-UGAL-L", "VAR-MIN", "TORUS-DOR", "CLOS-RAND"])
    def test_other_family_routing_rejected(self, tiny_manifest, routing):
        """The service builds dragonflies; a routing for another family
        would only fail inside a worker."""
        with pytest.raises(ValueError, match=f"{routing!r} drives a .*dragonfly"):
            dataclasses.replace(tiny_manifest, routings=(routing,))

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


    @pytest.mark.parametrize("pattern", ["worst_case", "bursty"])
    def test_known_pattern_accepted(self, tiny_manifest, pattern):
        manifest = dataclasses.replace(tiny_manifest, patterns=(pattern,))
        assert manifest.patterns == (pattern,)

    def test_unknown_pattern_fails_at_submission(self, tiny_manifest):
        """With ``make_pattern``'s own message, not inside a worker."""
        with pytest.raises(ValueError, match="unknown traffic pattern 'nope'; choose from"):
            dataclasses.replace(tiny_manifest, patterns=("uniform_random", "nope"))

