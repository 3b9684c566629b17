"""Manifest identity and decomposition, and the service's layering."""

import dataclasses
import json

import pytest

from repro.core.params import DragonflyParams
from repro.network.cache import key_digest, point_key
from repro.routing.ugal import make_routing
from repro.service.manifest import SweepManifest
from repro.service.scheduler import run_manifest
from repro.topology.base import build
from repro.topology.dragonfly import Dragonfly
from repro.topology.torus import Torus


class TestTopologySpec:
    """A manifest's ``topology`` is a topology spec, for any family."""

    def test_build_matches_spec(self, tiny_spec):
        topology = build(tiny_spec)
        assert (topology.params.p, topology.params.a, topology.params.h) == (1, 2, 1)

    @pytest.mark.parametrize("topology, message", [
        ({"family": "Hypercube"}, "unknown topology family 'Hypercube'"),
        # The schema-1 form of a dragonfly.
        ({"family": "dragonfly", "p": 1, "a": 2, "h": 1}, "unknown topology family 'dragonfly'"),
        ({"family": "Torus", "dims": [2, 2]}, "needs its argument 'concentration'"),
        ({"family": "Torus", "dims": [2, 2], "concentration": 1, "radix": 4},
         "takes no argument 'radix'"),
    ])
    def test_bad_spec_rejected_naming_the_field(self, tiny_manifest, topology, message):
        with pytest.raises(ValueError, match=f"^topology: .*{message}"):
            dataclasses.replace(tiny_manifest, topology=topology)

    def test_bad_params_fail_at_submission(self, tiny_manifest):
        with pytest.raises(ValueError, match="^topology: p must be >= 1"):
            dataclasses.replace(
                tiny_manifest,
                topology={"family": "Dragonfly", "params": {"p": 0, "a": 2, "h": 1}},
            )

    def test_spec_is_kept_as_spec_writes_it(self, tiny_manifest, tiny_spec):
        """A spec that leaves ``num_groups`` to its default is the same
        manifest, with the same units, as one that names it."""
        short = dataclasses.replace(
            tiny_manifest,
            topology={"family": "Dragonfly", "params": {"p": 1, "a": 2, "h": 1}},
        )
        assert short.topology == tiny_spec == build(tiny_spec).spec()
        assert short.digest == tiny_manifest.digest

    def test_taper_reaches_the_units(self, tiny_manifest):
        tapered = Dragonfly(DragonflyParams(2, 4, 2, 5), max_channels_per_pair=1)
        manifest = dataclasses.replace(tiny_manifest, topology=tapered.spec())
        (unit, *_) = manifest.work_units()
        assert unit.key["topology"]["max_channels_per_pair"] == 1
        assert unit.key == point_key(
            tapered, unit.spec.routing_name, unit.spec.pattern_name, unit.spec.config
        )


class TestOtherFamilies:
    @pytest.fixture()
    def torus_manifest(self, tiny_config):
        """Four units on a 3x3 torus with one terminal per router
        (``TORUS-VAL`` takes four VCs)."""
        return SweepManifest(
            figure="figtorus",
            topology=Torus(dims=(3, 3), concentration=1).spec(),
            routings=("TORUS-DOR", "TORUS-VAL"),
            patterns=("uniform_random",),
            loads=(0.1, 0.2),
            seeds=(1,),
            config=dataclasses.replace(tiny_config, num_vcs=4),
        )

    @pytest.mark.parametrize("routing, family", [
        ("FB-UGAL-L", "FlattenedButterfly"),
        ("VAR-MIN", "FlattenedButterflyGroupDragonfly"),
        ("TORUS-DOR", "Torus"),
        ("CLOS-RAND", "FoldedClos"),
    ])
    def test_routing_for_another_family_names_both(self, tiny_manifest, routing, family):
        """It would only fail inside a worker."""
        with pytest.raises(
            ValueError, match=f"{routing!r} drives a {family}, not the manifest's Dragonfly"
        ):
            dataclasses.replace(tiny_manifest, routings=(routing,))

    def test_dragonfly_routing_on_a_torus_names_both(self, torus_manifest):
        with pytest.raises(ValueError, match="'MIN' drives a Dragonfly, not the manifest's Torus"):
            dataclasses.replace(torus_manifest, routings=("MIN",))

    def test_work_units_refuse_another_topology(self, tiny_manifest, torus_manifest):
        """The units' keys would name a network the manifest does not."""
        paper72 = Dragonfly(DragonflyParams.paper_example_72())
        with pytest.raises(ValueError, match="is not the manifest's"):
            tiny_manifest.work_units(paper72)
        with pytest.raises(ValueError, match="is not the manifest's"):
            torus_manifest.work_units(Torus(dims=(3, 3), concentration=2))
        assert tiny_manifest.work_units(build(tiny_manifest.topology))

    def test_torus_manifest_runs_through_the_service(self, tmp_path, torus_manifest):
        root = tmp_path / "svc"
        first = run_manifest(root, torus_manifest)
        assert (first.progress.simulated, first.progress.cached) == (4, 0)
        again = run_manifest(root, torus_manifest)
        assert (again.progress.simulated, again.progress.cached) == (0, 4)
        assert again.ordered_results(4) == first.ordered_results(4)


class TestSweepManifest:
    def test_unit_count_is_grid_size(self, tiny_manifest):
        assert tiny_manifest.num_units() == 2 * 1 * 3 * 1
        units = tiny_manifest.work_units()
        assert len(units) == tiny_manifest.num_units()
        assert [u.index for u in units] == list(range(len(units)))

    def test_units_are_content_addressed(self, tiny_manifest):
        topology = build(tiny_manifest.topology)
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


    @pytest.mark.parametrize("pattern", ["worst_case", "bursty"])
    def test_known_pattern_accepted(self, tiny_manifest, pattern):
        manifest = dataclasses.replace(tiny_manifest, patterns=(pattern,))
        assert manifest.patterns == (pattern,)

    def test_unknown_pattern_fails_at_submission(self, tiny_manifest):
        """With ``make_pattern``'s own message, not inside a worker."""
        with pytest.raises(ValueError, match="unknown traffic pattern 'nope'; choose from"):
            dataclasses.replace(tiny_manifest, patterns=("uniform_random", "nope"))

