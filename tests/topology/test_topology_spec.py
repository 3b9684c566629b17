"""A topology's spec: its family and its constructor arguments away from
their defaults, the one description of a network that the sweep cache
key and a sweep manifest's ``topology`` both read.

``build(t.spec())`` must wire the same channels as ``t`` for every
topology the package constructs, so a new constructor argument can only
join the spec (read from the constructor's signature) or make
``spec()`` refuse.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.check.invariants import default_topology_audits
from repro.check.registry import default_configurations
from repro.core.params import DragonflyParams
from repro.topology import Dragonfly, FlattenedButterfly, Torus, build
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly

GOLDEN = pathlib.Path(__file__).parent.parent / "golden"


def _golden_topologies():
    for path in sorted(GOLDEN.glob("*.json")) + sorted(GOLDEN.glob("scale/*.json")):
        params = json.loads(path.read_text())["topology"]
        yield path.stem, Dragonfly(DragonflyParams(**params))
    for path in sorted(GOLDEN.glob("families/*.json")):
        fixture = json.loads(path.read_text())
        yield f"families/{path.stem}", build(
            {"family": fixture["topology"], **fixture["kwargs"]}
        )


def _topologies():
    """(id, topology) of every network ``repro.check``, the goldens,
    the extension experiments and ``examples/`` build."""
    yield from (
        (f"registry:{config.name}", config.lowering.topology)
        for config in default_configurations()
    )
    yield from (
        (f"invariants:{name}", builder())
        for name, builder in default_topology_audits()
    )
    yield from (
        (f"golden:{name}", topology) for name, topology in _golden_topologies()
    )
    # experiments/extensions.py and examples/ (quickstart, scaling_study,
    # topology_variants), plus non-default latencies of every family.
    paper72 = DragonflyParams.paper_example_72()
    nonmax = DragonflyParams(p=2, a=4, h=2, num_groups=5)
    yield from [
        ("ext:fb4x4", FlattenedButterfly(dims=(4, 4), concentration=4)),
        ("ext:fb8x8", FlattenedButterfly(dims=(8, 8), concentration=8)),
        ("ext:paper72", Dragonfly(paper72)),
        ("ext:cube", FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2, 2), h=2)),
        ("ext:clos64", FoldedClos(num_terminals=64, radix=8)),
        ("ext:torus4x4c2", Torus(dims=(4, 4), concentration=2)),
        ("examples:quickstart", Dragonfly(DragonflyParams(p=2, a=4, h=2))),
        ("examples:taper2", Dragonfly(nonmax, max_channels_per_pair=2)),
        ("examples:taper1", Dragonfly(nonmax, max_channels_per_pair=1)),
        ("latency:dragonfly", Dragonfly(
            nonmax, local_latency=2, global_latency=10, terminal_latency=3,
        )),
        ("latency:fb", FlattenedButterfly(
            dims=(2, 3), concentration=2, local_latency=2, global_latency=5,
            global_dims=(1,),
        )),
        ("latency:variant", FlattenedButterflyGroupDragonfly(
            p=1, group_dims=(2, 2), h=1, num_groups=3, local_latency=2,
            global_latency=4,
        )),
        ("latency:clos", FoldedClos(
            num_terminals=16, radix=4, local_latency=3, global_latency=7,
        )),
        ("latency:torus", Torus(dims=(3, 2), concentration=1, link_latency=4)),
    ]


CASES = list(_topologies())


@pytest.mark.parametrize("topology", [t for _, t in CASES], ids=[i for i, _ in CASES])
def test_build_of_spec_wires_the_same_network(topology):
    spec = topology.spec()
    assert json.loads(json.dumps(spec)) == spec
    rebuilt = build(spec)
    assert type(rebuilt) is type(topology)
    assert rebuilt.fabric.channels == topology.fabric.channels
    assert rebuilt.fabric.terminals == topology.fabric.terminals
    assert rebuilt.spec() == spec


def test_every_class_is_covered():
    families = {type(topology).__name__ for _, topology in CASES}
    assert families == {
        "Dragonfly", "FlattenedButterfly", "FlattenedButterflyGroupDragonfly",
        "FoldedClos", "Torus",
    }


def test_default_dragonfly_spec_is_its_params():
    """The spec of a default dragonfly is the sweep cache key's
    topology before specs existed, so stored keys keep their bytes."""
    params = DragonflyParams.paper_example_72()
    assert Dragonfly(params).spec() == {
        "family": "Dragonfly", "params": dataclasses.asdict(params),
    }


@pytest.mark.parametrize("spec", [
    {"family": "Dragonfly", "params": {"p": 1, "a": 2, "h": 1, "num_groups": 3}},
    {"family": "Dragonfly", "params": {"p": 2, "a": 4, "h": 2, "num_groups": 5},
     "max_channels_per_pair": 1, "global_latency": 10},
    {"family": "Torus", "dims": [3, 3], "concentration": 1, "link_latency": 2},
    {"family": "FlattenedButterfly", "dims": [2, 2, 2], "concentration": 2,
     "global_dims": [1, 2]},
    {"family": "FlattenedButterflyGroupDragonfly", "p": 1, "group_dims": [2, 2], "h": 1},
    {"family": "FoldedClos", "num_terminals": 16, "radix": 4},
], ids=lambda spec: spec["family"])
def test_spec_of_build_is_the_spec(spec):
    assert build(spec).spec() == spec


class TestRefusals:
    def test_argument_a_subclass_does_not_keep_is_named(self):
        class Wrapped(Torus):
            def __init__(self, dims, concentration, link_latency=1, wrap=True):
                super().__init__(dims, concentration, link_latency)

        topology = Wrapped(dims=(3, 3), concentration=1)
        with pytest.raises(ValueError, match="Wrapped does not keep .* 'wrap'"):
            topology.spec()

    def test_constructor_taking_any_keyword_is_refused(self):
        class Open(Torus):
            def __init__(self, dims, concentration, **extra):
                super().__init__(dims, concentration)

        with pytest.raises(ValueError, match="Open's constructor argument 'extra'"):
            Open(dims=(3, 3), concentration=1).spec()

    @pytest.mark.parametrize("spec, message", [
        ({"family": "Hypercube"}, "unknown topology family 'Hypercube'"),
        ({"family": "Topology"}, "unknown topology family 'Topology'"),
        ({"family": "Torus", "dims": [3, 3]}, "needs its argument 'concentration'"),
        ({"family": "Torus", "dims": [3, 3], "concentration": 1, "radix": 5},
         "takes no argument 'radix'"),
        ([], "a topology spec is a JSON object"),
    ])
    def test_bad_spec_is_named(self, spec, message):
        with pytest.raises(ValueError, match=message):
            build(spec)
