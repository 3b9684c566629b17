"""Every engine refuses a routing written for another topology family.

A routing's plans and executor read one family's topology (coordinates,
group links, ring ports), so a mismatch would otherwise die deep in the
run with an ``AttributeError``.  ``RoutingAlgorithm.topology_type`` names
the family, and ``Simulator.__init__`` -- which both engines run --
checks it before building anything.
"""

import pytest

from repro.core.params import DragonflyParams
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.traffic import make_pattern
from repro.routing.families import FOLDED_CLOS, TORUS
from repro.routing.ugal import RuleRouting, make_routing
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly
from repro.topology.torus import Torus

TOPOLOGIES = {
    "Dragonfly": lambda: Dragonfly(DragonflyParams(p=1, a=2, h=1)),
    "FlattenedButterfly": lambda: FlattenedButterfly(dims=(2, 2), concentration=1),
    "FlattenedButterflyGroupDragonfly": lambda: FlattenedButterflyGroupDragonfly(
        p=1, group_dims=(2,), h=1
    ),
    "Torus": lambda: Torus(dims=(3, 3), concentration=1),
    "FoldedClos": lambda: FoldedClos(num_terminals=16, radix=8),
}
#: One routing per family, with the topology class it drives.
ROUTINGS = {
    "UGAL-L": "Dragonfly",
    "FB-UGAL-L": "FlattenedButterfly",
    "VAR-UGAL-L": "FlattenedButterflyGroupDragonfly",
    "TORUS-VAL": "Torus",
    "CLOS-RAND": "FoldedClos",
}


@pytest.mark.parametrize("backend", ["scalar", "array"])
@pytest.mark.parametrize("routing_name", sorted(ROUTINGS))
@pytest.mark.parametrize("topology_name", sorted(TOPOLOGIES))
def test_engine_accepts_only_its_family(topology_name, routing_name, backend):
    topology = TOPOLOGIES[topology_name]()
    routing = make_routing(routing_name)
    assert routing.topology_type.__name__ == ROUTINGS[routing_name]
    pattern = make_pattern("uniform_random", topology, seed=1)
    config = SimulationConfig(load=0.1, num_vcs=4)

    def build():
        return make_simulator(topology, routing, pattern, config, backend=backend)

    if ROUTINGS[routing_name] == topology_name:
        assert build().routing is routing
        return
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == (
        f"routing {routing_name!r} ({type(routing).__name__}) drives a "
        f"{ROUTINGS[routing_name]}, not a {topology_name}"
    )


@pytest.mark.parametrize("family", [TORUS, FOLDED_CLOS], ids=["Torus", "FoldedClos"])
def test_a_rule_the_family_cannot_run_is_refused_at_construction(family):
    """The torus and the Clos have no UGAL route-choice predicate, so a
    UGAL routing on them could only fail at its first decision."""
    name = family.topology_type.__name__
    with pytest.raises(ValueError, match=rf"the {name} family has no 'ugal' rule"):
        RuleRouting("X", family, "ugal")
    for rule in ("min", "val"):
        assert RuleRouting("X", family, rule).rule == rule
