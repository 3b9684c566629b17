"""Golden regression for the extension families.

Every routing name of the flattened butterfly, the Figure 6 group
variant, the torus and the folded Clos is replayed on the scalar engine
under uniform traffic and under its family's adversarial pattern, and
must reproduce the fixtures under ``tests/golden/families/``
(``tests/golden/make_golden.py``) bit for bit, on the topology
:func:`~repro.topology.base.build` makes of the fixture's spec.
"""

import hashlib
import json
import pathlib

import pytest

from repro.network.cache import SweepCache
from repro.network.config import SimulationConfig
from repro.network.parallel import PointSpec, SweepExecutor
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing.families import FAMILY_ROUTINGS
from repro.routing.ugal import make_routing
from repro.topology.base import build

FAMILY_DIR = pathlib.Path(__file__).parent.parent / "golden" / "families"
FIXTURES = {
    path.stem: json.loads(path.read_text())
    for path in sorted(FAMILY_DIR.glob("*.json"))
}


def fixture_topology(fixture):
    return build({"family": fixture["topology"], **fixture["kwargs"]})

CASES = [
    (name, index)
    for name, fixture in FIXTURES.items()
    for index in range(len(fixture["runs"]))
]


def test_every_family_name_is_pinned():
    """Each name ``make_routing`` resolves for a family has a golden
    under uniform and adversarial traffic."""
    pinned = [
        (run["routing"], run["pattern"])
        for fixture in FIXTURES.values()
        for run in fixture["runs"]
    ]
    assert len(set(pinned)) == len(pinned) == 2 * len(FAMILY_ROUTINGS)
    assert {routing for routing, _ in pinned} == set(FAMILY_ROUTINGS)


@pytest.mark.parametrize(
    "name, index", CASES,
    ids=[f"{name}-{FIXTURES[name]['runs'][index]['routing']}-"
         f"{FIXTURES[name]['runs'][index]['pattern']}" for name, index in CASES],
)
def test_family_run_matches_golden(name, index):
    fixture = FIXTURES[name]
    run = fixture["runs"][index]
    topology = fixture_topology(fixture)
    config = SimulationConfig(**fixture["config"]).with_load(run["load"])
    pattern = make_pattern(run["pattern"], topology, seed=config.seed + 17)
    result = Simulator(topology, make_routing(run["routing"]), pattern, config).run()
    assert result.to_dict() == fixture["points"][index]


@pytest.mark.parametrize("name", FIXTURES)
def test_family_runs_through_a_cached_sweep(name, tmp_path):
    """A family's points are keyed by its spec: a cached sweep
    reproduces the pinned points, and a second pass simulates none."""
    fixture = FIXTURES[name]
    topology = fixture_topology(fixture)
    config = SimulationConfig(**fixture["config"])
    specs = [
        PointSpec(run["routing"], run["pattern"], config.with_load(run["load"]))
        for run in fixture["runs"]
    ]
    cache = SweepCache(tmp_path / "cache")
    first = SweepExecutor(cache=cache).run_points(topology, specs)
    assert [result.to_dict() for result in first] == fixture["points"]
    again = SweepExecutor(cache=cache)
    assert [r.to_dict() for r in again.run_points(topology, specs)] == fixture["points"]
    assert (again.stats["cached"], again.stats["simulated"]) == (len(specs), 0)


def test_group_variant_repin_map_names_the_pinned_points():
    """The committed old -> new digest map of the group-variant re-pin
    ends on exactly the points the fixture pins."""
    fixture = FIXTURES["group_variant"]
    lines = (FAMILY_DIR / "group_variant.repin.txt").read_text().splitlines()
    rows = [line.split() for line in lines if line and not line.startswith("#")]
    assert [(routing, pattern) for routing, pattern, _old, _new in rows] == [
        (run["routing"], run["pattern"]) for run in fixture["runs"]
    ]
    assert [new for *_, new in rows] == [
        hashlib.sha256(json.dumps(point, sort_keys=True).encode()).hexdigest()
        for point in fixture["points"]
    ]
