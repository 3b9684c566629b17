"""Round-trip contract: export -> import -> simulate is bit-identical.

Every golden fixture is re-simulated with the table-driven executor --
the base algorithm's compiled tables pushed through a full JSON
export/import cycle -- and must reproduce the checked-in points bit for
bit.  :class:`TableDrivenRouting` hands the simulator the hop memo of
the imported tables, filled from their table walks, so every hop of
every flit comes from the deployed table files, not from the routing
code.
"""

import json
import pathlib

import pytest

from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.sweep import run_point
from repro.routing.tables import (
    ForwardingTables,
    TableDrivenRouting,
    compile_dragonfly_tables,
)
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))


@pytest.fixture(params=FIXTURES, ids=[path.stem for path in FIXTURES])
def golden(request):
    fixture = json.loads(request.param.read_text())
    topology = Dragonfly(DragonflyParams(**fixture["topology"]))
    config = SimulationConfig(**fixture["config"])
    return fixture, topology, config


def test_table_driven_simulation_matches_golden(golden, tmp_path):
    fixture, topology, config = golden
    tables = compile_dragonfly_tables(topology)
    path = tmp_path / "tables.json"
    tables.dump(str(path))
    imported = ForwardingTables.load(str(path))
    assert imported == tables

    for load, expected in zip(fixture["loads"], fixture["points"]):
        routing = TableDrivenRouting(make_routing(fixture["routing"]), imported)
        result = run_point(
            topology, routing, fixture["pattern"], config.with_load(load)
        )
        assert result.to_dict() == expected, (
            f"{fixture['routing']} diverged at load {load}"
        )
