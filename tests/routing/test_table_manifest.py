"""The compiled forwarding tables, pinned byte for byte.

``tests/golden/tables/export.sha256`` lists every table set ``python -m
repro.check tables --export-tables DIR`` writes: the deployable artifact,
which CI checks with ``sha256sum -c`` in ``DIR``.  ``pinned.sha256``
lists the ``--demo-broken`` negative control, the degraded scenarios the
``faults`` pass compiles, and the three table routings the simulator runs
on paper-72 (``TBL-MIN``, ``TBL-MIN/gc1``, ``TBL-MIN/gc2``), each as
:meth:`ForwardingTables.dump` writes it.  Both
were recorded before the grouped compilers were merged; a compiler change
that moves one byte of any table set fails here.
"""

import hashlib
import pathlib
import re

import pytest

from repro.check.__main__ import run_passes
from repro.check.registry import degraded_crosscheck_configurations
from repro.core.params import DragonflyParams
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly

MANIFESTS = pathlib.Path(__file__).resolve().parents[1] / "golden" / "tables"

#: File name in ``pinned.sha256`` -> the table routing it dumps.
TABLE_ROUTINGS = {
    "TBL-MIN@paper-72.json": "TBL-MIN",
    "TBL-MIN_gc1@paper-72.json": "TBL-MIN/gc1",
    "TBL-MIN_gc2@paper-72.json": "TBL-MIN/gc2",
}


def read_manifest(name):
    """``file name -> SHA-256`` of one ``sha256sum``-format manifest."""
    digests = {}
    for line in (MANIFESTS / name).read_text().splitlines():
        if line and not line.startswith("#"):
            digest, file_name = line.split(maxsplit=1)
            digests[file_name] = digest
    return digests


def digests_of(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """Every table set the tables pass exports, negative control included."""
    directory = tmp_path_factory.mktemp("tables")
    run_passes(["tables"], demo_broken=True, export_tables=str(directory))
    return digests_of(directory)


def test_export_matches_the_deployable_manifest(exported):
    deployable = read_manifest("export.sha256")
    assert len(deployable) == 11
    assert {name: exported.get(name) for name in deployable} == deployable


def test_every_exported_table_set_is_pinned(exported):
    pinned = read_manifest("export.sha256").keys() | read_manifest("pinned.sha256").keys()
    assert set(exported) <= pinned
    assert len(exported) == 12


def fault_scenario_file(configuration_name):
    """``pinned.sha256`` file name of a ``faults`` pass scenario."""
    return "faults_" + re.sub(r"[^A-Za-z0-9@.+-]+", "_", configuration_name).strip("_") + ".json"


def test_table_routings_match_the_manifest(tmp_path):
    paper72 = Dragonfly(DragonflyParams.paper_example_72())
    for file_name, routing_name in TABLE_ROUTINGS.items():
        tables = make_routing(routing_name).hop_memo(paper72).walker.tables
        tables.dump(str(tmp_path / file_name))
    pinned = read_manifest("pinned.sha256")
    assert digests_of(tmp_path) == {name: pinned[name] for name in TABLE_ROUTINGS}


def test_fault_scenarios_match_the_manifest(tmp_path):
    configurations = degraded_crosscheck_configurations()
    for configuration in configurations:
        tables = configuration.family().compile()
        tables.dump(str(tmp_path / fault_scenario_file(configuration.name)))
    pinned = read_manifest("pinned.sha256")
    scenarios = {name: digest for name, digest in pinned.items() if name.startswith("faults_")}
    assert len(scenarios) == len(configurations) == 5
    assert digests_of(tmp_path) == scenarios


def test_negative_control_matches_the_manifest(exported):
    pinned = read_manifest("pinned.sha256")
    controls = {
        name: digest
        for name, digest in pinned.items()
        if name not in TABLE_ROUTINGS and not name.startswith("faults_")
    }
    assert len(controls) == 1
    assert {name: exported.get(name) for name in controls} == controls
