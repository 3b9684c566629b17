"""Backend-differential harness: scalar vs array engine equivalence.

Every corpus case (``differential_corpus.CORPUS``, 241 configurations)
and every golden fixture runs on both backends; the array backend must
reproduce the scalar engine's result bit for bit on every one of them
(``to_dict()`` equality), multi-flit included, and must have run the
tier the case asks for: the decide kernel for every single-flit,
algorithmic case, the scalar engine otherwise.  When an equivalence assertion fails, the harness
re-runs both engines in
lockstep (``first_divergence`` of ``tests/oracles.py``) and reports
the first cycle and state field at which they split, which turns "the
latency is off" into "arbitration at port 37 diverged at cycle 112".

Scalar reference results are computed once per case and cached for the
whole module, so the scalar-backend parametrization doubles as a
determinism check (a second scalar run must reproduce the first).
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict

import pytest

from differential_corpus import CORPUS, TOPOLOGIES, DifferentialCase
from repro.core.params import DragonflyParams
from oracles import check_invariants, first_divergence
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.decide_kernel import KERNEL_NAME
from repro.settings import BACKENDS
from repro.network.sweep import load_sweep
from repro.network.traffic import make_pattern
from repro.routing import (
    TableDrivenRouting,
    compile_dragonfly_tables,
    make_routing,
)
from repro.topology.dragonfly import Dragonfly

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "golden"
GOLDEN_FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))
SCALE_FIXTURE = GOLDEN_DIR / "scale" / "ugal_paper1k.json"

_topologies: Dict[str, Dragonfly] = {}
_tables: Dict[str, object] = {}
_scalar_reference: Dict[str, dict] = {}


def topology_for(name: str) -> Dragonfly:
    if name not in _topologies:
        _topologies[name] = Dragonfly(TOPOLOGIES[name])
    return _topologies[name]


def routing_for(case: DifferentialCase):
    routing = make_routing(case.routing)
    if case.table_driven:
        if case.topology not in _tables:
            _tables[case.topology] = compile_dragonfly_tables(
                topology_for(case.topology)
            )
        routing = TableDrivenRouting(routing, _tables[case.topology])
    return routing


def pattern_for(case: DifferentialCase):
    # Same seed derivation as repro.network.sweep.run_point, so corpus
    # cases reproduce what a sweep at this configuration would run.
    return make_pattern(
        case.pattern, topology_for(case.topology), seed=case.config.seed + 17
    )


def run_case(case: DifferentialCase, backend: str):
    sim = make_simulator(
        topology_for(case.topology),
        routing_for(case),
        pattern_for(case),
        case.config,
        backend=backend,
    )
    result = sim.run()
    assert result.backend_info == sim.backend_provenance()
    if backend == "array":
        # The tier the harness thinks it is certifying must be the tier
        # that was built: every corpus topology is a single-link
        # dragonfly, so only multi-flit and table-driven cases fall back.
        eligible = case.config.packet_size == 1 and not case.table_driven
        expected = KERNEL_NAME if eligible else "none"
        assert result.backend_info["kernel"] == expected, (
            f"{case.case_id}: expected kernel {expected!r} but the array "
            f"engine recorded {result.backend_info!r}"
        )
    return result


def scalar_reference(case: DifferentialCase):
    if case.case_id not in _scalar_reference:
        _scalar_reference[case.case_id] = run_case(case, "scalar")
    return _scalar_reference[case.case_id]


def describe_divergence(case: DifferentialCase) -> str:
    """Locate and format the first state divergence (slow; failure only)."""
    split = first_divergence(
        topology_for(case.topology),
        lambda: routing_for(case),
        lambda: pattern_for(case),
        case.config,
    )
    if split is None:
        return (
            "engines stayed in state lockstep; divergence is in result "
            "bookkeeping (stats/sampling), not the cycle state machine"
        )
    cycle, field, scalar_value, array_value = split
    return (
        f"first divergence at cycle {cycle} in field {field!r}: "
        f"scalar={scalar_value!r} array={array_value!r}"
    )


def assert_contract(case: DifferentialCase, reference, candidate, backend: str) -> None:
    if candidate.to_dict() != reference.to_dict():
        detail = (
            describe_divergence(case) if backend == "array"
            else "scalar determinism broke: rerun differs from reference"
        )
        pytest.fail(
            f"{case.case_id}: {backend} backend violates bit-identity; {detail}"
        )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CORPUS, ids=[c.case_id for c in CORPUS])
def test_corpus_case(case: DifferentialCase, backend: str):
    assert_contract(case, scalar_reference(case), run_case(case, backend), backend)


class TestGoldenFixtures:
    """Both backends must reproduce the pinned golden sweeps."""

    @pytest.fixture(params=GOLDEN_FIXTURES, ids=[p.stem for p in GOLDEN_FIXTURES])
    def golden(self, request):
        fixture = json.loads(request.param.read_text())
        topology = Dragonfly(DragonflyParams(**fixture["topology"]))
        config = SimulationConfig(**fixture["config"])
        return fixture, topology, config

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fixture_replays(self, golden, backend, monkeypatch):
        fixture, topology, config = golden
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        points = load_sweep(
            topology, fixture["routing"], fixture["pattern"],
            fixture["loads"], config,
        )
        produced = [point.result.to_dict() for point in points]
        assert produced == fixture["points"], (
            f"{backend} backend diverged from pinned fixture"
        )


class TestScaleFixture:
    """The 1056-node paper-scale fixture replays on both backends."""

    @pytest.fixture(scope="class")
    def scale(self):
        fixture = json.loads(SCALE_FIXTURE.read_text())
        topology = Dragonfly(DragonflyParams(**fixture["topology"]))
        config = SimulationConfig(**fixture["config"])
        return fixture, topology, config

    def test_paper_scale_parameters(self, scale):
        fixture, topology, _ = scale
        # The paper's maximum single-stage dragonfly: p=h=4, a=8,
        # g=33 -> 1056 terminals, 264 routers.
        assert fixture["topology"] == {"p": 4, "a": 8, "h": 4}
        assert topology.params.num_terminals == 1056
        assert topology.params.num_routers == 264

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fixture_replays(self, scale, backend, monkeypatch):
        fixture, topology, config = scale
        monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
        points = load_sweep(
            topology, fixture["routing"], fixture["pattern"],
            fixture["loads"], config,
        )
        assert [p.result.to_dict() for p in points] == fixture["points"], (
            f"{backend} backend diverged from the 1056-node fixture"
        )


class TestArrayBackendInvariants:
    """Satellite: invariant checking must work on the array engine."""

    def test_check_invariants_on_array_backend(self, paper72_dragonfly):
        config = SimulationConfig(
            load=0.3, warmup_cycles=50, measure_cycles=50,
            drain_max_cycles=2000,
        )
        sim = make_simulator(
            paper72_dragonfly,
            make_routing("UGAL-L"),
            make_pattern("uniform_random", paper72_dragonfly, seed=9),
            config,
            backend="array",
        )
        sim.run()
        check_invariants(sim)  # must not raise on array-layout state

    def test_sanitizer_stride_on_array_backend(
        self, paper72_dragonfly, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_SANITIZE_STRIDE", "8")
        config = SimulationConfig(
            load=0.3, warmup_cycles=50, measure_cycles=50,
            drain_max_cycles=2000,
        )
        sim = make_simulator(
            paper72_dragonfly,
            make_routing("UGAL-L"),
            make_pattern("uniform_random", paper72_dragonfly, seed=9),
            config,
            backend="array",
        )
        result = sim.run()
        assert result.ejected_flits_in_window > 0

    def test_lockstep_diagnostic_reads_the_array_layout(
        self, paper72_dragonfly
    ):
        """``first_divergence`` fingerprints both engines through their
        state views every cycle; on agreeing engines it must say so."""
        config = SimulationConfig(
            load=0.3, warmup_cycles=40, measure_cycles=40,
            drain_max_cycles=1500,
        )
        assert first_divergence(
            paper72_dragonfly,
            lambda: make_routing("UGAL-L"),
            lambda: make_pattern("worst_case", paper72_dragonfly, seed=9),
            config,
        ) is None

    def test_lockstep_source_depths_past_saturation(self, paper72_dragonfly):
        """Past saturation the scalar engine's decided heads plus backlog
        records and the array engine's source FIFOs hold the same number
        of packets per terminal every cycle."""
        config = SimulationConfig(
            load=0.45, warmup_cycles=40, measure_cycles=40,
            drain_max_cycles=300,
        )
        assert first_divergence(
            paper72_dragonfly,
            lambda: make_routing("MIN"),
            lambda: make_pattern("worst_case", paper72_dragonfly, seed=9),
            config,
        ) is None

    def test_structural_findings_clean_on_both_backends(
        self, paper72_dragonfly
    ):
        from repro.check.sanitizer import structural_findings

        config = SimulationConfig(
            load=0.2, warmup_cycles=30, measure_cycles=30,
            drain_max_cycles=1500,
        )
        for backend in BACKENDS:
            sim = make_simulator(
                paper72_dragonfly,
                make_routing("MIN"),
                make_pattern("uniform_random", paper72_dragonfly, seed=5),
                config,
                backend=backend,
            )
            sim.run()
            assert structural_findings(sim) == [], backend


class TestArrayInjectionPaths:
    """Paths of the array engine's injection and switch that the corpus
    points need not reach, each against the scalar engine."""

    @staticmethod
    def results(topology, routing_name, pattern_name, config):
        results = {}
        for backend in BACKENDS:
            sim = make_simulator(
                topology,
                make_routing(routing_name),
                make_pattern(pattern_name, topology, seed=config.seed + 17),
                config,
                backend=backend,
            )
            assert sim.backend_provenance()["backend"] == backend
            results[backend] = sim.run().to_dict()
        return results

    def test_source_fifos_fill_and_drain(self, paper72_dragonfly):
        """MIN under worst-case traffic at 0.45 runs past its 1/8
        saturation.  A new packet at an empty source FIFO is visited
        directly and enters the FIFO only when its injection slot is
        full; a packet that finds one queued waits behind it.  Source
        queues that are deep when the window closes and empty when the
        run drains took both paths many times."""
        config = SimulationConfig(
            load=0.45, warmup_cycles=100, measure_cycles=100, seed=1
        )
        results = self.results(paper72_dragonfly, "MIN", "worst_case", config)
        assert results["array"]["avg_source_queue_at_end"] > 10
        assert results["array"]["drained"]
        assert results["array"] == results["scalar"]

    def test_eight_vcs_index_the_widest_arbitration_table(
        self, paper72_dragonfly
    ):
        """Eight VCs, the most the array engine takes, fill the
        arbitration table's one-byte index."""
        config = SimulationConfig(
            load=0.3, warmup_cycles=100, measure_cycles=100, num_vcs=8, seed=1
        )
        results = self.results(
            paper72_dragonfly, "UGAL-L", "uniform_random", config
        )
        assert results["array"] == results["scalar"]
