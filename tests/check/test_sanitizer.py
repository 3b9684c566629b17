"""Tests for the runtime flit/credit conservation sanitizer.

Three layers: the audit functions on a finished simulator whose state is
deliberately corrupted (each conservation law must name its own finding
code -- on both engines, since the array engine answers the audits
through its own state-view subclass), the periodic in-run hook (a
corruption planted at cycle T must surface within one stride of T), and
the behaviour-preservation contract
(every golden fixture re-simulated under ``REPRO_SANITIZE=1`` stays
bit-identical with zero findings).
"""

import json
import pathlib

import numpy as np
import pytest

from oracles import check_invariants
from repro.check.sanitizer import (
    SanitizerError,
    SimulatorSanitizer,
    audit_simulator,
    structural_findings,
)
from repro.core.params import DragonflyParams
from repro.network import backend as engine_backend
from repro.network.array_backend import ArraySimulator
from repro.network.config import SimulationConfig
from repro.network.simulator import Simulator, SimulatorStateError
from repro.network.sweep import load_sweep
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.settings import ENV_VARS, Settings
from repro.topology.dragonfly import Dragonfly

ENV_ENABLE = ENV_VARS["sanitize"]
ENV_STRIDE = ENV_VARS["sanitize_stride"]

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"
GOLDEN_FIXTURES = sorted(path.stem for path in GOLDEN_DIR.glob("*.json"))


ENGINES = {"scalar": Simulator, "array": ArraySimulator}


def make_simulator(
    topology, routing="MIN", pattern="uniform_random", backend="scalar",
    **kwargs,
):
    defaults = dict(
        load=0.2, warmup_cycles=100, measure_cycles=100, drain_max_cycles=2000
    )
    defaults.update(kwargs)
    config = SimulationConfig(**defaults)
    sim = engine_backend.make_simulator(
        topology,
        make_routing(routing),
        make_pattern(pattern, topology, seed=config.seed + 17),
        config,
        backend=backend,
    )
    # An array request the kernel cannot serve silently becomes the
    # scalar engine; these tests must audit the engine they name.
    assert type(sim) is ENGINES[backend]
    return sim


def first_network_out_idx(sim):
    """The flat output-VC slot of the first wired network port."""
    for router in range(sim._num_routers):
        for port in sim._network_ports[router]:
            p_idx = router * sim._radix + port
            if sim._channel_info[p_idx] is not None:
                return p_idx * sim._vcs
    raise AssertionError("no wired network port")


def codes(findings):
    return {finding.code for finding in findings}


class TestSettingsPlumbing:
    """The sanitizer is switched by ``Settings`` (parsing contract in
    tests/network/test_env_config.py): from the environment by default,
    from an explicit argument otherwise."""

    @pytest.mark.parametrize("raw", [None, "0"])
    def test_disabled_by_default_and_by_zero(
        self, monkeypatch, tiny_dragonfly, raw
    ):
        if raw is None:
            monkeypatch.delenv(ENV_ENABLE, raising=False)
        else:
            monkeypatch.setenv(ENV_ENABLE, raw)
        assert make_simulator(tiny_dragonfly)._sanitizer is None

    def test_enabled_with_custom_stride(self, monkeypatch, tiny_dragonfly):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.setenv(ENV_STRIDE, "7")
        assert make_simulator(tiny_dragonfly)._sanitizer.stride == 7

    def test_default_stride(self, monkeypatch, tiny_dragonfly):
        monkeypatch.setenv(ENV_ENABLE, "1")
        monkeypatch.delenv(ENV_STRIDE, raising=False)
        stride = make_simulator(tiny_dragonfly)._sanitizer.stride
        assert stride == Settings().sanitize_stride == 64

    def test_explicit_settings_beat_the_environment(
        self, monkeypatch, tiny_dragonfly
    ):
        monkeypatch.setenv(ENV_ENABLE, "1")
        sim = engine_backend.make_simulator(
            tiny_dragonfly,
            make_routing("MIN"),
            make_pattern("uniform_random", tiny_dragonfly, seed=1),
            SimulationConfig(),
            settings=Settings(sanitize=False),
        )
        assert sim._sanitizer is None


def finished_run(topology, backend):
    sim = make_simulator(topology, backend=backend)
    sim.run()
    return sim


@pytest.fixture(params=sorted(ENGINES))
def finished(request, tiny_dragonfly):
    """A drained low-load run on each engine; its end state satisfies
    every law.  Tests taking this fixture plant corruptions both state
    layouts share."""
    return finished_run(tiny_dragonfly, request.param)


@pytest.fixture()
def finished_scalar(tiny_dragonfly):
    return finished_run(tiny_dragonfly, "scalar")


@pytest.fixture()
def finished_array(tiny_dragonfly):
    return finished_run(tiny_dragonfly, "array")


def overflow_batch(sim, credit_idx):
    """One overflow-map entry holding one credit event, in the engine's
    own layout: (credit slot, upstream port) tuples, or int64 chunks."""
    if isinstance(sim, ArraySimulator):
        return [np.asarray([credit_idx], dtype=np.int64)]
    return [(credit_idx, credit_idx // sim._vcs)]


def splice_phantom_flit(sim):
    """Array layout: hang row 0 on an empty output FIFO without touching
    the pending counters, so the queue's length disagrees with them."""
    fifo = sim._out_fifo
    slot = first_network_out_idx(sim)
    assert fifo.head[slot] < 0
    fifo.next[0] = -1
    fifo.head[slot] = fifo.tail[slot] = 0
    return slot


class TestAuditFindings:
    """Each law catches its own corruption, by code."""

    def test_clean_state_audits_clean(self, finished):
        assert audit_simulator(finished) == []

    def test_lost_credit_is_san002(self, finished):
        finished._credits[first_network_out_idx(finished)] -= 1
        assert "SAN002" in codes(audit_simulator(finished))

    def test_out_of_range_counter_is_san001(self, finished):
        finished._credits[first_network_out_idx(finished)] = (
            finished._depth + 1
        )
        assert "SAN001" in codes(audit_simulator(finished))

    def test_lost_flit_is_san003(self, finished):
        finished._flits_delivered -= 1
        findings = audit_simulator(finished)
        assert "SAN003" in codes(findings)
        # The message does the bookkeeping out loud.
        san003 = next(f for f in findings if f.code == "SAN003")
        assert "delivered" in san003.message

    def test_phantom_packet_is_san003(self, finished):
        finished._packet_counter += 1
        assert "SAN003" in codes(audit_simulator(finished))

    @pytest.mark.parametrize("part", ["backlog record", "decided head"])
    def test_dropped_source_packet_is_san003(self, paper72_dragonfly, part):
        """Mid-run and saturated, a source queue is a decided head plus
        backlog records; SAN003 counts both, so losing either one names
        a deficit of exactly one flit."""
        sim = make_simulator(
            paper72_dragonfly, pattern="worst_case", load=0.45,
            drain_max_cycles=300,
        )
        for now in range(250):
            sim.now = now
            sim._deliver_arrivals(now)
            sim._deliver_credits(now)
            sim._inject(now)
            sim._switch()
        assert audit_simulator(sim) == []
        terminal = next(
            t for t, backlog in enumerate(sim._backlog) if backlog
        )
        if part == "backlog record":
            sim._backlog[terminal].pop()
        else:
            assert sim._source_head[terminal] is not None
            sim._source_head[terminal] = None
        created = sim._packet_counter
        (finding,) = [
            f for f in audit_simulator(sim) if f.code == "SAN003"
        ]
        assert f"= {created - 1}, expected {created} " in finding.message

    def test_corrupted_active_mask_is_san004(self, finished_scalar):
        finished_scalar._active_mask[0] ^= 1
        findings = audit_simulator(finished_scalar)
        assert "SAN004" in codes(findings)

    def test_spliced_fifo_is_san004(self, finished_array):
        slot = splice_phantom_flit(finished_array)
        findings = audit_simulator(finished_array)
        router, index = divmod(slot, finished_array._rv)
        port, vc = divmod(index, finished_array._vcs)
        assert any(
            f.code == "SAN004"
            and f.location == f"router {router} port {port} VC {vc}"
            and "1 queued flits" in f.message
            for f in findings
        )

    def test_corrupted_pending_counter_is_san004(self, finished):
        finished._pending[0] += 1
        assert "SAN004" in codes(audit_simulator(finished))

    def test_stranded_overflow_entry_is_san005(self, finished):
        finished._credit_overflow[finished.now] = overflow_batch(finished, 0)
        findings = audit_simulator(finished)
        assert "SAN005" in codes(findings)
        assert any("stranded" in f.message for f in findings)

    def test_empty_overflow_batch_is_san005(self, finished):
        finished._credit_overflow[finished.now + 100] = []
        assert "SAN005" in codes(audit_simulator(finished))

    def test_out_of_range_credit_event_is_san005(self, finished_scalar):
        slots = finished_scalar._num_routers * finished_scalar._rv
        finished_scalar._credit_ring[0].append((slots + 5, 0))
        assert "SAN005" in codes(audit_simulator(finished_scalar))

    def test_out_of_range_credit_chunk_is_san005(self, finished_array):
        slots = finished_array._num_routers * finished_array._rv
        finished_array._credit_ring[0].append(
            np.asarray([0, slots + 5], dtype=np.int64)
        )
        findings = audit_simulator(finished_array)
        assert any(
            f.code == "SAN005" and str(slots + 5) in f.message
            for f in findings
        )

    def test_structural_subset_skips_conservation_laws(self, finished):
        """check_invariants() must stay callable mid-cycle: the full
        credit law does not hold between phases, so the structural
        subset must not include it."""
        finished._credits[first_network_out_idx(finished)] -= 1
        assert structural_findings(finished) == []
        assert "SAN002" in codes(audit_simulator(finished))

    def test_check_invariants_raises_simulator_state_error(
        self, finished_scalar
    ):
        finished_scalar._active_mask[0] ^= 1
        with pytest.raises(SimulatorStateError) as excinfo:
            check_invariants(finished_scalar)
        assert "SAN004" in str(excinfo.value)

    def test_check_invariants_raises_on_the_array_layout(self, finished_array):
        splice_phantom_flit(finished_array)
        with pytest.raises(SimulatorStateError) as excinfo:
            check_invariants(finished_array)
        assert "SAN004" in str(excinfo.value)

    def test_sanitizer_error_carries_findings(self, finished):
        finished._flits_delivered -= 1
        with pytest.raises(SanitizerError) as excinfo:
            SimulatorSanitizer(stride=1).audit(finished)
        assert excinfo.value.findings
        assert "SAN003" in codes(excinfo.value.findings)
        assert "SAN003" in str(excinfo.value)


class TestStrideLocalisation:
    def test_clean_run_audits_every_cycle(self, tiny_dragonfly):
        sim = make_simulator(tiny_dragonfly)
        sim._sanitizer = SimulatorSanitizer(stride=1)
        result = sim.run()
        assert result.drained
        assert audit_simulator(sim) == []

    @pytest.mark.parametrize("stride", [1, 8])
    def test_planted_corruption_surfaces_within_one_stride(
        self, tiny_dragonfly, stride
    ):
        """A credit leaked at cycle 50 must abort the run by the next
        audit point -- the error is localised to its stride."""
        corrupt_at = 50
        sim = make_simulator(tiny_dragonfly)
        sim._sanitizer = SimulatorSanitizer(stride=stride)
        real_switch = sim._switch

        def corrupting_switch():
            real_switch()
            if sim.now == corrupt_at:
                sim._credits[first_network_out_idx(sim)] -= 1

        sim._switch = corrupting_switch
        with pytest.raises(SanitizerError) as excinfo:
            sim.run()
        assert "SAN002" in codes(excinfo.value.findings)
        assert corrupt_at <= sim.now <= corrupt_at + stride

    def test_maybe_audit_respects_the_stride(self, finished):
        finished._flits_delivered -= 1
        sanitizer = SimulatorSanitizer(stride=4)
        sanitizer.maybe_audit(finished, 3)  # off-stride: no audit
        with pytest.raises(SanitizerError):
            sanitizer.maybe_audit(finished, 4)

    def test_stride_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulatorSanitizer(stride=0)


class TestGoldenFixturesSanitized:
    """Acceptance: every golden fixture re-simulates under the sanitizer
    with zero findings and bit-identical results."""

    @pytest.mark.parametrize("fixture_name", GOLDEN_FIXTURES)
    def test_fixture_is_clean_and_bit_identical(
        self, monkeypatch, fixture_name
    ):
        fixture = json.loads(
            (GOLDEN_DIR / f"{fixture_name}.json").read_text()
        )
        topology = Dragonfly(DragonflyParams(**fixture["topology"]))
        config = SimulationConfig(**fixture["config"])
        monkeypatch.setenv(ENV_ENABLE, "1")
        points = load_sweep(
            topology,
            fixture["routing"],
            fixture["pattern"],
            fixture["loads"],
            config,
        )
        assert [point.result.to_dict() for point in points] == fixture["points"]
