"""Unit tests for the batched route-decision kernel.

The backend-differential corpus certifies the kernel end to end; these
tests pin its components in isolation so a regression is reported at
the layer that broke, not as a whole-run divergence:

* the Mersenne-Twister transplant reproduces CPython's stream word for
  word, including rejection sampling and position hand-back;
* :meth:`DecideTables.batch_decide` resolves to exactly the decision the
  scalar :meth:`RoutingAlgorithm.decide` makes, for every registry
  routing, against a shared synthetic congestion state: the first hop
  read from the hop table is ``next_hop``'s, and the stage keys decode
  to the scalar plan (the table itself is checked against the scalar
  hop memo in ``tests/routing/test_hop_memo.py``);
* every array engine on one topology reads the same hop table;
* eligibility is conservative, ``make_simulator`` selects the engine
  from it, fallbacks are logged, and provenance reports the tier that
  ran.
"""

from __future__ import annotations

import dataclasses
import logging
import pickle
import random

import numpy as np
import pytest

from oracles import KernelKeys, getrandbits, python_state
from repro.core.params import DragonflyParams
from repro.network.array_backend import ArraySimulator
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.decide_kernel import (
    KERNEL_NAME,
    DecideTables,
    VectorizedMT19937,
    kernel_ineligibility,
    lower_traffic,
)
from repro.network.simulator import Simulator
from repro.network.traffic import make_pattern
from repro.routing import (
    ALL_ROUTING_NAMES,
    TableDrivenRouting,
    compile_dragonfly_tables,
    make_routing,
)
from repro.routing.families import FAMILY_ROUTINGS
from repro.routing.paths import next_hop
from repro.routing.ugal import DRAGONFLY, RuleRouting
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly
from repro.topology.torus import Torus

TOPOLOGY = Dragonfly(DragonflyParams.paper_example_72())

#: One small topology per family, for the routing-name sweep.
FAMILY_TOPOLOGIES = {
    Dragonfly: TOPOLOGY,
    FlattenedButterfly: FlattenedButterfly(dims=(2, 2), concentration=1),
    FlattenedButterflyGroupDragonfly: FlattenedButterflyGroupDragonfly(
        p=1, group_dims=(2,), h=1
    ),
    Torus: Torus(dims=(3, 3), concentration=1),
    FoldedClos: FoldedClos(num_terminals=16, radix=8),
}

BASE_CONFIG = SimulationConfig(
    load=0.2,
    seed=11,
    warmup_cycles=30,
    measure_cycles=30,
    drain_max_cycles=1500,
)


# ----------------------------------------------------------------------
# Mersenne Twister transplant
# ----------------------------------------------------------------------
class TestVectorizedMT19937:
    def test_word_stream_matches_cpython(self):
        # Two full twist generations (624 words each), so the stream is
        # followed across two block boundaries.
        rng = random.Random(123)
        mt = VectorizedMT19937.from_python_rng(rng)
        for _ in range(1500):
            assert getrandbits(mt, 32) == rng.getrandbits(32)

    def test_transplant_does_not_advance_source(self):
        rng = random.Random(5)
        before = rng.getstate()
        VectorizedMT19937.from_python_rng(rng)
        assert rng.getstate() == before

    def test_getrandbits_truncation(self):
        rng = random.Random(99)
        mt = VectorizedMT19937.from_python_rng(rng)
        for k in (1, 5, 8, 13, 32, 6, 6, 6):
            assert getrandbits(mt, k) == rng.getrandbits(k)

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 33, 71, 623, 624, 1000])
    def test_rejection_sample_matches_scalar(self, n):
        rng = random.Random(777)
        mt = VectorizedMT19937.from_python_rng(rng)
        draws = mt.rejection_sample(2000, n)
        # The scalar reference: the inlined rejection loop of
        # _valiant_plan_between / Random._randbelow_with_getrandbits.
        k = n.bit_length()
        for j in range(2000):
            r = rng.getrandbits(k)
            while r >= n:
                r = rng.getrandbits(k)
            assert int(draws[j]) == r, f"draw {j} diverged"

    def test_rejection_sample_commits_exact_position(self):
        # After a batch, the stream must stand on the word *after* the
        # last accepted one: interleaved scalar consumption stays
        # identical to a generator that did everything scalar-side.
        rng = random.Random(31)
        mt = VectorizedMT19937.from_python_rng(rng)
        n = 33  # forces rejections (k = 6, reject 33..63)
        for j in range(50):
            r = rng.getrandbits(n.bit_length())
            while r >= n:
                r = rng.getrandbits(n.bit_length())
            assert int(mt.rejection_sample(1, n)[0]) == r
            # A few raw words in between, both sides.
            for _ in range(j % 3):
                assert getrandbits(mt, 32) == rng.getrandbits(32)

    def test_to_python_state_roundtrip(self):
        rng = random.Random(8)
        mt = VectorizedMT19937.from_python_rng(rng)
        mt.rejection_sample(700, 5)  # crosses a twist boundary
        back = random.Random()
        back.setstate(python_state(mt))
        # Advance the scalar reference by the same number of raw words
        # the batch consumed, then both must continue identically.
        clone = random.Random(8)
        consumed = 0
        accepted = 0
        while accepted < 700:
            if clone.getrandbits(3) < 5:
                accepted += 1
            consumed += 1
        for _ in range(100):
            assert back.getrandbits(32) == clone.getrandbits(32)

    def test_state_round_trips_on_both_sides_of_each_block_boundary(self):
        """``python_state`` just before and just after every 624-word
        block boundary a ``rejection_sample`` call crosses equals the
        state of a scalar generator that made the same draws."""
        n = 33  # k = 6: words 33..63 are rejected
        source = random.Random(41)
        for _ in range(617):  # start 7 words before the first boundary
            source.getrandbits(32)
        words = 617
        walker = random.Random()
        walker.setstate(source.getstate())
        ends, states = [], []  # per accepted draw: its word, the state after it
        while len(ends) < 2000:
            words += 1
            if walker.getrandbits(n.bit_length()) < n:
                ends.append(words)
                states.append(walker.getstate())
        batched = VectorizedMT19937.from_python_rng(source).rejection_sample(2000, n)
        boundaries = range(624, ends[-1], 624)
        assert len(boundaries) >= 6
        for boundary in boundaries:
            before = sum(end <= boundary for end in ends)  # draws left of it
            mt = VectorizedMT19937.from_python_rng(source)
            head = mt.rejection_sample(before, n)
            assert python_state(mt) == states[before - 1]
            # One draw whose word lies past the boundary: the call crosses it.
            tail = mt.rejection_sample(1, n)
            assert ends[before] > boundary
            assert python_state(mt) == states[before]
            assert [*head, *tail] == list(batched[:before + 1])
            back = random.Random()
            back.setstate(python_state(mt))
            walker.setstate(states[before])
            for _ in range(3):
                assert back.getrandbits(32) == walker.getrandbits(32)

    def test_rejection_sample_rejects_bad_n(self):
        mt = VectorizedMT19937.from_python_rng(random.Random(1))
        with pytest.raises(ValueError):
            mt.rejection_sample(1, 0)

    def test_rejects_non_mt_state(self):
        class NotMT(random.Random):
            def getstate(self):
                return (2, (0,) * 625, None)

        with pytest.raises(ValueError):
            VectorizedMT19937.from_python_rng(NotMT())


# ----------------------------------------------------------------------
# Batched decide vs scalar decide, every registry routing
# ----------------------------------------------------------------------
class _FakeView:
    """Deterministic congestion state readable from both sides.

    Scalar decides read it through the CongestionView protocol; the
    batched path reads the same numbers through the flattened
    ``qa``/``qb`` indices `batch_decide` emits -- so the test also pins
    the index convention (``router * radix + port``, per-VC appended).
    """

    def __init__(self, topology: Dragonfly, num_vcs: int) -> None:
        self.radix = topology.fabric.max_radix()
        self.num_vcs = num_vcs
        n_out = topology.fabric.num_routers * self.radix
        self.pending = [(i * 13 + 5) % 23 for i in range(n_out)]
        self.pending_vc = [(i * 7 + 3) % 11 for i in range(n_out * num_vcs)]

    def output_occupancy(self, router: int, out_port: int) -> int:
        return self.pending[router * self.radix + out_port]

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        return self.pending_vc[(router * self.radix + out_port) * self.num_vcs + vc]


def _decider_sample(topology: Dragonfly, seed: int, count: int):
    """(src_router, dst_terminal) pairs covering every decide regime."""
    rng = random.Random(seed)
    n = topology.num_terminals
    p = topology.p
    pairs = []
    for _ in range(count):
        src_t = rng.randrange(n)
        roll = rng.random()
        if roll < 0.15:  # same router
            dst = src_t // p * p + (src_t + 1) % p
        elif roll < 0.3:  # same group, different router
            per_group = topology.params.terminals_per_group
            base = src_t // per_group * per_group
            dst = base + (src_t - base + p) % per_group
        else:  # inter-group
            dst = rng.randrange(n)
        if dst == src_t:
            dst = (dst + 1) % n
        pairs.append((topology.terminal_router(src_t), dst))
    return pairs


@pytest.mark.parametrize("name", ALL_ROUTING_NAMES)
def test_batch_decide_matches_scalar(name):
    topo = TOPOLOGY
    routing = make_routing(name)
    num_vcs = BASE_CONFIG.num_vcs
    tables = DecideTables(topo, routing, num_vcs)
    view = _FakeView(topo, num_vcs)
    pairs = _decider_sample(topo, seed=42, count=300)

    srcs = np.array([s for s, _ in pairs], dtype=np.int64)
    dstr = np.array([topo.terminal_router(d) for _, d in pairs], dtype=np.int64)

    stream = VectorizedMT19937.from_python_rng(random.Random(9))
    batch = tables.batch_decide(stream, srcs, dstr)
    oracle = KernelKeys(topo, routing.hop_memo(topo).table)

    rng = random.Random(9)
    for i, (src_router, dst_terminal) in enumerate(pairs):
        plan = routing.decide(view, topo, rng, src_router, dst_terminal)
        want = next_hop(topo, src_router, plan, 0, dst_terminal)

        take_a = True
        if batch.mode[i]:
            # The caller's live comparison, against the same state.
            if batch.use_vc[i]:
                q_a = view.pending_vc[batch.qa[i]]
                q_b = view.pending_vc[batch.qb[i]]
            else:
                q_a = view.pending[batch.qa[i]]
                q_b = view.pending[batch.qb[i]]
            take_a = q_a * batch.hm[i] <= q_b * batch.hn[i]
        if take_a:
            got_keys = batch.a_keys[i]
            got_min = bool(batch.a_min[i])
        else:
            got_keys = batch.b_keys[i]
            got_min = False

        got_port, got_vc, _ = tables.hops[got_keys[0] + src_router]
        if got_port < 0:
            got_port = topo.terminal_port(dst_terminal)
        assert (got_port, got_vc) == want, f"decider {i} first hop"
        assert got_min == plan.minimal, f"decider {i} minimal flag"
        keys = oracle.keys(plan, dst_terminal)
        assert tuple(got_keys[:len(keys)].tolist()) == keys, f"decider {i} keys"
        lowered = oracle.plan(got_keys, src_router, dst_terminal, got_min)
        assert lowered.minimal == plan.minimal
        assert lowered.gc1 == plan.gc1, f"decider {i} gc1"
        assert lowered.gc2 == plan.gc2, f"decider {i} gc2"

    # Both sides must have consumed the route stream identically.
    back = random.Random()
    back.setstate(python_state(stream))
    assert back.getrandbits(32) == rng.getrandbits(32)


def test_engines_on_one_topology_share_the_hop_table():
    """The hop table is built once per topology, on its ``DragonflyHops``
    memo: every array engine on the topology reads that one object, and
    a pickled topology carries no table."""
    topology = Dragonfly(DragonflyParams.paper_example_72())
    engines = [
        ArraySimulator(
            topology, make_routing(name),
            make_pattern("uniform_random", topology, seed=1), BASE_CONFIG,
        )
        for name in ("UGAL-L", "UGAL-L", "VAL")
    ]
    table = make_routing("MIN").hop_memo(topology).table
    assert all(engine._hop_table is table.hops for engine in engines)
    assert all(engine._tables.final_keys is table.final_keys for engine in engines)
    copy = pickle.loads(pickle.dumps(topology))
    assert make_routing("MIN").hop_memo(copy)._table is None


# ----------------------------------------------------------------------
# Eligibility, fallback logging, provenance
# ----------------------------------------------------------------------
class TestEligibility:
    def test_canonical_single_flit_is_eligible(self):
        for name in ALL_ROUTING_NAMES:
            assert kernel_ineligibility(
                BASE_CONFIG, TOPOLOGY, make_routing(name)
            ) is None

    def test_multiflit_is_ineligible(self):
        config = dataclasses.replace(BASE_CONFIG, packet_size=4)
        reason = kernel_ineligibility(config, TOPOLOGY, make_routing("MIN"))
        assert reason is not None and "packet_size" in reason

    def test_more_than_eight_vcs_is_ineligible(self):
        """The switch's arbitration table has one column per subset of
        a port's VCs; eight VCs fill its one-byte index."""
        assert kernel_ineligibility(
            dataclasses.replace(BASE_CONFIG, num_vcs=8), TOPOLOGY, make_routing("MIN")
        ) is None
        config = dataclasses.replace(BASE_CONFIG, num_vcs=9)
        reason = kernel_ineligibility(config, TOPOLOGY, make_routing("MIN"))
        assert reason is not None and "9 VCs" in reason

    def test_routing_subclass_is_ineligible(self):
        class Custom(RuleRouting):
            pass

        reason = kernel_ineligibility(
            BASE_CONFIG, TOPOLOGY, Custom("MIN", DRAGONFLY, "min")
        )
        assert reason is not None and "Custom" in reason

    def test_topology_subclass_is_ineligible(self):
        class Variant(Dragonfly):
            pass

        topo = Variant(DragonflyParams.paper_example_72())
        reason = kernel_ineligibility(BASE_CONFIG, topo, make_routing("MIN"))
        assert reason is not None

    @pytest.mark.parametrize("name", [
        *ALL_ROUTING_NAMES, *FAMILY_ROUTINGS, "TBL-MIN", "TBL-MIN/gc1",
    ])
    def test_every_routing_name_builds_its_tier(self, name):
        """The kernel engages for exactly the dragonfly's names; every
        other array request falls back naming its routing."""
        routing = make_routing(name)
        assert routing.name == name
        topology = FAMILY_TOPOLOGIES[routing.topology_type]
        sim = make_simulator(
            topology, routing, make_pattern("uniform_random", topology, seed=1),
            dataclasses.replace(BASE_CONFIG, num_vcs=4), backend="array",
        )
        info = sim.backend_provenance()
        if name in ALL_ROUTING_NAMES:
            assert info == {"backend": "array", "kernel": KERNEL_NAME}
        else:
            assert info["kernel"] == "none"
            assert repr(name) in info["kernel_fallback"]


class TestTrafficLowering:
    """`lower_traffic` replays the pattern rng word-for-word."""

    @pytest.mark.parametrize(
        "name", ["uniform_random", "worst_case", "group_tornado"]
    )
    def test_batch_matches_scalar_calls(self, name: str) -> None:
        reference = make_pattern(name, TOPOLOGY, seed=101)
        lowered = lower_traffic(make_pattern(name, TOPOLOGY, seed=101))
        assert lowered is not None
        srcs = [(i * 29 + 7) % TOPOLOGY.num_terminals for i in range(400)]
        expected = [reference(src) for src in srcs]
        got = lowered.batch(np.asarray(srcs, np.int64))
        assert got.tolist() == expected

    def test_split_batches_keep_stream_position(self) -> None:
        reference = make_pattern("worst_case", TOPOLOGY, seed=5)
        lowered = lower_traffic(make_pattern("worst_case", TOPOLOGY, seed=5))
        srcs = list(range(TOPOLOGY.num_terminals)) * 3
        expected = [reference(src) for src in srcs]
        got: list[int] = []
        cursor = 0
        for size in (1, 13, 50, 7, 121, 24):
            chunk = np.asarray(srcs[cursor:cursor + size], np.int64)
            got.extend(lowered.batch(chunk).tolist())
            cursor += size
        assert got == expected[:cursor]

    def test_lowering_does_not_advance_source_rng(self) -> None:
        pattern = make_pattern("uniform_random", TOPOLOGY, seed=3)
        before = pattern._rng.getstate()
        lowered = lower_traffic(pattern)
        assert lowered is not None
        lowered.batch(np.arange(32, dtype=np.int64))
        assert pattern._rng.getstate() == before

    def test_unlowerable_patterns_return_none(self) -> None:
        for name in ("bursty", "shift", "hotspot"):
            assert lower_traffic(make_pattern(name, TOPOLOGY, seed=2)) is None

    def test_kernel_sim_uses_lowering(self) -> None:
        sim = _sim(BASE_CONFIG, "array")
        assert isinstance(sim, ArraySimulator)
        assert sim._traffic_lowering is not None
        bursty = make_simulator(
            TOPOLOGY,
            make_routing("UGAL-L"),
            make_pattern("bursty", TOPOLOGY, seed=9),
            BASE_CONFIG,
            backend="array",
        )
        assert isinstance(bursty, ArraySimulator)
        assert bursty._traffic_lowering is None


def _sim(config: SimulationConfig, backend: str, routing_name: str = "UGAL-L"):
    return make_simulator(
        TOPOLOGY,
        make_routing(routing_name),
        make_pattern("uniform_random", TOPOLOGY, seed=config.seed + 17),
        config,
        backend=backend,
    )


class _VariantDragonfly(Dragonfly):
    pass


#: One (topology, routing, config) factory per class of input the kernel
#: does not cover.  The table-driven case is request-reply: replies
#: spawned at ejection must wake their source terminal's injection, or
#: the run never drains.
INELIGIBLE = {
    "multi-flit": lambda: (
        TOPOLOGY,
        make_routing("UGAL-L"),
        dataclasses.replace(BASE_CONFIG, packet_size=4),
    ),
    "table-driven-request-reply": lambda: (
        TOPOLOGY,
        TableDrivenRouting(
            make_routing("UGAL-L"), compile_dragonfly_tables(TOPOLOGY)
        ),
        dataclasses.replace(BASE_CONFIG, request_reply=True, num_vcs=6),
    ),
    "dragonfly-subclass": lambda: (
        _VariantDragonfly(DragonflyParams.paper_example_72()),
        make_routing("UGAL-L"),
        BASE_CONFIG,
    ),
    "multi-link-non-maximal-g": lambda: (
        Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=3)),
        make_routing("UGAL-L"),
        BASE_CONFIG,
    ),
}


class TestProvenance:
    def test_array_kernel_provenance(self):
        result = _sim(BASE_CONFIG, "array").run()
        assert result.backend_info == {"backend": "array", "kernel": KERNEL_NAME}

    def test_scalar_provenance(self):
        result = _sim(BASE_CONFIG, "scalar").run()
        assert result.backend_info == {"backend": "scalar", "kernel": "none"}

    def test_fallback_is_reported_and_logged(self, caplog):
        config = dataclasses.replace(BASE_CONFIG, packet_size=4)
        with caplog.at_level(logging.INFO, logger="repro.network.backend"):
            sim = _sim(config, "array")
        info = sim.backend_provenance()
        assert info["backend"] == "array"
        assert info["kernel"] == "none"
        assert "packet_size" in info["kernel_fallback"]
        assert any(
            "decide kernel disabled" in record.getMessage()
            for record in caplog.records
        ), "fallback must be logged, never silent"

    @pytest.mark.parametrize("kind", sorted(INELIGIBLE))
    def test_ineligible_array_request_runs_the_scalar_engine(self, kind, caplog):
        runs = {}
        for backend in ("scalar", "array"):
            topology, routing, config = INELIGIBLE[kind]()
            pattern = make_pattern(
                "uniform_random", topology, seed=config.seed + 17
            )
            with caplog.at_level(logging.INFO, logger="repro.network.backend"):
                sim = make_simulator(
                    topology, routing, pattern, config, backend=backend
                )
            assert type(sim) is Simulator
            runs[backend] = sim.run()
        reason = kernel_ineligibility(config, topology, routing)
        assert reason is not None
        assert any(
            "decide kernel disabled" in record.getMessage()
            and reason in record.getMessage()
            for record in caplog.records
        ), "fallback must be logged, never silent"
        assert runs["array"].backend_info == {
            "backend": "array", "kernel": "none", "kernel_fallback": reason,
        }
        assert runs["array"].drained and runs["array"].samples
        assert runs["array"].to_dict() == runs["scalar"].to_dict()

    def test_array_simulator_refuses_ineligible_input(self):
        topology, routing, config = INELIGIBLE["multi-flit"]()
        pattern = make_pattern("uniform_random", topology, seed=3)
        with pytest.raises(ValueError, match="packet_size=4"):
            ArraySimulator(topology, routing, pattern, config)

    def test_provenance_excluded_from_equality_and_payload(self):
        scalar = _sim(BASE_CONFIG, "scalar").run()
        array = _sim(BASE_CONFIG, "array").run()
        assert scalar == array  # provenance is compare=False metadata
        assert "backend_info" not in scalar.to_dict()


class TestEndToEnd:
    @pytest.mark.parametrize("pattern", ["worst_case", "bursty"])
    def test_kernel_run_is_bit_identical(self, pattern):
        config = dataclasses.replace(BASE_CONFIG, load=0.4)
        traffic = lambda: make_pattern(pattern, TOPOLOGY, seed=config.seed + 17)
        runs = {}
        for backend in ("scalar", "array"):
            sim = make_simulator(
                TOPOLOGY, make_routing("UGAL-L_VCH"), traffic(), config,
                backend=backend,
            )
            runs[backend] = sim.run()
        assert runs["array"].to_dict() == runs["scalar"].to_dict()
        assert runs["array"].backend_info["kernel"] == KERNEL_NAME
