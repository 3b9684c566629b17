"""The scalar engine's source queues: one decided head per terminal and
compact records behind it.

Past saturation a terminal's source queue grows by the excess offered
load every cycle, so what a queued packet costs sets the memory of a
saturated run.  These tests pin that cost, the record round trip, and
the injection-loop contract for a blocked head: its route is decided
once, and it is not retried while its injection slot is full.
"""

import tracemalloc

import pytest

from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.packet import Packet, RecordLayout
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing

#: MIN accepts at most 1/(a*h) = 1/8 of worst-case traffic on the
#: 72-terminal dragonfly, so at 0.45 every source queue keeps growing.
OVERSAT = dict(load=0.45, warmup_cycles=100, measure_cycles=100)


def oversat_simulator(topology, drain_max_cycles):
    config = SimulationConfig(drain_max_cycles=drain_max_cycles, **OVERSAT)
    return make_simulator(
        topology,
        make_routing("MIN"),
        make_pattern("worst_case", topology, seed=config.seed + 17),
        config,
        backend="scalar",
    )


def queued_packets(sim):
    return sum(sim.state_view().source_depths)


class TestRecordLayout:
    def test_request_round_trips_to_the_packet_it_stands_for(self):
        layout = RecordLayout(num_terminals=72, last_cycle=102_001)
        record = layout.pack(123_456, 71, 101_999, True)
        assert layout.packet(record, 5, 1) == Packet(
            123_456, 5, 71, 101_999, 1, None, True
        )

    def test_reply_keeps_its_class_and_origin(self):
        layout = RecordLayout(num_terminals=72, last_cycle=5000)
        record = layout.pack(9, 0, 4000, False, origin_creation=3100)
        assert layout.packet(record, 33, 4) == Packet(
            9, 33, 0, 4000, 4, None, False, vc_class=1, origin_creation=3100
        )

    def test_the_index_is_unbounded(self):
        layout = RecordLayout(num_terminals=2, last_cycle=1)
        record = layout.pack(2**70 + 3, 1, 1, True)
        assert layout.packet(record, 0, 1).index == 2**70 + 3

    def test_a_saturated_72_terminal_record_is_a_small_int(self):
        """Three million packets into a 100 000-cycle drain: still below
        2**60, CPython's 32-byte int."""
        layout = RecordLayout(num_terminals=72, last_cycle=102_001)
        assert layout.pack(3_000_000, 71, 102_001, True) < 2**60

    def test_a_cycle_past_the_horizon_is_refused(self):
        layout = RecordLayout(num_terminals=72, last_cycle=1000)
        with pytest.raises(ValueError, match="horizon"):
            layout.pack(0, 1, 1 << 10, True)


class TestSaturatedBacklog:
    def test_marginal_bytes_per_queued_packet(self, paper72_dragonfly):
        """Two drain caps, neither drains: the extra traced memory of
        the longer run over the extra packets it queues is what one
        queued packet costs.  A whole queued ``Packet`` cost ~232 B."""
        held = []
        for cap in (300, 900):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                sim = oversat_simulator(paper72_dragonfly, cap)
                result = sim.run()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert not result.drained
            held.append((after - before, queued_packets(sim)))
            del sim, result
        (short_bytes, short_queued), (long_bytes, long_queued) = held
        assert long_queued - short_queued > 10_000
        per_packet = (long_bytes - short_bytes) / (long_queued - short_queued)
        assert per_packet <= 64, f"{per_packet:.1f} B per queued packet"

    def test_blocked_heads_decide_once_and_wait_without_retrying(
        self, paper72_dragonfly
    ):
        sim = oversat_simulator(paper72_dragonfly, 300)
        decide = sim.routing.decide
        counts = {"decide": 0, "attempt": 0}

        def counting_decide(*args):
            counts["decide"] += 1
            return decide(*args)

        inject_one = sim._inject_one

        def counting_inject_one(*args):
            counts["attempt"] += 1
            inject_one(*args)

        sim.routing.decide = counting_decide
        sim._inject_one = counting_inject_one
        result = sim.run()
        assert not result.drained

        heads = sum(head is not None for head in sim._source_head)
        records = sum(len(backlog) for backlog in sim._backlog)
        assert heads > 0 and records > 0
        # Every packet that reached a head was decided exactly once.
        assert counts["decide"] == sim._packet_counter - records
        injected = counts["decide"] - heads
        # An attempt either injects or decides a head that turns out to
        # be blocked: a blocked head is never retried in vain.
        assert counts["attempt"] <= injected + counts["decide"]
