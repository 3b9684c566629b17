"""Tests for packets, flits and route plans."""

import pytest

from repro.network.packet import Packet, make_flits


def _packet(size=1):
    return Packet(
        index=0, src_terminal=0, dst_terminal=5, creation_time=10, size=size
    )


class TestMakeFlits:
    def test_single_flit(self):
        (flit,) = make_flits(_packet(1))
        assert flit.is_head and flit.is_tail

    def test_two_flits(self):
        head, tail = make_flits(_packet(2))
        assert head.is_head and not head.is_tail
        assert tail.is_tail and not tail.is_head

    def test_many_flits(self):
        flits = make_flits(_packet(5))
        assert len(flits) == 5
        assert flits[0].is_head
        assert flits[-1].is_tail
        for body in flits[1:-1]:
            assert not body.is_head and not body.is_tail

    def test_invalid_size(self):
        packet = _packet(1)
        packet.size = 0
        with pytest.raises(ValueError):
            make_flits(packet)


class TestPacketAccounting:
    def test_latency_requires_ejection(self):
        packet = _packet()
        with pytest.raises(ValueError):
            _ = packet.latency

    def test_latency_spans_creation_to_ejection(self):
        packet = _packet()
        packet.eject_time = 42
        assert packet.latency == 32
