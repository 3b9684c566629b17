"""Packets, flits, route plans and source-queue records for the
cycle-accurate simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..topology.dragonfly import GlobalLink


@dataclass(slots=True)
class RoutePlan:
    """The per-packet routing decision, fixed at the source router.

    ``minimal`` selects between the 3-step minimal route and the 5-step
    Valiant route of Section 4.1.  ``gc1`` is the global channel leaving
    the source group (``None`` when the destination -- or, for Valiant,
    the intermediate group -- is the source group itself); ``gc2`` is the
    Valiant route's second global channel (``None`` for minimal routes or
    degenerate Valiant routes).
    """

    minimal: bool
    gc1: Optional[GlobalLink] = None
    gc2: Optional[GlobalLink] = None


@dataclass(slots=True)
class Packet:
    """One network packet.

    Latency accounting: ``creation_time`` is when the traffic source
    produced the packet (start of source queueing); ``inject_time`` is
    when the head flit entered the source router; ``eject_time`` is when
    the tail flit reached the destination terminal.  Reported packet
    latency is ``eject_time - creation_time`` (the paper's convention --
    source queueing is included, which is what makes latency diverge at
    saturation).
    """

    index: int
    src_terminal: int
    dst_terminal: int
    creation_time: int
    size: int = 1
    plan: Optional[RoutePlan] = None
    measured: bool = False
    #: Protocol message class: 0 = request (or plain traffic), 1 = reply.
    #: Replies ride VCs ``3 * vc_class ..`` so the classes cannot block
    #: each other (protocol deadlock avoidance, Section 4.1).
    vc_class: int = 0
    #: For replies: the creation time of the request this answers
    #: (round-trip latency is measured from it to the reply's ejection).
    origin_creation: Optional[int] = None
    inject_time: Optional[int] = None
    eject_time: Optional[int] = None
    #: Multi-flit packets only: per-router (out_port, out_vc) assignment
    #: filled in by the head flit so body/tail flits follow the same
    #: path.  ``None`` until the head flit is first enqueued.
    hop_assignment: Optional[Dict[int, Tuple[int, int]]] = None
    #: The plan's stage keys in the routing's hop memo
    #: (:class:`repro.routing.base.HopMemo`), indexed by the head flit's
    #: ``progress``; set together with ``plan``.
    keys: Optional[Tuple[int, ...]] = None

    @property
    def latency(self) -> int:
        if self.eject_time is None:
            raise ValueError(f"packet {self.index} has not been ejected")
        return self.eject_time - self.creation_time


class RecordLayout:
    """Bit layout of a queued, not-yet-decided packet as one ``int``.

    A saturated source queue grows by the excess offered load every
    cycle, so the engine keeps everything behind a terminal's decided
    head as compact records instead of :class:`Packet` objects.  From
    the low bits up a record holds the measured flag, the VC class, the
    destination terminal, the creation time, for replies the creation
    time of the request, and the packet index in the remaining high
    bits.  Field widths come from the terminal count and the last cycle
    a run can reach, so a record of a 72-terminal run stays below
    ``2**60`` (a 32-byte ``int``).  :meth:`packet` rebuilds the exact
    :class:`Packet` the engine would have queued.
    """

    __slots__ = ("_dst_bits", "_time_bits", "_dst_mask", "_time_mask")

    def __init__(self, num_terminals: int, last_cycle: int) -> None:
        self._dst_bits = max(1, (num_terminals - 1).bit_length())
        self._time_bits = max(1, last_cycle.bit_length())
        self._dst_mask = (1 << self._dst_bits) - 1
        self._time_mask = (1 << self._time_bits) - 1

    def pack(
        self,
        index: int,
        dst: int,
        creation: int,
        measured: bool,
        origin_creation: Optional[int] = None,
    ) -> int:
        """One record; ``origin_creation`` is given for replies only."""
        time_bits = self._time_bits
        if creation >> time_bits:
            raise ValueError(
                f"packet {index} created at cycle {creation}, past the "
                f"{time_bits}-bit horizon of its source-queue record"
            )
        record = index
        class_bit = 0
        if origin_creation is not None:
            record = record << time_bits | origin_creation
            class_bit = 2
        record = (record << time_bits | creation) << self._dst_bits | dst
        return record << 2 | class_bit | measured

    def packet(self, record: int, src: int, size: int) -> Packet:
        """The :class:`Packet` a record stands for, still undecided."""
        measured = bool(record & 1)
        vc_class = record >> 1 & 1
        record >>= 2
        dst = record & self._dst_mask
        record >>= self._dst_bits
        creation = record & self._time_mask
        record >>= self._time_bits
        origin_creation = None
        if vc_class:
            origin_creation = record & self._time_mask
            record >>= self._time_bits
        return Packet(
            record, src, dst, creation, size, None, measured, vc_class,
            origin_creation,
        )


@dataclass(slots=True)
class Flit:
    """One flow-control unit of a packet.

    ``progress`` indexes the packet's stage ``keys``; how it advances is
    the routing's hop memo's business (for dragonfly plans it counts
    global channels crossed).  ``next_progress`` is the value
    ``progress`` takes after the current hop, computed together with the
    output port.
    ``upstream`` identifies the buffer slot one hop upstream whose
    credit must be returned -- after the channel latency -- when this
    flit leaves its current buffer.
    """

    packet: Packet
    is_head: bool = True
    is_tail: bool = True
    progress: int = 0
    next_progress: int = 0
    # Input (port * num_vcs + vc) slot occupied at the current router.
    in_idx: int = -1
    # Credit return target one hop upstream: (credit slot index
    # ``router * radix * vcs + out_port * vcs + vc``, flat
    # ``router * radix + out_port`` channel-info index, channel latency).
    upstream: Optional[Tuple[int, int, int]] = None
    # Kind of the channel the flit arrived on (None right after injection);
    # the credit-delay mechanism never delays credits that must cross a
    # global channel.
    arrived_on_global: bool = False


def make_flits(packet: Packet) -> List[Flit]:
    """Split a packet into its flits (head flit first)."""
    if packet.size < 1:
        raise ValueError("packet size must be >= 1")
    if packet.size == 1:
        return [Flit(packet=packet, is_head=True, is_tail=True)]
    flits = [Flit(packet=packet, is_head=True, is_tail=False)]
    for _ in range(packet.size - 2):
        flits.append(Flit(packet=packet, is_head=False, is_tail=False))
    flits.append(Flit(packet=packet, is_head=False, is_tail=True))
    return flits
