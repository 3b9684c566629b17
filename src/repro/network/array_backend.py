"""Batched numpy engine for the cycle-accurate simulator.

:class:`ArraySimulator` is the decide-kernel engine behind the same
:class:`~repro.network.config.SimulationConfig`, the same routing
algorithms and the same :class:`~repro.network.stats.SimulationResult`
as the scalar reference.  It exists for the paper's 1056-node default
scale (``p = h = 4, a = 8``), where the scalar engine's per-terminal and
per-port Python overhead dominates the run time.

It runs exactly the configurations
:func:`~repro.network.decide_kernel.kernel_ineligibility` accepts --
single-flit packets, a registry routing, the canonical single-link
dragonfly -- and refuses everything else at construction.
:func:`repro.network.backend.make_simulator` is the selection point: an
ineligible ``backend="array"`` request gets the scalar engine, with the
reason logged and recorded in the result's provenance.

Every per-cycle step is a numpy operation over that cycle's batch; no
phase iterates per flit, packet, terminal or port in Python.

State layout
------------

* **Construction.**  :class:`ArraySimulator` shares with the scalar
  engine only :meth:`Simulator._init_shared` -- run identity, RNGs,
  channel and terminal wiring, event-ring geometry, measurement
  counters, the sanitizer -- and builds everything else as numpy
  arrays: the flow-control counters (``_credits``, ``_buf_count``,
  ``_rr_vc``, the ``_occupancy`` windows, ``_td``/``_td_min``), the
  wiring columns (``_ch_*``, ``_is_network``, the per-terminal bases),
  the row store and its two FIFO sets.  The hop table is the
  topology's, built by its first engine.  None of the scalar engine's
  per-slot deques, stream table, source heads or active set exists
  here; a bulk workload goes straight into rows.  The per-port credit
  time queues exist, in either engine, only under UGAL-L_CR.
* **Rows.**  Packets are single-flit, so a packet and its flit are one
  *row*: an integer id indexing the ``_f_*`` columns
  (:data:`_FLIT_COLUMNS`), allocated when the packet is created and
  recycled through a free stack when it ejects (a request's row becomes
  its reply's row in place).  A decided row carries its plan's stage
  keys (``keys``, indexed by ``progress``), and every hop -- the first
  one included -- is one gather from the topology's
  :class:`~repro.routing.paths.HopTable` at ``keys[progress] +
  router``, the scalar engine's hop-memo read.
* **FIFOs.**  The per-terminal source queues and the per-(port, VC)
  output queues are :class:`LinkedFifos`: one intrusive singly linked
  list over row ids (``head``/``tail`` per slot, one ``next`` link per
  row) with a batch append and a batch pop.  A blocked queue head keeps
  its pinned route decision in the row's ``decided``/``keys``/
  ``minimal`` columns, exactly as the scalar engine pins the decided
  plan and its keys on the packet.
* **Rings.**  The arrival and credit calendar rings hold, per slot, a
  list of int64 chunks (row ids, resp. credit slots) concatenated at
  delivery.  An arriving row already carries its input slot
  (``in_idx``), and a credit's upstream port is ``credit_idx // vcs``,
  so one column per event is enough.
* **Active set.**  The ports the switch visits are
  ``pending.nonzero()`` -- ascending flat-port order, the scalar
  visit order.
* ``_pending`` and ``_pending_vc`` are two windows onto one occupancy
  buffer, so a UGAL read is one gather whatever the congestion signal.

The sanitizer and the lockstep fingerprint read all of this through
:class:`ArrayStateView`, which materialises queues, ring events and port
masks from the arrays on demand.

What stays bit-identical, and why
---------------------------------

* **Traffic Bernoulli draws** transplant the Mersenne-Twister state of
  the traffic :class:`random.Random` into a
  :class:`numpy.random.RandomState` (both derive 53-bit doubles from
  two 32-bit words the same way) -- the batched row of doubles is equal
  bit for bit to the scalar per-terminal draws, asserted on a probe at
  construction.
* **Route decisions** consume the route rng word-for-word as the scalar
  inlined rejection loop does, in the same ascending-terminal order
  (:class:`~repro.network.decide_kernel.VectorizedMT19937`).
* **Injection commit** is wave ordered.  The scalar engine visits
  terminals in ascending order, and the only thing one terminal's
  attempt can see of another's is the UGAL ``q_m * H_m <= q_nm * H_nm``
  occupancy read.  That read is domain closed
  (:mod:`~repro.network.decide_kernel`): it never leaves the source
  router -- or, for UGAL-G, the source group -- and an injection writes
  occupancy only at its own router, while the buffer-space test reads
  the terminal's private injection slot.  So terminals of different
  domains commute, and within a domain only *comparing* terminals need
  ordering: a terminal's wave is the number of comparing terminals at
  or before it in its domain.  Wave ``k`` gathers live occupancy for
  every domain's ``k``-th comparing terminal at once, finishes their
  comparisons, and scatters the occupancy of everything committing in
  the wave; each comparing terminal therefore sees exactly the
  injections the ascending scan would have committed before it.  MIN
  and VAL never compare, so they commit in a single wave.
* **Switch arbitration** batches only decisions that are independent
  within a cycle (each output port touches its own queues, credits and
  round-robin pointer); winners stay in ascending flat-port order, so
  sample order, ring order and every downstream FIFO order match.
* **FIFO order** survives batching because :meth:`LinkedFifos.append`
  sorts a batch by slot *stably*: rows bound for one queue keep their
  batch order, which is the scalar append order.
* **Credit delivery** applies as one duplicate-safe scatter-add per
  cycle.  UGAL-L_CR's credit round-trip sensing is the one sequential
  residue: its CTQ stamps are appended per event, and its credit
  delivery hands each cycle's events to the scalar per-event loop.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..routing.base import RoutingAlgorithm
from ..settings import Settings
from ..topology.dragonfly import Dragonfly
from .config import SimulationConfig
from .decide_kernel import (
    KERNEL_NAME,
    DecideTables,
    VectorizedMT19937,
    kernel_ineligibility,
    lower_traffic,
    transplant_mt19937,
)
from .simulator import Simulator, SimulatorStateError, SimulatorStateView
from .stats import LatencySamples


def transplant_rng(rng: random.Random) -> np.random.RandomState:
    """A numpy RandomState continuing ``rng``'s exact double stream.

    CPython's :class:`random.Random` and numpy's legacy
    :class:`~numpy.random.RandomState` both build ``random()`` doubles as
    ``((a >> 5) * 2^26 + (b >> 6)) / 2^53`` from two consecutive 32-bit
    outputs, so on the transplanted MT19937 (:func:`transplant_mt19937`)
    the scalar stream continues bit for bit.
    """
    return np.random.RandomState(transplant_mt19937(rng))


class LinkedFifos:
    """``num_slots`` FIFOs of integer item ids as one linked list.

    ``head[slot]`` is the oldest item of a slot (-1 when the FIFO is
    empty), ``tail[slot]`` the newest (meaningful only while the FIFO is
    non-empty), and ``next[item]`` the item queued behind ``item`` (-1
    at the tail).  The list is intrusive: an item is a row id of the
    caller's column store, lives in at most one FIFO of this instance at
    a time, and the caller :meth:`reserve`\\ s link capacity as its store
    grows.
    """

    __slots__ = ("head", "tail", "next")

    def __init__(self, num_slots: int, capacity: int) -> None:
        self.head = np.full(num_slots, -1, dtype=np.int64)
        self.tail = np.full(num_slots, -1, dtype=np.int64)
        self.next = np.full(capacity, -1, dtype=np.int64)

    def reserve(self, capacity: int) -> None:
        """Make item ids below ``capacity`` linkable."""
        if capacity > self.next.shape[0]:
            grown = np.full(capacity, -1, dtype=np.int64)
            grown[: self.next.shape[0]] = self.next
            self.next = grown

    def append(self, slots: np.ndarray, items: np.ndarray) -> None:
        """Append ``items[i]`` to FIFO ``slots[i]``, in batch order.

        Slots may repeat: items bound for the same FIFO are queued in
        their batch order.  The batch is sorted by slot (stably), each
        run of equal slots is chained internally, and the chains are
        spliced onto the slots' tails.
        """
        count = items.shape[0]
        if count == 0:
            return
        link = self.next
        link[items] = -1
        # Stable sort by slot.  The batch position in the low bits makes
        # every key unique, so numpy's fast unstable sort cannot reorder
        # the items of one slot.
        shift = count.bit_length()
        key = (slots << shift) | np.arange(count, dtype=np.int64)
        key.sort()
        items = items[key & ((1 << shift) - 1)]
        slots = key >> shift
        starts_run = np.empty(count, dtype=np.bool_)
        starts_run[0] = True
        np.not_equal(slots[1:], slots[:-1], out=starts_run[1:])
        follows = (~starts_run).nonzero()[0]
        link[items[follows - 1]] = items[follows]
        first = starts_run.nonzero()[0]
        last = np.empty_like(first)
        last[:-1] = first[1:] - 1
        last[-1] = count - 1
        self._splice(slots[first], items[first], items[last])

    def append_distinct(self, slots: np.ndarray, items: np.ndarray) -> None:
        """:meth:`append` for a batch whose ``slots`` do not repeat."""
        self.next[items] = -1
        self._splice(slots, items, items)

    def _splice(
        self, slots: np.ndarray, firsts: np.ndarray, lasts: np.ndarray
    ) -> None:
        """Hang one ``firsts[i]`` .. ``lasts[i]`` chain per distinct slot."""
        occupied = self.head[slots] >= 0
        self.next[self.tail[slots[occupied]]] = firsts[occupied]
        vacant = ~occupied
        self.head[slots[vacant]] = firsts[vacant]
        self.tail[slots] = lasts

    def pop(self, slots: np.ndarray) -> np.ndarray:
        """Remove and return the heads of distinct, non-empty ``slots``."""
        items = self.head[slots]
        self.head[slots] = self.next[items]
        return items

    def to_lists(self) -> List[List[int]]:
        """Every FIFO's items, oldest first (diagnostics, not hot path)."""
        link = self.next.tolist()
        queues = []
        for item in self.head.tolist():
            queue: List[int] = []
            while item >= 0:
                if len(queue) > len(link):
                    raise SimulatorStateError(
                        "FIFO links form a cycle: a queue is longer than "
                        f"the {len(link)}-row store"
                    )
                queue.append(item)
                item = link[item]
            queues.append(queue)
        return queues


#: Per-row columnar state.  A row is a single-flit packet from creation
#: to ejection; ids are recycled through a free stack.
_FLIT_COLUMNS = (
    # -- fixed at packet creation ---------------------------------------
    ("dst", np.int64),              # destination terminal
    ("dst_router", np.int64),       # its router (gather-friendly)
    ("src_terminal", np.int64),     # source terminal (reply addressing)
    ("origin_creation", np.int64),  # creation time of the sample origin
    ("measured", np.bool_),         # tagged for latency sampling
    ("vc_off", np.int64),           # 3 * vc_class network-VC offset
    ("pkt", np.int64),              # packet index (error messages)
    # -- the route decision, pinned once made ---------------------------
    ("decided", np.bool_),          # the columns below are valid
    ("keys", (np.int64, 3)),        # the plan's stage keys, by progress
    ("minimal", np.bool_),          # RoutePlan.minimal of the decision
    # -- in-network progress --------------------------------------------
    ("progress", np.int64),         # global hops taken: indexes keys
    ("next_progress", np.int64),    # progress after the queued hop
    ("in_idx", np.int64),           # input VC slot holding the row
    ("up_credit", np.int64),        # upstream credit slot, -1 at source
    ("up_lat", np.int64),           # upstream channel latency
    ("on_global", np.bool_),        # arrived over a global channel
)


_NO_EVENTS = np.zeros(0, dtype=np.int64)


def _joined(chunks: List[np.ndarray]) -> np.ndarray:
    """One ring slot's chunks as a single array."""
    if len(chunks) == 1:
        return chunks[0]
    return np.concatenate(chunks) if chunks else _NO_EVENTS


class ArrayStateView(SimulatorStateView):
    """:class:`SimulatorStateView` over the array layout.

    Queues, ring events and port masks do not exist as Python objects in
    :class:`ArraySimulator`; each accessor materialises them from the
    arrays at call time, in the shapes the scalar view exposes, so an
    audit still sees the live state -- including corruption injected in
    place.
    """

    __slots__ = ()

    @property
    def out_q(self):
        return self._sim._out_fifo.to_lists()

    @property
    def source_depths(self) -> List[int]:
        return [len(queue) for queue in self._sim._src_fifo.to_lists()]

    # Rows are single-flit packets: no packet is ever part way through
    # injection or open as a multi-flit stream.
    @property
    def inflight_injection(self):
        return [()] * self._sim._num_terminals

    @property
    def streams(self):
        return {}

    def _arrival_events(self, chunks) -> List[Tuple[int, int, int]]:
        rows = _joined(chunks)
        in_idx = self._sim._f_in_idx[rows]
        return list(zip(
            (in_idx // self._sim._rv).tolist(), in_idx.tolist(), rows.tolist()
        ))

    @property
    def arrival_ring(self):
        return [
            self._arrival_events(chunks) for chunks in self._sim._arrival_ring
        ]

    def _credit_events(self, chunks) -> List[Tuple[int, int]]:
        credits = _joined(chunks)
        return list(zip(
            credits.tolist(), (credits // self._sim._vcs).tolist()
        ))

    @property
    def credit_ring(self):
        return [self._credit_events(chunks) for chunks in self._sim._credit_ring]

    @property
    def credit_overflow(self):
        return {
            when: self._credit_events(chunks)
            for when, chunks in self._sim._credit_overflow.items()
        }

    @property
    def samples(self):
        self._sim._finalise_measurement()
        return self._sim._samples

    def active_port_mask(self, router: int) -> int:
        radix = self._sim._radix
        ports = np.flatnonzero(
            self._sim._pending[router * radix:(router + 1) * radix]
        )
        return sum(1 << port for port in ports.tolist())

    def router_marked_active(self, router: int) -> bool:
        radix = self._sim._radix
        return bool(
            self._sim._pending[router * radix:(router + 1) * radix].any()
        )


class ArraySimulator(Simulator):
    """Batched numpy implementation of the simulator engine."""

    def __init__(
        self,
        topology: Dragonfly,
        routing: RoutingAlgorithm,
        pattern: Callable[[int], int],
        config: SimulationConfig,
        settings: Optional[Settings] = None,
    ) -> None:
        reason = kernel_ineligibility(config, topology, routing)
        if reason is not None:
            raise ValueError(
                f"ArraySimulator cannot run this configuration ({reason}); "
                "make_simulator(backend='array') selects the scalar engine "
                "for it"
            )
        self._init_shared(topology, routing, pattern, config, settings)
        num_ports = self._num_routers * self._radix
        num_slots = self._num_routers * self._rv
        # Per-port and per-(port, VC) queue occupancy share one buffer:
        # a UGAL comparison reads either kind through one gather, an
        # injection wave updates both through one scatter-add.
        self._occupancy = np.zeros(num_ports + num_slots, dtype=np.int64)
        self._pending = self._occupancy[:num_ports]
        self._pending_vc = self._occupancy[num_ports:]
        self._credits = np.full(num_slots, self._depth, dtype=np.int64)
        self._rr_vc = np.zeros(num_ports, dtype=np.int64)
        self._buf_count = np.zeros(num_slots, dtype=np.int64)
        self._td = np.zeros(num_ports, dtype=np.float64)
        self._td_min = np.zeros(self._num_routers, dtype=np.float64)
        #: True per flat port that has a network channel (ejection and
        #: unwired ports need no credit to forward).
        self._is_network = np.asarray(
            [info is not None for info in self._channel_info], dtype=bool
        )
        self._slot_needs_no_credit = np.repeat(~self._is_network, self._vcs)
        # Continue the traffic RNG's exact stream in numpy, and prove
        # it on a probe draw: one double from a copy of each generator
        # must agree bit for bit.
        probe = random.Random()
        probe.setstate(self._rng_traffic.getstate())
        self._np_traffic = transplant_rng(self._rng_traffic)
        if transplant_rng(probe).random_sample() != probe.random():
            raise RuntimeError(  # pragma: no cover - MT19937 contract
                "numpy RandomState failed to reproduce random.Random's "
                "double stream; the array backend would break bit-identity"
            )
        # The probe consumed draws from copies only; self._np_traffic
        # still sits at the scalar stream's position.
        self._mt_route = VectorizedMT19937.from_python_rng(self._rng_route)
        self._tables = DecideTables(topology, routing, config.num_vcs)
        #: Every hop, ``(port, VC, advance)`` at ``keys[progress] +
        #: router``: the topology's ``HopTable``, shared by its engines.
        self._hop_table = self._tables.hops
        #: Terminals per dependency domain of the UGAL occupancy read:
        #: the source router, or the whole source group for UGAL-G.
        self._domain_size = self._tables.p * (
            self._tables.a if self._tables.signal == "remote" else 1
        )

        ch_dbase = np.zeros(num_ports, np.int64)
        ch_lat = np.zeros(num_ports, np.int64)
        ch_glob = np.zeros(num_ports, np.bool_)
        ch_cidx = np.zeros(num_ports, np.int64)
        for idx, info in enumerate(self._channel_info):
            if info is not None:
                ch_dbase[idx] = info[1]
                ch_lat[idx] = info[2]
                ch_glob[idx] = info[3]
                ch_cidx[idx] = info[4]
        self._ch_dbase = ch_dbase
        self._ch_lat = ch_lat
        self._ch_glob = ch_glob
        self._ch_cidx = ch_cidx
        #: The handful of distinct channel latencies (local vs global,
        #: typically two) -- the switch phase groups its ring appends by
        #: latency value instead of calling np.unique per cycle.
        self._distinct_lats = sorted(set(ch_lat[self._is_network].tolist()))
        self._terminal_router_np = np.asarray(self._terminal_router, np.int64)
        #: Where a row ejects when its hop is port -1.
        self._terminal_port_np = np.asarray(self._terminal_port, np.int64)
        #: A destination terminal's router is its terminal router.
        self._dst_router_np = self._terminal_router_np
        self._inject_base_np = np.asarray(self._inject_base, np.int64)
        self._eject_terminal_np = np.asarray(self._eject_terminal, np.int64)
        #: Window flit counts per channel; ``_global_flits`` (the list
        #: the result is built from) is filled in once at run end.
        self._global_flit_counts = np.zeros(
            topology.fabric.num_channels, np.int64
        )
        #: Latency samples as (latency, minimal) column chunks, joined
        #: into ``_samples`` once at result time.
        self._sample_latency: List[np.ndarray] = [_NO_EVENTS]
        self._sample_minimal: List[np.ndarray] = [np.zeros(0, np.bool_)]

        # Row store: free-stack allocation, capacity doubling.
        self._f_cap = 0
        self._f_top = 0
        self._free = np.zeros(0, np.int64)
        self._free_count = 0
        self._src_fifo = LinkedFifos(self._num_terminals, 0)
        self._out_fifo = LinkedFifos(num_slots, 0)
        self._grow_columns(4096)
        if self._bulk_mode:
            # The whole workload, destinations drawn in the scalar
            # engine's ``pattern(terminal)`` order, terminal by
            # terminal, before ``lower_traffic`` transplants the
            # pattern's rng.
            srcs = np.repeat(
                np.arange(self._num_terminals, dtype=np.int64),
                config.packets_per_terminal,
            )
            dsts = np.fromiter(
                map(self.pattern, srcs.tolist()), np.int64, srcs.shape[0]
            )
            self._outstanding_tagged = srcs.shape[0]
            self._src_fifo.append(
                srcs, self._new_packets(srcs, dsts, creation=0, measured=True)
            )
        #: Batched destination draws for the lowered random patterns
        #: (``None`` keeps the per-packet ``pattern(src)`` call).  The
        #: transplant is sound because every destination draw goes
        #: through the batched injection pass.
        self._traffic_lowering = lower_traffic(self.pattern)

    def backend_provenance(self) -> Dict[str, str]:
        return {"backend": "array", "kernel": KERNEL_NAME}

    def state_view(self) -> ArrayStateView:
        return ArrayStateView(self)

    # ------------------------------------------------------------------
    # Row store
    # ------------------------------------------------------------------
    def _grow_columns(self, need: int) -> None:
        new_cap = max(self._f_cap * 2, need, 4096)
        for name, dtype in _FLIT_COLUMNS:
            attr = "_f_" + name
            grown = np.zeros(new_cap, dtype)
            if self._f_cap:
                grown[: self._f_cap] = getattr(self, attr)
            setattr(self, attr, grown)
        free = np.zeros(new_cap, np.int64)
        free[: self._free_count] = self._free[: self._free_count]
        self._free = free
        self._src_fifo.reserve(new_cap)
        self._out_fifo.reserve(new_cap)
        self._f_cap = new_cap

    def _alloc_rows(self, count: int) -> np.ndarray:
        """``count`` unused row ids: recycled ones first, then fresh."""
        recycled = min(count, self._free_count)
        stop = self._free_count
        rows = self._free[stop - recycled:stop].copy()
        self._free_count = stop - recycled
        if recycled < count:
            top = self._f_top + count - recycled
            if top > self._f_cap:
                self._grow_columns(top)
            rows = np.concatenate(
                (rows, np.arange(self._f_top, top, dtype=np.int64))
            )
            self._f_top = top
        return rows

    def _new_packets(
        self, srcs: np.ndarray, dsts: np.ndarray, creation: int, measured: bool
    ) -> np.ndarray:
        """Rows of one new packet per ``(srcs[i], dsts[i])``, numbered
        in batch order; the caller queues them at their sources."""
        count = srcs.shape[0]
        rows = self._alloc_rows(count)
        self._f_dst[rows] = dsts
        self._f_dst_router[rows] = self._dst_router_np[dsts]
        self._f_src_terminal[rows] = srcs
        self._f_origin_creation[rows] = creation
        self._f_measured[rows] = measured
        self._f_vc_off[rows] = 0
        self._f_pkt[rows] = np.arange(
            self._packet_counter, self._packet_counter + count, dtype=np.int64
        )
        self._f_decided[rows] = False
        self._packet_counter += count
        return rows

    # ------------------------------------------------------------------
    # Once-per-run hooks of Simulator.run()
    # ------------------------------------------------------------------
    def _finalise_measurement(self) -> None:
        # The int64 latencies are narrowed to the column with a range check.
        self._samples = LatencySamples(
            memoryview(np.concatenate(self._sample_latency)),
            np.concatenate(self._sample_minimal),
        )
        self._global_flits = self._global_flit_counts.tolist()

    # ------------------------------------------------------------------
    # Phase 1: arrivals
    # ------------------------------------------------------------------
    def _deliver_arrivals(self, now: int) -> None:
        chunks = self._arrival_ring[now % self._arrival_ring_size]
        if not chunks:
            return
        fids = _joined(chunks)
        chunks.clear()
        in_idx = self._f_in_idx[fids]
        routers = in_idx // self._rv
        prog = self._f_progress[fids]
        # One gather per arrival: the hop at ``keys[progress] + router``.
        hop = self._hop_table[self._f_keys[fids, prog] + routers]
        port = hop[:, 0]
        port = np.where(port < 0, self._terminal_port_np[self._f_dst[fids]], port)
        self._f_next_progress[fids] = prog + hop[:, 2]
        p_idx = routers * self._radix + port
        is_net = self._is_network[p_idx]
        out_idx = p_idx * self._vcs + hop[:, 1] + self._f_vc_off[fids] * is_net
        # Several arrivals may share an output port: scatter-add.
        np.add.at(
            self._occupancy,
            np.concatenate((p_idx, out_idx + self._pending.shape[0])),
            1,
        )
        np.add.at(self._buf_count, in_idx, 1)
        self._out_fifo.append(out_idx, fids)
        if self._credit_delay_enabled:
            ctq = self._ctq
            for pi in p_idx[is_net].tolist():
                ctq[pi].append(now)

    # ------------------------------------------------------------------
    # Phase 1b: credit delivery (batched scatter-add)
    # ------------------------------------------------------------------
    def _deliver_credits(self, now: int) -> None:
        chunks = self._credit_ring[now % self._credit_ring_size]
        if self._credit_delay_enabled:
            # UGAL-L_CR's round-trip sensing pops per-event CTQ stamps
            # and maintains running minima -- inherently sequential, so
            # the scalar loop keeps it: hand it this cycle's events in
            # its own (credit slot, upstream port) layout.
            overflow = self._credit_overflow.pop(now, None)
            if overflow:
                chunks.extend(overflow)
            if chunks:
                events = _joined(chunks)
                chunks[:] = zip(
                    events.tolist(), (events // self._vcs).tolist()
                )
                super()._deliver_credits(now)
            return
        if chunks:
            np.add.at(self._credits, _joined(chunks), 1)
            chunks.clear()

    # ------------------------------------------------------------------
    # Phase 2: injection
    # ------------------------------------------------------------------
    def _inject(self, now: int) -> None:
        """Batched decide, wave-ordered commit (module docstring).

        New packets join their source FIFOs; every non-empty FIFO's head
        is visited.  Heads without a pinned decision get one from
        :meth:`DecideTables.batch_decide` (one rejection-sampled Valiant
        draw per inter-group decider, in ascending-terminal order), the
        UGAL comparisons finish wave by wave against live occupancy, and
        every head whose injection slot has room commits.
        """
        src = self._src_fifo
        if not self._bulk_mode:
            config = self.config
            draws = self._np_traffic.random_sample(self._num_terminals)
            inj = (draws < config.load / config.packet_size).nonzero()[0]
            if inj.shape[0]:
                lowering = self._traffic_lowering
                if lowering is not None:
                    # Ascending injecting terminals == the order the
                    # scalar loop calls ``pattern(terminal)``, so one
                    # batched draw replays the cycle's destinations.
                    dsts = lowering.batch(inj)
                else:
                    dsts = np.fromiter(
                        map(self.pattern, inj.tolist()), np.int64, inj.shape[0]
                    )
                tagged = self._measure_start <= now < self._measure_end
                src.append_distinct(
                    inj, self._new_packets(inj, dsts, now, tagged)
                )
                if tagged:
                    self._outstanding_tagged += inj.shape[0]
        visits = (src.head >= 0).nonzero()[0]
        count = visits.shape[0]
        if count == 0:
            return
        heads = src.head[visits]
        routers = self._terminal_router_np[visits]
        num_ports = self._pending.shape[0]

        # Decide the fresh heads; candidate A goes onto the rows at once
        # (it is the decision unless a comparison picks B below).
        fresh = (~self._f_decided[heads]).nonzero()[0]
        compares = np.zeros(count, dtype=np.bool_)
        if fresh.shape[0]:
            fresh_rows = heads[fresh]
            batch = self._tables.batch_decide(
                self._mt_route, routers[fresh], self._f_dst_router[fresh_rows]
            )
            self._f_decided[fresh_rows] = True
            self._f_keys[fresh_rows] = batch.a_keys
            self._f_minimal[fresh_rows] = batch.a_min
            compares[fresh] = batch.mode

        # Both candidates' first hop and commit footprint,
        # candidate-major: flat position ``c * count + i`` is visit ``i``
        # taking candidate ``c``.  Only comparing visits have a
        # meaningful candidate 1 (elsewhere its key 0 reads some row).
        keys2 = np.zeros((2, count), dtype=np.int64)
        keys2[0] = self._f_keys[heads, 0]
        any_compare = bool(compares.any())
        if any_compare:
            keys2[1, fresh] = batch.b_keys[:, 0]
        hop2 = self._hop_table[keys2 + routers]
        port2 = hop2[:, :, 0]
        port2 = np.where(
            port2 < 0, self._terminal_port_np[self._f_dst[heads]], port2
        )
        vc2 = hop2[:, :, 1]
        in2 = self._inject_base_np[visits] + vc2
        has_room = (self._buf_count[in2] < self._depth).ravel()
        p2 = routers * self._radix + port2
        out2 = p2 * self._vcs + vc2
        if self._request_reply:
            # Ungated on the row: the network-VC offset applies per hop,
            # only on network channels (zero must mean "request class").
            out2 += self._f_vc_off[heads] * self._is_network[p2]
        in_flat = in2.ravel()
        advance_flat = hop2[:, :, 2].ravel()
        # Occupancy-buffer indices a commit increments: its output port
        # and its output (port, VC) slot.
        footprint = np.stack((p2.ravel(), out2.ravel() + num_ports))
        occupancy = self._occupancy
        choice = np.zeros(count, dtype=np.int64)

        if not any_compare:
            # Nothing reads occupancy this cycle: one wave.
            taken = has_room[:count].nonzero()[0]
            np.add.at(occupancy, footprint[:, taken], 1)
        else:
            qa = np.zeros(count, dtype=np.int64)
            qb = np.zeros(count, dtype=np.int64)
            hm = np.zeros(count, dtype=np.int64)
            hn = np.zeros(count, dtype=np.int64)
            qa[fresh] = batch.qa + num_ports * batch.use_vc
            qb[fresh] = batch.qb + num_ports * batch.use_vc
            hm[fresh] = batch.hm
            hn[fresh] = batch.hn
            # Wave = comparing visits at or before this one in its
            # domain.  Domains are runs of ``visits`` (terminals are
            # numbered router by router, group by group).
            domain = visits // self._domain_size
            running = np.cumsum(compares)
            opens = np.empty(count, dtype=np.bool_)
            opens[0] = True
            np.not_equal(domain[1:], domain[:-1], out=opens[1:])
            before_domain = (running - compares)[opens]
            wave = running - before_domain[np.cumsum(opens) - 1]
            for k in range(int(wave.max()) + 1):
                members = (wave == k).nonzero()[0]
                takes_b = compares[members] & (
                    occupancy[qa[members]] * hm[members]
                    > occupancy[qb[members]] * hn[members]
                )
                choice[members] = takes_b
                taken = members + count * takes_b
                taken = taken[has_room[taken]]
                np.add.at(occupancy, footprint[:, taken], 1)
            # Comparisons that picked the Valiant candidate re-pin it.
            picked_b = choice[fresh].nonzero()[0]
            if picked_b.shape[0]:
                rows = heads[fresh[picked_b]]
                self._f_keys[rows] = batch.b_keys[picked_b]
                self._f_minimal[rows] = False

        # Commit, ascending terminals: heads with room leave their
        # source FIFO for the output queue of their first hop.
        flat = np.arange(count) + count * choice
        flat = flat[has_room[flat]]
        if flat.shape[0] == 0:
            return
        fids = src.pop(visits[flat % count])
        in_idx = in_flat[flat]
        self._buf_count[in_idx] += 1
        self._f_progress[fids] = 0
        self._f_next_progress[fids] = advance_flat[flat]
        self._f_in_idx[fids] = in_idx
        self._f_up_credit[fids] = -1
        self._f_on_global[fids] = False
        self._out_fifo.append(footprint[1, flat] - num_ports, fids)
        if self._credit_delay_enabled:
            ctq = self._ctq
            p_idx = footprint[0, flat]
            for pi in p_idx[self._is_network[p_idx]].tolist():
                ctq[pi].append(now)

    # ------------------------------------------------------------------
    # Phase 3: switch (vectorized arbitration, ordered batch tail)
    # ------------------------------------------------------------------
    def _arbitrate(self):
        """Batched output-port arbitration over the active set.

        Returns ``(ports, vc_sel, out_idx)`` -- winners in ascending
        flat-port order with their pending/credit/round-robin updates
        already applied -- or ``None`` when nothing forwards.  Decisions
        are independent within a cycle (each port reads and writes only
        its own slots), so batching cannot reorder anything observable.
        """
        # Ascending flat-port order is the scalar visit order (sorted
        # routers, ascending ports), which sample ordering and the
        # golden fixtures depend on.
        act = self._pending.nonzero()[0]
        if act.shape[0] == 0:
            return None
        vcs = self._vcs
        credits = self._credits
        pending_vc = self._pending_vc
        # A VC can forward iff it has queued flits and (ejection port,
        # or downstream credit available) -- the scalar loop's
        # conditions verbatim, evaluated for every slot at once.
        eligible = (pending_vc > 0) & (
            self._slot_needs_no_credit | (credits > 0)
        )
        # Round-robin VC probe, all active ports at once: at each offset
        # of the rotation, a port still unselected takes that VC if it
        # is eligible.
        rr = self._rr_vc[act]
        slot_base = act * vcs
        selected_vc = np.full(act.shape[0], -1, dtype=np.int64)
        for offset in range(vcs):
            vc = rr + offset
            vc -= vcs * (vc >= vcs)
            take = eligible[slot_base + vc] & (selected_vc < 0)
            selected_vc = np.where(take, vc, selected_vc)
        chosen = selected_vc >= 0
        if not chosen.any():
            return None
        ports = act[chosen]
        vc_sel = selected_vc[chosen]
        out_idx = ports * vcs + vc_sel
        # Batched bookkeeping: each selected port forwards exactly one
        # flit, network ports additionally consume one downstream
        # credit, and the round-robin pointer advances past the winner.
        pending_vc[out_idx] -= 1
        self._pending[ports] -= 1
        credits[out_idx] -= self._is_network[ports]
        next_rr = vc_sel + 1
        next_rr[next_rr >= vcs] = 0
        self._rr_vc[ports] = next_rr
        return ports, vc_sel, out_idx

    def _return_credits(
        self, now: int, ports: np.ndarray, fa: np.ndarray, is_net: np.ndarray
    ) -> None:
        """Schedule the upstream credit of every forwarded row."""
        upc = self._f_up_credit[fa]
        offsets = self._f_up_lat[fa]
        size = self._credit_ring_size
        ring = self._credit_ring
        if not self._credit_delay_enabled:
            # The offset is the upstream latency, always within the
            # ring, and takes only a few distinct values.  Distinct
            # offsets land in distinct slots (latencies differ by less
            # than the ring size).
            for offset in self._distinct_lats:
                credits = upc[(upc >= 0) & (offsets == offset)]
                if credits.shape[0]:
                    ring[(now + offset) % size].append(credits)
            return
        # UGAL-L_CR: credits that do not cross a global channel are
        # delayed by the round-trip excess of the port the row leaves
        # through, which can push them past the ring horizon.
        excess = self._td[ports] - self._td_min[ports // self._radix]
        delayed = is_net & ~self._f_on_global[fa] & (excess > 0)
        offsets = offsets + np.where(
            delayed, (self._credit_gain * excess).astype(np.int64), 0
        )
        valid = upc >= 0
        upc = upc[valid]
        offsets = offsets[valid]
        for offset in sorted(set(offsets.tolist())):
            credits = upc[offsets == offset]
            if offset <= size:
                ring[(now + offset) % size].append(credits)
            else:
                self._credit_overflow.setdefault(now + offset, []).append(
                    credits
                )

    def _switch(self) -> None:
        won = self._arbitrate()
        if won is None:
            return
        ports, vc_sel, out_idx = won
        now = self.now
        measuring = self._measure_start <= now < self._measure_end
        fa = self._out_fifo.pop(out_idx)
        # Two winners may vacate the same input slot (scatter-subtract).
        np.subtract.at(self._buf_count, self._f_in_idx[fa], 1)
        is_net = self._is_network[ports]
        # Upstream credit returns read the rows' upstream columns
        # *before* the forward stores below overwrite them.
        self._return_credits(now, ports, fa, is_net)
        # Forwards: batched column stores, then ring appends grouped by
        # latency (distinct latencies land in distinct slots).
        fwd = is_net.nonzero()[0]
        if fwd.shape[0]:
            fwd_f = fa[fwd]
            fwd_p = ports[fwd]
            lat = self._ch_lat[fwd_p]
            glob = self._ch_glob[fwd_p]
            self._f_progress[fwd_f] = self._f_next_progress[fwd_f]
            self._f_up_credit[fwd_f] = out_idx[fwd]
            self._f_up_lat[fwd_f] = lat
            self._f_on_global[fwd_f] = glob
            self._f_in_idx[fwd_f] = self._ch_dbase[fwd_p] + vc_sel[fwd]
            if measuring:
                # Winners are distinct ports, hence distinct channels.
                self._global_flit_counts[self._ch_cidx[fwd_p[glob]]] += 1
            for latency in self._distinct_lats:
                arriving = fwd_f[lat == latency]
                if arriving.shape[0]:
                    self._arrival_ring[
                        (now + latency) % self._arrival_ring_size
                    ].append(arriving)
        ej = (~is_net).nonzero()[0]
        if ej.shape[0]:
            self._eject_rows(now, ports[ej], fa[ej], measuring)

    def _eject_rows(
        self, now: int, ports: np.ndarray, fids: np.ndarray, measuring: bool
    ) -> None:
        """Scalar eject semantics over rows, in ascending port order
        (sample order is part of bit-identity)."""
        dst = self._f_dst[fids]
        misrouted = (self._eject_terminal_np[ports] != dst).nonzero()[0]
        if misrouted.shape[0]:
            first = int(misrouted[0])
            p_idx = int(ports[first])
            raise SimulatorStateError(
                f"packet {int(self._f_pkt[fids[first]])} for terminal "
                f"{int(dst[first])} ejected at router {p_idx // self._radix} "
                f"port {p_idx % self._radix} (misrouted)"
            )
        self._flits_delivered += fids.shape[0]
        if measuring:
            self._ejected_flits_in_window += fids.shape[0]
        if self._request_reply:
            # A request stays open until its reply lands: its row turns
            # into the reply at the destination NIC, keeping the
            # *request's* creation time -- the only thing the latency
            # sample at reply ejection needs from the request.
            is_request = self._f_vc_off[fids] == 0
            requests = fids[is_request]
            fids = fids[~is_request]
            if requests.shape[0]:
                repliers = dst[is_request]
                askers = self._f_src_terminal[requests]
                self._f_dst[requests] = askers
                self._f_dst_router[requests] = self._dst_router_np[askers]
                self._f_src_terminal[requests] = repliers
                self._f_vc_off[requests] = 3
                self._f_pkt[requests] = np.arange(
                    self._packet_counter,
                    self._packet_counter + requests.shape[0],
                    dtype=np.int64,
                )
                self._f_decided[requests] = False
                self._packet_counter += requests.shape[0]
                self._src_fifo.append_distinct(repliers, requests)
        sampled = fids[self._f_measured[fids]]
        if sampled.shape[0]:
            self._outstanding_tagged -= sampled.shape[0]
            self._sample_latency.append(
                now + self._terminal_latency - self._f_origin_creation[sampled]
            )
            self._sample_minimal.append(self._f_minimal[sampled])
        stop = self._free_count + fids.shape[0]
        self._free[self._free_count:stop] = fids
        self._free_count = stop
