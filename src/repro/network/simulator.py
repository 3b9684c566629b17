"""Cycle-accurate flit-level dragonfly simulator.

Models the paper's evaluation vehicle (Section 4.2): single-cycle
input-queued routers with per-port virtual-channel buffers, credit-based
flow control, Bernoulli packet injection, and the warm-up / tagged
measurement window / drain methodology.

Routers are given "sufficient speedup" as in the paper -- the switch is
never the bottleneck.  Concretely: buffered flits are organised per
(output port, VC), so a flit is never blocked behind one heading to a
*different* output (no input head-of-line blocking), and each *output
port* forwards at most one flit per cycle (channel bandwidth is the only
switching constraint), round-robin over its VCs.  Buffer *space*
accounting stays on the input side: each flit occupies one slot of the
(input port, VC) buffer it arrived into, and that slot's credit returns
upstream when the flit leaves, exactly as in credit-based flow control.

Multi-flit packets use virtual cut-through allocation: each output VC
serves one packet at a time (a FIFO of per-packet flit streams), and a
head flit advances only when the downstream VC buffer has room for the
entire packet -- so a packet in flight can never stall mid-stream for
credits, and packets never interleave within a VC.

The credit round-trip latency mechanism of UGAL-L_CR (Section 4.3.2) is
implemented here: every router timestamps flits per output in a credit
time queue (CTQ) when they arrive, measures the credit round-trip time
``t_crt`` when the matching credit returns (so ``t_crt`` includes the
flit's queueing toward the output -- the congestion being sensed), stores
the excess ``t_d(O) = t_crt(O) - t_crt0(O)`` in a register, and delays
credits it returns upstream by ``gain * (t_d(O) - min_o t_d(o))``.
Credits that cross global channels are never delayed, which keeps the
expensive global channels fully utilisable and breaks feedback cycles.

Engine organisation (see ``docs/simulator-performance.md``): the core
loop is *occupancy-driven* -- per-cycle work is proportional to traffic,
not machine size.  Every per-router counter lives in a flat list indexed
by precomputed bases (``router * radix * vcs + port * vcs + vc``); each
router keeps a bitmask of output ports with queued flits, and the switch
visits only those (routers with an empty mask are skipped entirely).
Channel and credit events travel through fixed-horizon calendar-queue
rings instead of hashed event maps; credit events whose delay exceeds
the ring horizon spill into an overflow map.  A terminal's source queue
is one decided head -- a :class:`Packet` with its route pinned -- and a
FIFO of compact ``int`` records (:class:`RecordLayout`) behind it, so a
saturated backlog costs ~40 bytes per queued packet; a record becomes a
packet in the cycle it reaches the head, which is also the cycle the
head is decided.  A head blocked on a full injection slot is retried
only once that slot has room.  All of this is behaviour preserving: the
golden fixtures under ``tests/golden/`` pin the engine's output bit for
bit.
"""

from __future__ import annotations

import random
from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from ..routing.base import RoutingAlgorithm
from ..topology.base import ChannelKind
from ..settings import Settings
from ..topology.dragonfly import Dragonfly
from .config import SimulationConfig
from .packet import Flit, Packet, RecordLayout, make_flits
from .stats import LatencySamples, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids an import cycle
    from ..check.sanitizer import SimulatorSanitizer


class SimulatorStateError(RuntimeError):
    """Internal engine state violated a flow-control invariant.

    Raised (never asserted -- library code must fail under ``python -O``
    too) by consistency checks on the hot path, and by the test suite's
    invariant check over :func:`repro.check.sanitizer.structural_findings`."""


class SimulatorStateView:
    """Backend-neutral read window onto a live engine's state.

    The conservation sanitizer (:mod:`repro.check.sanitizer`) and the
    backend-differential diagnostics read engine state exclusively
    through this view, never through backend-private fields -- so the
    same audits run unchanged against the scalar engine and the array
    backend (:mod:`repro.network.array_backend`), and a future backend
    with a different layout only has to supply a view subclass.

    Every accessor delegates to the live simulator at call time rather
    than copying: an audit sees exactly the state the engine holds at
    that instant, including any corruption a test injects in place.
    """

    __slots__ = ("_sim",)

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim

    # -- run identity ---------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self._sim.config

    @property
    def now(self) -> int:
        return self._sim.now

    # -- geometry -------------------------------------------------------
    @property
    def num_routers(self) -> int:
        return self._sim._num_routers

    @property
    def radix(self) -> int:
        return self._sim._radix

    @property
    def vcs(self) -> int:
        return self._sim._vcs

    @property
    def rv(self) -> int:
        return self._sim._rv

    @property
    def depth(self) -> int:
        return self._sim._depth

    @property
    def multi_flit(self) -> bool:
        return self._sim._multi_flit

    @property
    def channel_info(self):
        return self._sim._channel_info

    @property
    def network_ports(self):
        return self._sim._network_ports

    # -- flow-control counters (flat layouts, see class docstring) ------
    @property
    def buf_count(self):
        return self._sim._buf_count

    @property
    def credits(self):
        return self._sim._credits

    @property
    def pending(self):
        return self._sim._pending

    @property
    def pending_vc(self):
        return self._sim._pending_vc

    @property
    def rr_vc(self):
        return self._sim._rr_vc

    # -- queues, rings, streams -----------------------------------------
    @property
    def out_q(self):
        """Every output (port, VC) queue; one never appended to is ``()``."""
        return [() if queue is None else queue for queue in self._sim._out_q]

    @property
    def streams(self):
        return self._sim._streams

    @property
    def source_depths(self) -> List[int]:
        """Packets queued at each terminal: its decided head, if any,
        plus the backlog records behind it."""
        sim = self._sim
        return [
            len(backlog) + (head is not None)
            for head, backlog in zip(sim._source_head, sim._backlog)
        ]

    @property
    def inflight_injection(self):
        return self._sim._inflight_injection

    @property
    def arrival_ring(self):
        return self._sim._arrival_ring

    @property
    def credit_ring(self):
        return self._sim._credit_ring

    @property
    def credit_overflow(self):
        return self._sim._credit_overflow

    # -- measurement ----------------------------------------------------
    @property
    def packet_counter(self) -> int:
        return self._sim._packet_counter

    @property
    def flits_delivered(self) -> int:
        return self._sim._flits_delivered

    @property
    def samples(self):
        return self._sim._samples

    # -- active set -----------------------------------------------------
    # The scalar engine maintains explicit bitmasks and an active-router
    # set; the array backend derives activity from its pending array
    # (its ``ArrayStateView`` also answers the queue, stream, injection,
    # ring and sample accessors above from its arrays; the scalar
    # engine's queue objects do not exist there).
    def active_port_mask(self, router: int) -> int:
        """Bitmask of this router's output ports the engine considers
        active (bit ``p`` set iff port ``p`` has queued flits)."""
        return self._sim._active_mask[router]

    def router_marked_active(self, router: int) -> bool:
        """Whether the engine's switch phase would visit this router."""
        return router in self._sim._active_routers

#: (dst_router, dst_in_base, latency, is_global, channel_index) where
#: ``dst_in_base`` is the absolute VC-slot base of the downstream input
#: (``dst_router * radix * vcs + dst_port * vcs``), so arrival delivery
#: only adds the VC.
_ChannelInfo = Tuple[int, int, int, bool, int]

#: Extra calendar-queue slots for delayed credits beyond the maximum
#: channel round trip.  UGAL-L_CR's credit delay is unbounded in theory
#: (it scales with sensed queueing), so delays beyond the horizon fall
#: back to an overflow map -- the ring only has to catch the common case.
_CREDIT_RING_SLACK = 128


class _Stream:
    """Arrived-but-unsent flits of one packet at one output VC.

    Virtual cut-through: the stream at the *front* of an output VC's
    queue owns that VC's downstream buffer until its tail flit leaves.
    """

    __slots__ = ("packet", "flits")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self.flits: Deque[Flit] = deque()


class Simulator:
    """One simulation run binding a topology, routing algorithm, traffic
    pattern and configuration.  Also serves as the
    :class:`~repro.routing.base.CongestionView` the routing algorithms
    query."""

    def __init__(
        self,
        topology: Dragonfly,
        routing: RoutingAlgorithm,
        pattern: Callable[[int], int],
        config: SimulationConfig,
        settings: Optional[Settings] = None,
    ) -> None:
        self._init_shared(topology, routing, pattern, config, settings)
        num_routers = self._num_routers
        radix = self._radix
        vcs = self._vcs
        rv = self._rv
        num_terminals = self._num_terminals

        # Per-router state, flattened into contiguous lists indexed by
        # ``router * rv + port * vcs + vc`` (per input/output VC slot) or
        # ``router * radix + port`` (per port).  Buffer *space* is
        # accounted per input (port, VC) slot; buffered flits are
        # *queued* per output (port, VC) so the switch has no input HOL
        # blocking.  An output queue is made on its first append (most
        # slots of a large network never queue a flit); the switch reads
        # a missing one as empty.
        self._buf_count: List[int] = [0] * (num_routers * rv)
        self._out_q: List[Optional[Deque]] = [None] * (num_routers * rv)
        self._credits: List[int] = [config.vc_buffer_depth] * (num_routers * rv)
        self._pending: List[int] = [0] * (num_routers * radix)
        self._pending_vc: List[int] = [0] * (num_routers * rv)
        self._rr_vc: List[int] = [0] * (num_routers * radix)
        # Active set: per-router bitmask of output ports with queued
        # flits (a port's bit is set iff its pending counter is > 0) and
        # the set of routers whose mask is non-zero.  _enqueue/_forward
        # keep both exact, so _switch touches only occupied ports.
        self._active_mask: List[int] = [0] * num_routers
        self._active_routers: set = set()
        # Multi-flit mode: (absolute out_idx, packet index) -> the
        # packet's open stream, for appending body flits.
        self._streams: Dict[Tuple[int, int], _Stream] = {}
        # UGAL-L_CR's sensed round-trip excess t_d per (router, port).
        # ``_td_min`` caches ``min_o t_d(o)`` over each router's network
        # ports; _deliver_credits keeps it exact on every t_d update so
        # _forward never recomputes the min per forwarded flit.
        self._td: List[float] = [0.0] * (num_routers * radix)
        self._td_min: List[float] = [0.0] * num_routers
        #: Flits per directed channel index during the window (dense;
        #: converted to the sparse dict of SimulationResult at run end).
        self._global_flits: List[int] = [0] * topology.fabric.num_channels

        # Hops: the routing's memo on this topology (``HopMemo`` of
        # ``repro.routing.base``), read inline wherever a head flit is
        # queued: ``hops[packet.keys[progress] + router]``, filled on a
        # miss; port -1 ejects at the terminal's port (``_terminal_port``).
        memo = routing.hop_memo(topology)
        self._hops: Dict[int, Tuple[int, int, int]] = memo.hops
        self._hop_keys = memo.keys
        self._hop_fill = memo.fill
        #: Round-robin VC visit orders: ``_vc_order[start]`` is the full
        #: rotation starting at ``start``, precomputed so the switch
        #: avoids per-probe modular arithmetic.
        self._vc_order: List[Tuple[int, ...]] = [
            tuple((start + offset) % vcs for offset in range(vcs))
            for start in range(vcs)
        ]

        # Injection state per terminal.  A source queue is one decided
        # head -- a real Packet with its route pinned on it -- and a FIFO
        # of compact records behind it (see ``RecordLayout``); a record
        # becomes a Packet when it reaches the head.
        self._source_head: List[Optional[Packet]] = [None] * num_terminals
        #: Injection input slot of each decided head's first hop: a
        #: blocked head waits on this slot, which only the switch drains.
        self._head_slot: List[int] = [0] * num_terminals
        self._backlog: List[Deque[int]] = [deque() for _ in range(num_terminals)]
        self._records = RecordLayout(
            num_terminals,
            config.warmup_cycles + config.measure_cycles
            + config.drain_max_cycles + self._terminal_latency,
        )
        self._inflight_injection: List[Deque[Flit]] = [deque() for _ in range(num_terminals)]
        # Bulk-synchronous mode: the whole workload is queued up front.
        if self._bulk_mode:
            for terminal in range(num_terminals):
                backlog = self._backlog[terminal]
                for _ in range(config.packets_per_terminal):
                    backlog.append(self._records.pack(
                        self._packet_counter, self.pattern(terminal), 0, True
                    ))
                    self._packet_counter += 1
                    self._outstanding_tagged += 1

    def _init_shared(
        self,
        topology: Dragonfly,
        routing: RoutingAlgorithm,
        pattern: Callable[[int], int],
        config: SimulationConfig,
        settings: Optional[Settings],
    ) -> None:
        """The state every engine reads: run identity, RNGs, channel and
        terminal wiring, credit sensing, event rings, measurement
        counters and the sanitizer.  Each engine's constructor calls
        this, then builds its own counters and queues in its own layout
        (the scalar lists and deques above, the array engine's numpy
        columns)."""
        if not isinstance(topology, routing.topology_type):
            raise ValueError(
                f"routing {routing.name!r} ({type(routing).__name__}) drives a "
                f"{routing.topology_type.__name__}, not a {type(topology).__name__}"
            )
        self.topology = topology
        self.routing = routing
        self.pattern = pattern
        self.config = config
        self.now = 0
        terminal_latency = getattr(topology, "terminal_latency", 1)
        self._terminal_latency = terminal_latency
        self._rng_traffic = random.Random(config.seed)
        self._rng_route = random.Random(config.seed + 0x9E3779B9)

        num_routers = topology.fabric.num_routers
        radix = topology.fabric.max_radix()
        vcs = config.num_vcs
        rv = radix * vcs
        self._num_routers = num_routers
        self._radix = radix
        self._vcs = vcs
        self._rv = rv
        self._depth = config.vc_buffer_depth
        self._multi_flit = config.packet_size > 1
        self._request_reply = config.request_reply

        # Static wiring lookups, flat per (router * radix + port).
        self._channel_info: List[Optional[_ChannelInfo]] = [None] * (
            num_routers * radix
        )
        self._network_ports: List[List[int]] = [[] for _ in range(num_routers)]
        #: Terminal index attached at (router * radix + port), -1 if none.
        self._eject_terminal: List[int] = [-1] * (num_routers * radix)
        fabric = topology.fabric
        max_latency = 1
        for router in range(num_routers):
            for port in fabric.ports(router):
                channel = fabric.out_channel(router, port)
                if channel is None:
                    terminal = fabric.terminal_at(router, port)
                    if terminal is not None:
                        self._eject_terminal[router * radix + port] = terminal.index
                    continue
                # The router pipeline is modelled as extra per-hop
                # flight time; credits return over the same delay.
                latency = channel.latency + config.router_pipeline_cycles
                if latency < 1:
                    raise ValueError(
                        f"channel {channel.index} has non-positive hop "
                        f"latency {latency}; the engine needs >= 1 cycle"
                    )
                if latency > max_latency:
                    max_latency = latency
                self._channel_info[router * radix + port] = (
                    channel.dst.router,
                    channel.dst.router * rv + channel.dst.port * vcs,
                    latency,
                    channel.kind == ChannelKind.GLOBAL,
                    channel.index,
                )
                self._network_ports[router].append(port)

        num_terminals = topology.num_terminals
        self._num_terminals = num_terminals
        self._terminal_router = [fabric.terminals[t].router for t in range(num_terminals)]
        self._terminal_port = [fabric.terminals[t].port for t in range(num_terminals)]
        #: Absolute base of the (router, injection port) VC slots.
        self._inject_base = [
            self._terminal_router[t] * rv + self._terminal_port[t] * vcs
            for t in range(num_terminals)
        ]

        # Credit round-trip sensing (UGAL-L_CR), flat per (router, port):
        # a credit time queue of stamps and the zero-load round trip.
        # Only a routing that senses credit delay has them; every read
        # is guarded by ``_credit_delay_enabled``.
        self._credit_delay_enabled = routing.needs_credit_delay
        self._credit_gain = config.credit_delay_gain
        self._ctq: List[Deque[int]] = []
        self._tcrt0: List[int] = []
        if self._credit_delay_enabled:
            self._ctq = [deque() for _ in range(num_routers * radix)]
            # Zero-load round trip: flit flight + same-cycle downstream
            # forwarding + credit flight.  Timestamps are taken when the
            # flit is *enqueued* toward the output, so t_crt includes
            # queueing toward O at this router -- the congestion the
            # mechanism exists to sense.
            self._tcrt0 = [
                0 if info is None else 2 * info[2] for info in self._channel_info
            ]

        # Calendar-queue event wheels.  An event scheduled ``offset``
        # cycles ahead lands in slot ``(now + offset) % size``; since
        # every offset is in [1, size] and slot ``t % size`` is drained
        # at the start of cycle ``t`` (before any same-cycle scheduling),
        # slots never mix events of different cycles.  Arrival offsets
        # are channel latencies, bounded by ``max_latency``; credit
        # offsets additionally carry the UGAL-L_CR delay, so they get
        # slack plus an overflow map for delays beyond the horizon.
        # The scalar engine's slots hold event tuples, the array
        # engine's hold int64 chunks.
        self._arrival_ring_size = max_latency
        self._arrival_ring: List[list] = [[] for _ in range(max_latency)]
        self._credit_ring_size = max_latency + _CREDIT_RING_SLACK
        self._credit_ring: List[list] = [
            [] for _ in range(self._credit_ring_size)
        ]
        self._credit_overflow: Dict[int, list] = {}

        # Measurement state.
        self._packet_counter = 0
        #: Flits ejected so far (all of them, not just measured ones) --
        #: the "delivered" leg of the sanitizer's flit-conservation law.
        self._flits_delivered = 0
        self._source_queue_at_end = 0.0
        self._outstanding_tagged = 0
        self._samples = LatencySamples()
        self._ejected_flits_in_window = 0
        self._measure_start = config.warmup_cycles
        self._measure_end = config.warmup_cycles + config.measure_cycles
        # Bulk-synchronous mode: the whole workload is created up front
        # (each engine queues it) and the run completes when every
        # packet has been delivered.
        self._bulk_mode = config.packets_per_terminal is not None
        if self._bulk_mode:
            self._measure_start = 0
            self._measure_end = 0

        # Opt-in conservation sanitizer (``Settings.sanitize``); imported
        # lazily so the disabled mode never touches repro.check at all.
        settings = settings or Settings.from_env()
        self._sanitizer: Optional[SimulatorSanitizer] = None
        if settings.sanitize:
            from ..check.sanitizer import SimulatorSanitizer

            self._sanitizer = SimulatorSanitizer(settings.sanitize_stride)

    # ------------------------------------------------------------------
    # CongestionView interface (queried by routing algorithms)
    # ------------------------------------------------------------------
    def output_occupancy(self, router: int, out_port: int) -> int:
        """Queue occupancy of an output port *at this router*: flits
        buffered here that are routed to that output.

        Deliberately excludes any downstream state -- a router only learns
        about congestion elsewhere when exhausted credits stop its own
        queue from draining (backpressure).  This is exactly the
        indirect-information limitation of Section 4.3: the local queue
        ``q1`` reflects the remote global-channel queue ``q0`` only after
        ``q0`` is completely full.
        """
        return self._pending[router * self._radix + out_port]

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        """Per-VC component of :meth:`output_occupancy`."""
        return self._pending_vc[router * self._rv + out_port * self._vcs + vc]

    def state_view(self) -> SimulatorStateView:
        """Backend-neutral window onto the live engine state.

        The sanitizer's conservation laws and the backend-differential
        fingerprint read through this; a backend whose internal layout
        diverges from the flat-list reference overrides it with a view
        subclass answering the same questions.
        """
        return SimulatorStateView(self)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def backend_provenance(self) -> Dict[str, str]:
        """Engine identity stamped on every result (see ``backend_info``).

        The array backend overrides this to report its kernel variant
        and, when the decide kernel is bypassed, the fallback reason.
        """
        return {"backend": "scalar", "kernel": "none"}

    def _mean_source_queue_depth(self) -> float:
        """Mean per-terminal source-queue depth, decided heads included
        (read once per run, when the measurement window closes)."""
        depths = self.state_view().source_depths
        return sum(depths) / max(1, len(depths))

    def _finalise_measurement(self) -> None:
        """Once-per-run hook before the result is built: an engine that
        keeps ``_samples`` / ``_global_flits`` in another layout during
        the run brings them up to date here.  The scalar engine appends
        to them directly."""

    def run(self) -> SimulationResult:
        config = self.config
        limit = self._measure_end + config.drain_max_cycles
        measure_end = self._measure_end
        drained = False
        deliver_arrivals = self._deliver_arrivals
        deliver_credits = self._deliver_credits
        inject = self._inject
        switch = self._switch
        sanitizer = self._sanitizer
        for now in range(limit):
            self.now = now
            deliver_arrivals(now)
            deliver_credits(now)
            inject(now)
            switch()
            if sanitizer is not None:
                # Post-switch is a phase boundary: every conservation
                # law the sanitizer audits holds here.
                sanitizer.maybe_audit(self, now)
            if now >= measure_end:
                if now == measure_end:
                    self._source_queue_at_end = (
                        self._mean_source_queue_depth()
                    )
                if self._outstanding_tagged == 0:
                    drained = True
                    break
        if sanitizer is not None:
            # Final audit regardless of where the stride landed.
            sanitizer.audit(self)
        self._finalise_measurement()
        return SimulationResult(
            routing_name=self.routing.name,
            pattern_name=getattr(self.pattern, "name", "custom"),
            offered_load=config.load,
            num_terminals=self.topology.num_terminals,
            measure_cycles=config.measure_cycles,
            drained=drained,
            samples=self._samples,
            ejected_flits_in_window=self._ejected_flits_in_window,
            # The channels that carried a flit: (index, count) pairs
            # with a non-zero count.
            global_channel_flits=dict(
                filter(itemgetter(1), enumerate(self._global_flits))
            ),
            unfinished_tagged=self._outstanding_tagged,
            warmup_cycles=config.warmup_cycles,
            total_cycles=self.now + 1,
            avg_source_queue_at_end=self._source_queue_at_end,
            backend_info=self.backend_provenance(),
        )

    # ------------------------------------------------------------------
    # Phase 1: channel and credit deliveries
    # ------------------------------------------------------------------
    def _deliver_arrivals(self, now: int) -> None:
        batch = self._arrival_ring[now % self._arrival_ring_size]
        if not batch:
            return
        if self._multi_flit:
            enqueue = self._enqueue
            for router, in_idx, flit in batch:
                enqueue(router, in_idx, flit)
            batch.clear()
            return
        # Single-flit fast path: ``_enqueue`` inlined so the state
        # bindings are paid once per batch instead of once per flit
        # (every flit is a head flit here).  Mirrors ``_enqueue`` exactly.
        radix = self._radix
        vcs = self._vcs
        hops = self._hops
        fill = self._hop_fill
        eject_port = self._terminal_port
        channel_info = self._channel_info
        credit_delay = self._credit_delay_enabled
        ctq = self._ctq
        buf_count = self._buf_count
        out_q = self._out_q
        pending = self._pending
        pending_vc = self._pending_vc
        active_mask = self._active_mask
        active_routers = self._active_routers
        for router, in_idx, flit in batch:
            packet = flit.packet
            progress = flit.progress
            key = packet.keys[progress] + router
            hop = hops.get(key)
            if hop is None:
                hop = fill(key, packet.plan, progress, router, packet.dst_terminal)
            out_port, out_vc, advance = hop
            flit.next_progress = progress + advance
            if out_port < 0:
                out_port = eject_port[packet.dst_terminal]
            p_idx = router * radix + out_port
            if packet.vc_class and channel_info[p_idx] is not None:
                out_vc += 3 * packet.vc_class
            # (No ``hop_assignment``: single-flit packets have no body
            # flits to replay the head's decision.)
            flit.in_idx = in_idx
            if credit_delay and channel_info[p_idx] is not None:
                ctq[p_idx].append(now)
            buf_count[in_idx] += 1
            out_idx = p_idx * vcs + out_vc
            queue = out_q[out_idx]
            if queue is None:
                queue = out_q[out_idx] = deque()
            queue.append(flit)
            count = pending[p_idx] + 1
            pending[p_idx] = count
            if count == 1:
                mask = active_mask[router]
                if not mask:
                    active_routers.add(router)
                active_mask[router] = mask | (1 << out_port)
            pending_vc[out_idx] += 1
        batch.clear()

    def _deliver_credits(self, now: int) -> None:
        batch = self._credit_ring[now % self._credit_ring_size]
        if self._credit_overflow:
            overflow = self._credit_overflow.pop(now, None)
            if overflow:
                batch.extend(overflow)
        if not batch:
            return
        credits = self._credits
        if not self._credit_delay_enabled:
            for credit_idx, _ in batch:
                credits[credit_idx] += 1
        else:
            td = self._td
            radix = self._radix
            for credit_idx, port_idx in batch:
                credits[credit_idx] += 1
                ctq = self._ctq[port_idx]
                if ctq:
                    t_crt = now - ctq.popleft()
                    excess = t_crt - self._tcrt0[port_idx]
                    new = float(excess) if excess > 0 else 0.0
                    old = td[port_idx]
                    if new != old:
                        td[port_idx] = new
                        router = port_idx // radix
                        minimum = self._td_min[router]
                        if new < minimum:
                            self._td_min[router] = new
                        elif old == minimum:
                            # The old value defined the min and rose:
                            # recompute over this router's network ports.
                            base = router * radix
                            self._td_min[router] = min(
                                td[base + port]
                                for port in self._network_ports[router]
                            )
        batch.clear()

    # ------------------------------------------------------------------
    # Phase 2: injection
    # ------------------------------------------------------------------
    def _inject(self, now: int) -> None:
        heads = self._source_head
        backlogs = self._backlog
        inflight = self._inflight_injection
        inject_one = self._inject_one
        # A decided head is retried only once its injection slot has
        # room for it: only the switch drains that slot, so a blocked
        # head costs one occupancy read per cycle, not an attempt.
        head_slot = self._head_slot
        buf_count = self._buf_count
        config = self.config
        packet_size = config.packet_size
        room = self._depth - packet_size
        if self._bulk_mode:
            for terminal in range(len(heads)):
                if heads[terminal] is not None:
                    if buf_count[head_slot[terminal]] <= room:
                        inject_one(terminal, now)
                elif backlogs[terminal] or inflight[terminal]:
                    inject_one(terminal, now)
            return
        packet_prob = config.load / packet_size
        rng_random = self._rng_traffic.random
        pattern = self.pattern
        pack = self._records.pack
        tagged_window = self._measure_start <= now < self._measure_end
        counter = self._packet_counter
        for terminal in range(len(heads)):
            # The Bernoulli draw happens for every terminal every cycle
            # (the traffic stream is part of the determinism contract);
            # only the injection attempt is skipped for idle terminals.
            if rng_random() < packet_prob:
                dst = pattern(terminal)
                if tagged_window:
                    self._outstanding_tagged += 1
                if (
                    heads[terminal] is None
                    and not backlogs[terminal]
                    and not inflight[terminal]
                ):
                    # Nothing queued: the new packet is the head at
                    # once.  Positional construction (fields: index,
                    # src, dst, creation_time, size, plan, measured):
                    # kwarg binding is measurable at one packet per
                    # terminal-cycle.
                    inject_one(terminal, now, Packet(
                        counter, terminal, dst, now, packet_size, None,
                        tagged_window,
                    ))
                    counter += 1
                    continue
                backlogs[terminal].append(
                    pack(counter, dst, now, tagged_window)
                )
                counter += 1
            if heads[terminal] is not None:
                if buf_count[head_slot[terminal]] <= room:
                    inject_one(terminal, now)
            elif backlogs[terminal] or inflight[terminal]:
                inject_one(terminal, now)
        self._packet_counter = counter

    def _inject_one(
        self, terminal: int, now: int, packet: Optional[Packet] = None
    ) -> None:
        """Move at most one flit from the terminal into its router.

        ``packet`` is one created this cycle at a terminal with nothing
        queued.  Otherwise the terminal's decided head is tried, or, with
        no head, its oldest backlog record becomes the head.  A new head
        is decided here, on its first attempt; a blocked one stays the
        head with its route and injection slot pinned.
        """
        inflight = self._inflight_injection[terminal]
        router = self._terminal_router[terminal]
        base = self._inject_base[terminal]
        if inflight:
            # Continue the current packet; space was reserved at head
            # injection and only this terminal fills the buffer.
            flit = inflight.popleft()
            in_idx = base + self._body_hop(flit.packet, router)[1]
            self._enqueue(router, in_idx, flit)
            return
        if packet is None:
            packet = self._source_head[terminal]
            if packet is None:
                backlog = self._backlog[terminal]
                if not backlog:
                    return
                packet = self._records.packet(
                    backlog.popleft(), terminal, self.config.packet_size
                )
        if packet.plan is None:
            dst = packet.dst_terminal
            packet.plan = self.routing.decide(
                self, self.topology, self._rng_route, router, dst
            )
            packet.keys = self._hop_keys(packet.plan, router, dst)
        # A blocked head is retried only once its slot has room (see
        # ``_inject``), so its hop is needed every time it gets here.
        key = packet.keys[0] + router
        hop = self._hops.get(key)
        if hop is None:
            hop = self._hop_fill(key, packet.plan, 0, router, packet.dst_terminal)
        in_idx = base + hop[1]
        if self._depth - self._buf_count[in_idx] < packet.size:
            self._source_head[terminal] = packet
            self._head_slot[terminal] = in_idx
            return
        self._source_head[terminal] = None
        packet.inject_time = now
        if self._multi_flit:
            flits = make_flits(packet)
            self._enqueue(router, in_idx, flits[0])
            for body in flits[1:]:
                inflight.append(body)
            return
        # Single-flit inline enqueue (mirrors the ``_enqueue`` head path)
        # reusing the hop found above.
        flit = Flit(packet)
        out_port, out_vc, advance = hop
        flit.next_progress = advance  # progress is 0 at injection
        if out_port < 0:
            out_port = self._terminal_port[packet.dst_terminal]
        p_idx = router * self._radix + out_port
        channel = self._channel_info[p_idx]
        if packet.vc_class and channel is not None:
            # Protocol classes ride disjoint VC sets (Section 4.1); the
            # memo holds the raw hop, the offset is applied here.
            out_vc += 3 * packet.vc_class
        flit.in_idx = in_idx
        if self._credit_delay_enabled and channel is not None:
            self._ctq[p_idx].append(now)
        self._buf_count[in_idx] += 1
        out_idx = p_idx * self._vcs + out_vc
        queue = self._out_q[out_idx]
        if queue is None:
            queue = self._out_q[out_idx] = deque()
        queue.append(flit)
        pending = self._pending
        count = pending[p_idx] + 1
        pending[p_idx] = count
        if count == 1:
            mask = self._active_mask[router]
            if not mask:
                self._active_routers.add(router)
            self._active_mask[router] = mask | (1 << out_port)
        self._pending_vc[out_idx] += 1

    # ------------------------------------------------------------------
    # Phase 3: switch traversal
    # ------------------------------------------------------------------
    def _body_hop(self, packet: Packet, router: int) -> Tuple[int, int]:
        """The (out_port, out_vc) a body flit follows at ``router``: the
        one its packet's head flit took there."""
        assignment = packet.hop_assignment
        if assignment is None:
            raise SimulatorStateError(
                f"body flit of packet {packet.index} reached router "
                f"{router} before its head flit"
            )
        return assignment[router]

    def _enqueue(self, router: int, in_idx: int, flit: Flit) -> None:
        """Queue a flit of a multi-flit packet toward its output; single
        flits take the same path inlined (``_deliver_arrivals``,
        ``_inject_one``)."""
        packet = flit.packet
        if flit.is_head:
            progress = flit.progress
            key = packet.keys[progress] + router
            hop = self._hops.get(key)
            if hop is None:
                hop = self._hop_fill(
                    key, packet.plan, progress, router, packet.dst_terminal
                )
            out_port, out_vc, advance = hop
            flit.next_progress = progress + advance
            if out_port < 0:
                out_port = self._terminal_port[packet.dst_terminal]
            p_idx = router * self._radix + out_port
            if packet.vc_class and self._channel_info[p_idx] is not None:
                # Protocol classes ride disjoint VC sets (Section 4.1);
                # the memo holds the raw hop, the offset is applied here.
                out_vc += 3 * packet.vc_class
            # Body flits replay the head's hop at this router.
            assignment = packet.hop_assignment
            if assignment is None:
                assignment = packet.hop_assignment = {}
            assignment[router] = (out_port, out_vc)
        else:
            out_port, out_vc = self._body_hop(packet, router)
            p_idx = router * self._radix + out_port
        flit.in_idx = in_idx
        if self._credit_delay_enabled and self._channel_info[p_idx] is not None:
            # Credit time queue: stamp the flit toward its output now; the
            # stamp is popped when the downstream credit returns, so t_crt
            # measures queueing toward the output plus the round trip.
            self._ctq[p_idx].append(self.now)
        self._buf_count[in_idx] += 1
        out_idx = p_idx * self._vcs + out_vc
        stream_key = (out_idx, packet.index)
        if flit.is_head:
            stream = self._streams[stream_key] = _Stream(packet)
            queue = self._out_q[out_idx]
            if queue is None:
                queue = self._out_q[out_idx] = deque()
            queue.append(stream)
        else:
            stream = self._streams[stream_key]
        stream.flits.append(flit)
        pending = self._pending
        count = pending[p_idx] + 1
        pending[p_idx] = count
        if count == 1:
            mask = self._active_mask[router]
            if not mask:
                self._active_routers.add(router)
            self._active_mask[router] = mask | (1 << out_port)
        self._pending_vc[out_idx] += 1

    def _switch(self) -> None:
        active = self._active_routers
        if not active:
            return
        now = self.now
        vcs = self._vcs
        radix = self._radix
        rv = self._rv
        out_q = self._out_q
        rr_vc = self._rr_vc
        credits = self._credits
        masks = self._active_mask
        channel_info = self._channel_info
        vc_order = self._vc_order
        pending = self._pending
        pending_vc = self._pending_vc
        buf_count = self._buf_count
        streams = self._streams
        global_flits = self._global_flits
        arrival_ring = self._arrival_ring
        arrival_ring_size = self._arrival_ring_size
        credit_ring = self._credit_ring
        credit_ring_size = self._credit_ring_size
        credit_delay = self._credit_delay_enabled
        td = self._td
        td_min = self._td_min
        credit_gain = self._credit_gain
        measuring = self._measure_start <= now < self._measure_end
        eject = self._eject
        # sorted() snapshots the set (forwarding may shrink it) and
        # fixes the visit order to ascending router, ascending port --
        # the same order the dense scan used, which sample ordering
        # (and therefore the golden fixtures) depends on.
        # Two copies of the arbitration loop: the single-flit one (the
        # common case) sheds the per-flit stream bookkeeping and
        # cut-through credit checks of the multi-flit one.  Keep them in
        # lockstep when editing.
        if not self._multi_flit:
            for router in sorted(active):
                mask = masks[router]
                qbase = router * rv
                rbase = router * radix
                while mask:
                    low = mask & -mask
                    mask -= low
                    out_port = low.bit_length() - 1
                    p_idx = rbase + out_port
                    base = qbase + out_port * vcs
                    info = channel_info[p_idx]
                    for vc in vc_order[rr_vc[p_idx]]:
                        out_idx = base + vc
                        queue = out_q[out_idx]
                        if not queue:
                            continue
                        # Ejection ports sink one flit per cycle; network
                        # ports need downstream credit.
                        if info is not None and credits[out_idx] < 1:
                            continue
                        flit = queue.popleft()
                        count = pending[p_idx] - 1
                        pending[p_idx] = count
                        if not count:
                            left = masks[router] & ~low
                            masks[router] = left
                            if not left:
                                active.discard(router)
                        pending_vc[out_idx] -= 1
                        buf_count[flit.in_idx] -= 1
                        # Return the credit for the vacated buffer slot
                        # upstream (``upstream`` carries the precomputed
                        # absolute credit/port indices), possibly delayed
                        # by the credit round-trip mechanism.
                        upstream = flit.upstream
                        if upstream is not None:
                            credit_idx, up_p_idx, offset = upstream
                            if (
                                credit_delay
                                and info is not None
                                and not flit.arrived_on_global
                            ):
                                excess = td[p_idx] - td_min[router]
                                if excess > 0:
                                    offset += int(credit_gain * excess)
                            if offset <= credit_ring_size:
                                credit_ring[
                                    (now + offset) % credit_ring_size
                                ].append((credit_idx, up_p_idx))
                            else:
                                overflow = self._credit_overflow
                                batch = overflow.get(now + offset)
                                if batch is None:
                                    overflow[now + offset] = [(credit_idx, up_p_idx)]
                                else:
                                    batch.append((credit_idx, up_p_idx))
                        if info is None:
                            eject(p_idx, flit, now, measuring)
                        else:
                            dst_router, dst_base, latency, is_global, channel_index = info
                            credits[out_idx] -= 1
                            flit.progress = flit.next_progress
                            if is_global and measuring:
                                global_flits[channel_index] += 1
                            flit.upstream = (out_idx, p_idx, latency)
                            flit.arrived_on_global = is_global
                            arrival_ring[(now + latency) % arrival_ring_size].append(
                                (dst_router, dst_base + vc, flit)
                            )
                        rr_vc[p_idx] = vc + 1 if vc + 1 < vcs else 0
                        break
            return
        for router in sorted(active):
            mask = masks[router]
            qbase = router * rv
            rbase = router * radix
            while mask:
                low = mask & -mask
                mask -= low
                out_port = low.bit_length() - 1
                p_idx = rbase + out_port
                base = qbase + out_port * vcs
                info = channel_info[p_idx]
                for vc in vc_order[rr_vc[p_idx]]:
                    out_idx = base + vc
                    queue = out_q[out_idx]
                    if not queue:
                        continue
                    stream = queue[0]
                    flits = stream.flits
                    if not flits:
                        continue  # owner's next flit still in flight
                    flit = flits[0]
                    if info is not None:
                        # Ejection ports sink one flit per cycle; network
                        # ports need downstream credit -- a whole packet's
                        # worth for a virtual cut-through head flit.
                        available = credits[out_idx]
                        if flit.is_head:
                            if available < flit.packet.size:
                                continue
                        elif available < 1:
                            continue
                    # Forward the flit.  This is the innermost hot path,
                    # inlined so the state bindings above are paid once
                    # per cycle instead of once per flit.
                    flits.popleft()
                    if flit.is_tail:
                        queue.popleft()
                        del streams[(out_idx, flit.packet.index)]
                    count = pending[p_idx] - 1
                    pending[p_idx] = count
                    if not count:
                        left = masks[router] & ~low
                        masks[router] = left
                        if not left:
                            active.discard(router)
                    pending_vc[out_idx] -= 1
                    buf_count[flit.in_idx] -= 1
                    # Return the credit for the vacated buffer slot
                    # upstream (``upstream`` carries the precomputed
                    # absolute credit/port indices), possibly delayed by
                    # the credit round-trip mechanism.
                    upstream = flit.upstream
                    if upstream is not None:
                        credit_idx, up_p_idx, offset = upstream
                        if (
                            credit_delay
                            and info is not None
                            and not flit.arrived_on_global
                        ):
                            excess = td[p_idx] - td_min[router]
                            if excess > 0:
                                offset += int(credit_gain * excess)
                        if offset <= credit_ring_size:
                            credit_ring[(now + offset) % credit_ring_size].append(
                                (credit_idx, up_p_idx)
                            )
                        else:
                            overflow = self._credit_overflow
                            batch = overflow.get(now + offset)
                            if batch is None:
                                overflow[now + offset] = [(credit_idx, up_p_idx)]
                            else:
                                batch.append((credit_idx, up_p_idx))
                    if info is None:
                        eject(p_idx, flit, now, measuring)
                    else:
                        dst_router, dst_base, latency, is_global, channel_index = info
                        credits[out_idx] -= 1
                        flit.progress = flit.next_progress
                        if is_global and measuring:
                            global_flits[channel_index] += 1
                        flit.upstream = (out_idx, p_idx, latency)
                        flit.arrived_on_global = is_global
                        arrival_ring[(now + latency) % arrival_ring_size].append(
                            (dst_router, dst_base + vc, flit)
                        )
                    rr_vc[p_idx] = vc + 1 if vc + 1 < vcs else 0
                    break

    def _eject(self, p_idx: int, flit: Flit, now: int, measuring: bool) -> None:
        self._flits_delivered += 1
        if measuring:
            self._ejected_flits_in_window += 1
        if not flit.is_tail:
            return
        packet = flit.packet
        terminal_index = self._eject_terminal[p_idx]
        if terminal_index != packet.dst_terminal:
            raise SimulatorStateError(
                f"packet {packet.index} for terminal {packet.dst_terminal} "
                f"ejected at router {p_idx // self._radix} port "
                f"{p_idx % self._radix} (misrouted)"
            )
        packet.eject_time = now + self._terminal_latency
        if self._request_reply and packet.vc_class == 0:
            # The request stays open until its reply lands; spawn the
            # reply at the destination NIC, carrying the request's
            # creation time for the round-trip latency.
            self._backlog[packet.dst_terminal].append(self._records.pack(
                self._packet_counter,
                packet.src_terminal,
                now + self._terminal_latency,
                packet.measured,
                packet.creation_time,
            ))
            self._packet_counter += 1
            return
        if packet.measured:
            self._outstanding_tagged -= 1
            if packet.plan is None:
                raise SimulatorStateError(
                    f"packet {packet.index} ejected without a route plan"
                )
            origin = packet.origin_creation
            if origin is None:
                origin = packet.creation_time
            latency = packet.eject_time - origin
            self._samples.append(latency, packet.plan.minimal)


def simulate(
    topology: Dragonfly,
    routing: RoutingAlgorithm,
    pattern: Callable[[int], int],
    config: SimulationConfig,
    backend: Optional[str] = None,
) -> SimulationResult:
    """Convenience one-shot run.

    ``backend`` selects the engine implementation (``"scalar"`` or
    ``"array"``); ``None`` defers to :class:`~repro.settings.Settings`
    (default scalar).  See :mod:`repro.network.backend` for the equivalence
    contract between the engines.
    """
    from .backend import make_simulator

    return make_simulator(topology, routing, pattern, config, backend).run()
