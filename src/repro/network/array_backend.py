"""Batched numpy engine for the cycle-accurate simulator.

:class:`ArraySimulator` is the decide-kernel engine behind the same
:class:`~repro.network.config.SimulationConfig`, the same routing
algorithms and the same :class:`~repro.network.stats.SimulationResult`
as the scalar reference.  It exists for the paper's 1056-node default
scale (``p = h = 4, a = 8``) and beyond, where the scalar engine's
per-terminal and per-port Python overhead dominates the run time.

It runs exactly the configurations
:func:`~repro.network.decide_kernel.kernel_ineligibility` accepts --
single-flit packets, a registry routing, the canonical single-link
dragonfly -- and refuses everything else at construction.
:func:`repro.network.backend.make_simulator` is the selection point: an
ineligible ``backend="array"`` request gets the scalar engine, with the
reason logged and recorded in the result's provenance.

Flits are *integers* indexing columnar numpy state, and the per-packet
routing layer is replaced by the table lowering of
:mod:`repro.network.decide_kernel`:

* **Route decisions** batch per cycle: the Valiant intermediate-group
  draws replay the route rng's exact Mersenne-Twister stream
  (:class:`~repro.network.decide_kernel.VectorizedMT19937`), candidate
  first hops and UGAL hop counts come from dense per-group-pair tables,
  and only the final ``q_m * H_m <= q_nm * H_nm`` comparison stays
  sequential -- it must, because decisions earlier in the same cycle
  enqueue flits that change the occupancies later decisions read.
* **Hop advancement** in arrivals and the switch becomes numpy gathers
  over per-flit hop-key columns instead of per-flit executor calls.
* Per-packet objects survive only where observable: source queues hold
  real :class:`~repro.network.packet.Packet` objects until injection
  (blocked heads keep their decided plan exactly as the scalar engine
  does), and latency samples / spawned replies are reconstructed from
  flit columns at ejection, in the scalar engine's eject order.

What stays bit-identical, and why
---------------------------------

* **Traffic Bernoulli draws** transplant the Mersenne-Twister state of
  the traffic :class:`random.Random` into a
  :class:`numpy.random.RandomState` (both derive 53-bit doubles from
  two 32-bit words the same way) -- the batched row of doubles is equal
  bit for bit to the scalar per-terminal draws, asserted on a probe at
  construction.
* **Route decisions** consume the route rng word-for-word as the scalar
  inlined rejection loop does, in the same ascending-terminal order,
  and the occupancy comparison reads the same live counters at the same
  point of the injection scan.
* **Switch arbitration** batches only decisions that are independent
  within a cycle (each output port touches its own queues, credits and
  round-robin pointer); the per-flit tail work runs in ascending
  flat-port order -- precisely the scalar visit order -- so sample
  order, ring order and every downstream FIFO order match.
* **Credit delivery** applies as one duplicate-safe scatter-add per
  cycle (plain path; UGAL-L_CR's round-trip sensing stays per event).
"""

from __future__ import annotations

import random
from itertools import chain
from typing import Callable, Dict, List

import numpy as np

from ..routing.base import RoutingAlgorithm
from ..topology.dragonfly import Dragonfly
from .config import SimulationConfig
from .decide_kernel import (
    KERNEL_NAME,
    DecideTables,
    VectorizedMT19937,
    kernel_ineligibility,
    lower_traffic,
)
from .packet import Packet
from .simulator import Simulator, SimulatorStateError
from .stats import LatencySample


def transplant_rng(rng: random.Random) -> np.random.RandomState:
    """A numpy RandomState continuing ``rng``'s exact double stream.

    CPython's :class:`random.Random` and numpy's legacy
    :class:`~numpy.random.RandomState` both run MT19937 and both build
    ``random()`` doubles as ``((a >> 5) * 2^26 + (b >> 6)) / 2^53`` from
    two consecutive 32-bit outputs, so copying the 624-word key and
    position reproduces the scalar stream bit for bit.
    """
    state = rng.getstate()
    if state[0] != 3:  # pragma: no cover - CPython's only current version
        raise RuntimeError(
            f"unsupported random.Random state version {state[0]}"
        )
    keys = np.asarray(state[1][:-1], dtype=np.uint32)
    pos = state[1][-1]
    np_rng = np.random.RandomState()
    np_rng.set_state(("MT19937", keys, pos))
    return np_rng


#: Per-flit columnar state of the decide kernel.  A flit is an int id
#: indexing these; ids are recycled through a free list at ejection.
_FLIT_COLUMNS = (
    ("dst", np.int64),              # destination terminal
    ("dst_router", np.int64),       # its router (gather-friendly)
    ("hop0", np.int64),             # phase-0 hop-table key, -1 if none
    ("hop1", np.int64),             # phase-1 hop-table key, -1 if none
    ("minimal", np.bool_),          # RoutePlan.minimal of the decision
    ("measured", np.bool_),         # tagged for latency sampling
    ("progress", np.int64),         # global hops taken
    ("next_progress", np.int64),    # progress after the queued hop
    ("in_idx", np.int64),           # input VC slot holding the flit
    ("up_credit", np.int64),        # upstream credit slot, -1 at source
    ("up_pidx", np.int64),          # upstream flat port (CR sensing)
    ("up_lat", np.int64),           # upstream channel latency
    ("on_global", np.bool_),        # arrived over a global channel
    ("vc_off", np.int64),           # 3 * vc_class network-VC offset
    ("origin_creation", np.int64),  # creation time of the sample origin
    ("src_terminal", np.int64),     # source terminal (reply addressing)
    ("pkt", np.int64),              # packet index (error messages)
)


class ArraySimulator(Simulator):
    """Batched numpy implementation of the simulator engine."""

    def __init__(
        self,
        topology: Dragonfly,
        routing: RoutingAlgorithm,
        pattern: Callable[[int], int],
        config: SimulationConfig,
    ) -> None:
        reason = kernel_ineligibility(config, topology, routing)
        if reason is not None:
            raise ValueError(
                f"ArraySimulator cannot run this configuration ({reason}); "
                "make_simulator(backend='array') selects the scalar engine "
                "for it"
            )
        super().__init__(topology, routing, pattern, config)
        # Counters the hot phases scan or scatter-add wholesale become
        # int64 arrays: the switch probe reads ``_credits`` /
        # ``_pending_vc`` / ``_rr_vc`` for every active port at once,
        # and ``_pending`` / ``_buf_count`` batch-update everywhere but
        # the sequential UGAL q-compare.  The fingerprint and sanitizer
        # consume them through ``_as_tuple``-style iteration, which
        # handles numpy transparently.
        self._credits = np.asarray(self._credits, dtype=np.int64)
        self._pending_vc = np.asarray(self._pending_vc, dtype=np.int64)
        self._rr_vc = np.asarray(self._rr_vc, dtype=np.int64)
        self._pending = np.asarray(self._pending, dtype=np.int64)
        self._buf_count = np.asarray(self._buf_count, dtype=np.int64)
        #: True per flat port that has a network channel (ejection and
        #: unwired ports need no credit to forward).
        self._is_network = np.asarray(
            [info is not None for info in self._channel_info], dtype=bool
        )
        self._port_shifts = np.arange(self._radix, dtype=np.int64)
        #: Busy terminals: source queue non-empty.  Injection visits
        #: busy terminals plus this cycle's Bernoulli winners instead of
        #: scanning all N.
        self._busy = np.asarray(
            [bool(queue) for queue in self._source_queue], dtype=bool
        )
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
        #: Batched destination draws for the lowered random patterns
        #: (``None`` keeps the per-packet ``pattern(src)`` call).  The
        #: transplant is sound because every destination draw goes
        #: through the batched injection pass.
        self._traffic_lowering = lower_traffic(self.pattern)

        num_ports = self._num_routers * self._radix
        ch_dstr = np.zeros(num_ports, np.int64)
        ch_dbase = np.zeros(num_ports, np.int64)
        ch_lat = np.zeros(num_ports, np.int64)
        ch_glob = np.zeros(num_ports, np.bool_)
        ch_cidx = np.zeros(num_ports, np.int64)
        for idx, info in enumerate(self._channel_info):
            if info is not None:
                ch_dstr[idx] = info[0]
                ch_dbase[idx] = info[1]
                ch_lat[idx] = info[2]
                ch_glob[idx] = info[3]
                ch_cidx[idx] = info[4]
        self._ch_dstr = ch_dstr
        self._ch_dbase = ch_dbase
        self._ch_lat = ch_lat
        self._ch_glob = ch_glob
        self._ch_cidx = ch_cidx
        #: The handful of distinct channel latencies (local vs global,
        #: typically two) -- the switch phase groups its ring appends by
        #: latency value instead of calling np.unique per cycle.
        self._distinct_lats = sorted(
            {int(lat) for lat, net in zip(ch_lat, self._is_network) if net}
        )
        self._dst_router_np = np.asarray(self._dst_router, np.int64)
        self._terminal_router_np = np.asarray(self._terminal_router, np.int64)
        # Flit columns: free-list allocation, capacity doubling.
        self._f_cap = 0
        self._f_next = 0
        self._f_free: List[int] = []
        self._grow_columns(4096)

    def backend_provenance(self) -> Dict[str, str]:
        return {"backend": "array", "kernel": KERNEL_NAME}

    def _grow_columns(self, need: int) -> None:
        new_cap = max(self._f_cap * 2, need, 4096)
        for name, dtype in _FLIT_COLUMNS:
            attr = "_f_" + name
            old = getattr(self, attr, None)
            grown = np.zeros(new_cap, dtype)
            if old is not None:
                grown[: self._f_cap] = old
            setattr(self, attr, grown)
        self._f_cap = new_cap

    # ------------------------------------------------------------------
    # Phase 1: arrivals
    # ------------------------------------------------------------------
    def _deliver_arrivals(self, now: int) -> None:
        batch = self._arrival_ring[now % self._arrival_ring_size]
        if not batch:
            return
        n = len(batch)
        arr = np.fromiter(
            chain.from_iterable(batch), np.int64, count=3 * n
        ).reshape(n, 3)
        routers = arr[:, 0]
        in_idx = arr[:, 1]
        fids = arr[:, 2]
        tables = self._tables
        a = tables.a
        p = tables.p
        radix = self._radix
        prog = self._f_progress[fids]
        hk0 = self._f_hop0[fids]
        hk1 = self._f_hop1[fids]
        dst = self._f_dst[fids]
        dstr = self._f_dst_router[fids]
        li = routers % a
        cond0 = (prog == 0) & (hk0 >= 0)
        cond1 = (prog == 1) & (hk1 >= 0)
        # Final phase: eject at the destination router, else the direct
        # local hop toward it on the final-stage VC.
        same = routers == dstr
        dl = dstr % a
        fin_port = np.where(same, dst % p, p + dl - (dl > li))
        fin_vc = np.where(same, 0, np.int64(tables.final_local_vc))
        # Hop-table gathers (keys < 0 wrap to harmless in-range garbage,
        # masked out by the phase conditions).
        i0 = hk0 * a + li
        i1 = hk1 * a + li
        port = np.where(
            cond0,
            tables.hop0_port[i0],
            np.where(cond1, tables.hop1_port[i1], fin_port),
        )
        vc = np.where(
            cond0,
            tables.hop0_vc[i0],
            np.where(cond1, tables.hop1_vc[i1], fin_vc),
        )
        # Local and terminal ports never advance progress; global ports
        # (the top of the port range) always do.
        nprog = prog + (port >= p + a - 1)
        p_idx = routers * radix + port
        is_net = self._is_network[p_idx]
        out_vc = vc + self._f_vc_off[fids] * is_net
        out_idx = p_idx * self._vcs + out_vc
        self._f_in_idx[fids] = in_idx
        self._f_next_progress[fids] = nprog
        # Order-insensitive counter updates batch as scatter-adds; the
        # FIFO appends stay a (minimal) loop in batch order == scalar
        # order.  Port activation only needs the ports whose pending
        # count crosses zero, read *before* the scatter.
        np.add.at(self._pending_vc, out_idx, 1)
        np.add.at(self._buf_count, in_idx, 1)
        pending = self._pending
        # Ports whose pending count crosses zero, read before the
        # scatter; duplicates (two flits to one idle port) are fine --
        # the activation below is idempotent.
        newly = p_idx[pending[p_idx] == 0]
        np.add.at(pending, p_idx, 1)
        if newly.size:
            active_mask = self._active_mask
            active_routers = self._active_routers
            for pi in newly.tolist():
                router, out_port = divmod(pi, radix)
                mask = active_mask[router]
                if not mask:
                    active_routers.add(router)
                active_mask[router] = mask | (1 << out_port)
        out_q = self._out_q
        for oi, fid in zip(out_idx.tolist(), fids.tolist()):
            out_q[oi].append(fid)
        if self._credit_delay_enabled:
            ctq = self._ctq
            for pi, net in zip(p_idx.tolist(), is_net.tolist()):
                if net:
                    ctq[pi].append(now)
        batch.clear()

    # ------------------------------------------------------------------
    # Phase 1b: credit delivery (batched scatter-add)
    # ------------------------------------------------------------------
    def _deliver_credits(self, now: int) -> None:
        if self._credit_delay_enabled:
            # UGAL-L_CR's round-trip sensing pops per-event CTQ stamps
            # and maintains running minima -- inherently sequential, so
            # the scalar path keeps it.
            return super()._deliver_credits(now)
        batch = self._credit_ring[now % self._credit_ring_size]
        if self._credit_overflow:
            overflow = self._credit_overflow.pop(now, None)
            if overflow:
                batch.extend(overflow)
        if not batch:
            return
        np.add.at(
            self._credits,
            np.asarray([event[0] for event in batch], dtype=np.intp),
            1,
        )
        batch.clear()

    # ------------------------------------------------------------------
    # Phase 2: injection
    # ------------------------------------------------------------------
    def _inject(self, now: int) -> None:
        """Batched decide, sequential commit.

        Pass A walks the visit set in ascending-terminal order creating
        this cycle's packets (pattern rng order preserved) and collects
        the queue heads that still need a route decision.  Pass B
        lowers all of those decisions at once
        (:meth:`DecideTables.batch_decide` -- one rejection-sampled
        Valiant draw per inter-group decider, in visit order).  Pass C
        revisits the terminals in the same order, finishing each UGAL
        decision with two live occupancy reads and committing the
        injection; the pending counters update inline because the next
        decision may read them.
        """
        busy = self._busy
        source_queue = self._source_queue
        if self._bulk_mode:
            visits_l = np.nonzero(busy)[0].tolist()
            if not visits_l:
                return
            deciders: List[int] = []
            dec_dsts: List[int] = []
            for terminal in visits_l:
                q = source_queue[terminal]
                if q and q[0].plan is None:
                    deciders.append(terminal)
                    dec_dsts.append(q[0].dst_terminal)
        else:
            config = self.config
            packet_prob = config.load / config.packet_size
            draws = self._np_traffic.random_sample(self._num_terminals)
            injecting = draws < packet_prob
            visits = np.nonzero(injecting | busy)[0]
            if visits.size == 0:
                return
            pattern = self.pattern
            tagged_window = self._measure_start <= now < self._measure_end
            counter = self._packet_counter
            visits_l = visits.tolist()
            deciders = []
            dec_dsts = []
            lowering = self._traffic_lowering
            batched_dsts = None
            if lowering is not None:
                # Ascending injecting terminals == the order the scalar
                # loop below calls ``pattern(terminal)``, so one batched
                # draw replays the whole cycle's destinations.
                inj = np.nonzero(injecting)[0]
                if inj.size:
                    batched_dsts = lowering.batch(inj).tolist()
            di = 0
            for terminal, injects in zip(
                visits_l, injecting[visits].tolist()
            ):
                if injects:
                    if batched_dsts is None:
                        dst = pattern(terminal)
                    else:
                        dst = batched_dsts[di]
                        di += 1
                    packet = Packet(
                        counter, terminal, dst, now, 1,
                        None, tagged_window,
                    )
                    counter += 1
                    source_queue[terminal].append(packet)
                q = source_queue[terminal]
                if q and q[0].plan is None:
                    deciders.append(terminal)
                    dec_dsts.append(q[0].dst_terminal)
            if tagged_window:
                self._outstanding_tagged += counter - self._packet_counter
            self._packet_counter = counter

        if deciders:
            dsts = np.asarray(dec_dsts, np.int64)
            b = self._tables.batch_decide(
                self._mt_route,
                self._terminal_router_np[deciders],
                dsts,
                self._dst_router_np[dsts],
            )
            # Candidate A rows as ready-made decision tuples (zip runs
            # in C; indexing one list beats six in the hot loop below).
            a_dec = list(
                zip(b.a_port, b.a_vc, b.a_hk0, b.a_hk1, b.a_min, b.a_key)
            )
            mode = b.mode
            use_vc = b.use_vc
            qa = b.qa
            qb = b.qb
            hm = b.hm
            hn = b.hn
            b_port = b.b_port
            b_vc = b.b_vc
            b_hk0 = b.b_hk0
            b_hk1 = b.b_hk1
            b_key = b.b_key

        # Pass C: sequential injection attempts, ascending terminals.
        tables = self._tables
        pending = self._pending
        pending_vc = self._pending_vc
        buf_count = self._buf_count
        depth = self._depth
        inject_base = self._inject_base
        terminal_router = self._terminal_router
        radix = self._radix
        vcs = self._vcs
        p_cut = tables.p + tables.a - 1  # first global port
        channel_info = self._channel_info
        credit_delay = self._credit_delay_enabled
        ctq = self._ctq
        out_q = self._out_q
        active_mask = self._active_mask
        active_routers = self._active_routers
        free = self._f_free
        next_id = self._f_next
        di = 0
        rows: List[tuple] = []
        # ndarray.item() returns plain Python ints -- the per-visit
        # reads below then run int arithmetic instead of boxed numpy
        # scalar ufunc calls (3-4x faster at this call volume).
        bc_item = buf_count.item
        pd_item = pending.item
        pv_item = pending_vc.item
        for terminal in visits_l:
            q = source_queue[terminal]
            if not q:
                busy[terminal] = False
                continue
            packet = q[0]
            if packet.plan is None:
                # Consume decision ``di``; finish UGAL against the live
                # occupancy counters (mutated by earlier iterations).
                if mode[di]:
                    if use_vc[di]:
                        q_a = pv_item(qa[di])
                        q_b = pv_item(qb[di])
                    else:
                        q_a = pd_item(qa[di])
                        q_b = pd_item(qb[di])
                    if q_a * hm[di] <= q_b * hn[di]:
                        decision = a_dec[di]
                    else:
                        decision = (
                            b_port[di], b_vc[di], b_hk0[di], b_hk1[di],
                            False, b_key[di],
                        )
                else:
                    decision = a_dec[di]
                di += 1
                fresh = True
            else:
                decision = packet.hop_assignment[-1]
                fresh = False
            port, vc, hk0, hk1, minimal, key = decision
            in_idx = inject_base[terminal] + vc
            if depth - bc_item(in_idx) < 1:
                if fresh:
                    # Blocked: pin the decision on the packet exactly as
                    # the scalar engine pins the decided plan, so the
                    # retry neither redraws rng nor re-reads occupancy.
                    packet.plan = tables.plan_for(key, minimal)
                    packet.hop_assignment[-1] = decision
                busy[terminal] = True
                continue
            q.popleft()
            router = terminal_router[terminal]
            p_idx = router * radix + port
            vc_class = packet.vc_class
            if vc_class and channel_info[p_idx] is not None:
                out_idx = p_idx * vcs + vc + 3 * vc_class
            else:
                out_idx = p_idx * vcs + vc
            if credit_delay and channel_info[p_idx] is not None:
                ctq[p_idx].append(now)
            buf_count[in_idx] = bc_item(in_idx) + 1
            if free:
                fid = free.pop()
            else:
                fid = next_id
                next_id += 1
            out_q[out_idx].append(fid)
            count = pd_item(p_idx) + 1
            pending[p_idx] = count
            if count == 1:
                mask = active_mask[router]
                if not mask:
                    active_routers.add(router)
                active_mask[router] = mask | (1 << port)
            pending_vc[out_idx] = pv_item(out_idx) + 1
            busy[terminal] = bool(q)
            request = packet.request
            rows.append((
                fid, packet.dst_terminal, hk0, hk1, minimal,
                packet.measured, in_idx, port,
                # Ungated network-VC offset: the channel gate applies
                # per hop (in arrivals); zero must mean "request class".
                3 * vc_class,
                request.creation_time if request is not None
                else packet.creation_time,
                packet.src_terminal, packet.index,
            ))
        self._f_next = next_id
        if not rows:
            return
        if next_id > self._f_cap:
            self._grow_columns(next_id)
        (
            c_fid, c_dst, c_hk0, c_hk1, c_min, c_meas,
            c_in, c_port, c_voff, c_orig, c_src, c_pkt,
        ) = zip(*rows)
        # Batched column writes (fancy-index stores beat ~17 scalar
        # numpy writes per flit by an order of magnitude).
        fa = np.asarray(c_fid, np.int64)
        dst_a = np.asarray(c_dst, np.int64)
        self._f_dst[fa] = dst_a
        self._f_dst_router[fa] = self._dst_router_np[dst_a]
        self._f_hop0[fa] = c_hk0
        self._f_hop1[fa] = c_hk1
        self._f_minimal[fa] = c_min
        self._f_measured[fa] = c_meas
        self._f_progress[fa] = 0
        self._f_next_progress[fa] = np.asarray(c_port, np.int64) >= p_cut
        self._f_in_idx[fa] = c_in
        self._f_up_credit[fa] = -1
        self._f_on_global[fa] = False
        self._f_vc_off[fa] = c_voff
        self._f_origin_creation[fa] = c_orig
        self._f_src_terminal[fa] = c_src
        self._f_pkt[fa] = c_pkt

    # ------------------------------------------------------------------
    # Phase 3: switch (vectorized arbitration, ordered per-flit tail)
    # ------------------------------------------------------------------
    def _arbitrate(self):
        """Batched output-port arbitration over the active set.

        Returns ``(ports, vc_sel, out_idx)`` -- winners in ascending
        flat-port order with their pending/credit/round-robin updates
        already applied -- or ``None`` when nothing forwards.  Decisions
        are independent within a cycle (each port reads and writes only
        its own slots), so batching cannot reorder anything observable.
        """
        active = self._active_routers
        if not active:
            return None
        radix = self._radix
        masks = self._active_mask
        # Snapshot the active ports in ascending flat-port order -- the
        # scalar visit order (sorted routers, ascending ports), which
        # sample ordering and the golden fixtures depend on.  Expanding
        # the per-router bitmasks as a (router, port) bit matrix keeps
        # the scan in numpy: 2-D nonzero yields row-major order, i.e.
        # exactly the ascending (router, port) sequence.
        routers = np.fromiter(active, np.int64, len(active))
        routers.sort()
        mask_arr = np.asarray([masks[r] for r in routers.tolist()], np.int64)
        ri, pi = np.nonzero((mask_arr[:, None] >> self._port_shifts) & 1)
        act = routers[ri] * radix + pi
        vcs = self._vcs
        credits = self._credits
        pending_vc = self._pending_vc
        rr = self._rr_vc[act]
        slot_base = act * vcs
        needs_no_credit = ~self._is_network[act]
        # Round-robin VC probe, all active ports at once: for each
        # offset in the rotation, a port still unselected takes this VC
        # iff the VC has queued flits and (ejection port, or downstream
        # credit available) -- the scalar loop's conditions verbatim.
        selected_vc = np.full(act.size, -1, dtype=np.int64)
        for offset in range(vcs):
            vc = rr + offset
            vc[vc >= vcs] -= vcs
            slot = slot_base + vc
            take = (
                (selected_vc < 0)
                & (pending_vc[slot] > 0)
                & (needs_no_credit | (credits[slot] > 0))
            )
            selected_vc[take] = vc[take]
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
        credits[out_idx] -= self._is_network[ports]
        next_rr = vc_sel + 1
        next_rr[next_rr >= vcs] = 0
        self._rr_vc[ports] = next_rr
        return ports, vc_sel, out_idx

    def _switch(self) -> None:
        won = self._arbitrate()
        if won is None:
            return
        ports, vc_sel, out_idx = won
        radix = self._radix
        now = self.now
        measuring = self._measure_start <= now < self._measure_end
        out_q = self._out_q
        # Dequeue in ascending port order; pending decrements batch
        # (each winner is a distinct port) and only ports drained to
        # zero need the active-set walk.
        fa = np.asarray(
            [out_q[slot].popleft() for slot in out_idx.tolist()], np.int64
        )
        pending = self._pending
        pending[ports] -= 1
        drained = ports[pending[ports] == 0]
        if drained.size:
            masks = self._active_mask
            active = self._active_routers
            for p_idx in drained.tolist():
                router, out_port = divmod(p_idx, radix)
                left = masks[router] & ~(1 << out_port)
                masks[router] = left
                if not left:
                    active.discard(router)
        np.subtract.at(self._buf_count, self._f_in_idx[fa], 1)
        # Upstream credit returns, in port order over every winner
        # (ejecting flits return credits too).  Gather the upstream
        # columns *before* the forward stores below overwrite them.
        upc = self._f_up_credit[fa]
        upp = self._f_up_pidx[fa]
        upl = self._f_up_lat[fa]
        is_net = self._is_network[ports]
        credit_ring = self._credit_ring
        credit_ring_size = self._credit_ring_size
        if self._credit_delay_enabled:
            # Per-event path: the round-trip excess adjustment can push
            # a credit past the ring horizon, and offsets vary per port.
            td = self._td
            td_min = self._td_min
            credit_gain = self._credit_gain
            upc_l = upc.tolist()
            upp_l = upp.tolist()
            upl_l = upl.tolist()
            og_l = self._f_on_global[fa].tolist()
            net_l = is_net.tolist()
            for j, p_idx in enumerate(ports.tolist()):
                credit_idx = upc_l[j]
                if credit_idx < 0:
                    continue
                offset = upl_l[j]
                if net_l[j] and not og_l[j]:
                    excess = td[p_idx] - td_min[p_idx // radix]
                    if excess > 0:
                        offset += int(credit_gain * excess)
                if offset <= credit_ring_size:
                    credit_ring[(now + offset) % credit_ring_size].append(
                        (credit_idx, upp_l[j])
                    )
                else:
                    overflow = self._credit_overflow
                    batch = overflow.get(now + offset)
                    if batch is None:
                        overflow[now + offset] = [(credit_idx, upp_l[j])]
                    else:
                        batch.append((credit_idx, upp_l[j]))
        else:
            # Plain path: the offset is the upstream latency, always
            # within the ring, and takes only a few distinct values --
            # group by value and bulk-append.  Distinct offsets land in
            # distinct slots (latencies differ by less than the ring
            # size), so each slot receives its events in port order.
            valid = np.nonzero(upc >= 0)[0]
            if valid.size:
                upcv = upc[valid]
                uppv = upp[valid]
                uplv = upl[valid]
                for offset in self._distinct_lats:
                    sel = uplv == offset
                    if sel.any():
                        credit_ring[(now + offset) % credit_ring_size].extend(
                            zip(upcv[sel].tolist(), uppv[sel].tolist())
                        )
        # Forwards: batched column stores, then ring appends grouped by
        # latency (same distinct-slot argument as the credits above).
        fwd = np.nonzero(is_net)[0]
        if fwd.size:
            fwd_f = fa[fwd]
            fwd_p = ports[fwd]
            lat = self._ch_lat[fwd_p]
            glob = self._ch_glob[fwd_p]
            self._f_progress[fwd_f] = self._f_next_progress[fwd_f]
            self._f_up_credit[fwd_f] = out_idx[fwd]
            self._f_up_pidx[fwd_f] = fwd_p
            self._f_up_lat[fwd_f] = lat
            self._f_on_global[fwd_f] = glob
            if measuring:
                global_flits = self._global_flits
                for channel_index in self._ch_cidx[fwd_p[glob]].tolist():
                    global_flits[channel_index] += 1
            arrival_ring = self._arrival_ring
            arrival_ring_size = self._arrival_ring_size
            dstr = self._ch_dstr[fwd_p]
            din = self._ch_dbase[fwd_p] + vc_sel[fwd]
            for latency in self._distinct_lats:
                sel = lat == latency
                if sel.any():
                    arrival_ring[(now + latency) % arrival_ring_size].extend(
                        zip(
                            dstr[sel].tolist(),
                            din[sel].tolist(),
                            fwd_f[sel].tolist(),
                        )
                    )
        # Ejections: scalar eject semantics from flit columns, in
        # ascending port order (sample order is part of bit-identity).
        ej = np.nonzero(~is_net)[0]
        if ej.size:
            ej_f = fa[ej]
            ej_p_l = ports[ej].tolist()
            dst_l = self._f_dst[ej_f].tolist()
            meas_l = self._f_measured[ej_f].tolist()
            min_l = self._f_minimal[ej_f].tolist()
            orig_l = self._f_origin_creation[ej_f].tolist()
            src_l = self._f_src_terminal[ej_f].tolist()
            voff_l = self._f_vc_off[ej_f].tolist()
            pkt_l = self._f_pkt[ej_f].tolist()
            eject_terminal = self._eject_terminal
            terminal_latency = self._terminal_latency
            request_reply = self._request_reply
            samples = self._samples
            source_queue = self._source_queue
            busy = self._busy
            eject_time = now + terminal_latency
            for j, p_idx in enumerate(ej_p_l):
                dst = dst_l[j]
                if eject_terminal[p_idx] != dst:
                    raise SimulatorStateError(
                        f"packet {pkt_l[j]} for terminal {dst} ejected at "
                        f"router {p_idx // radix} port {p_idx % radix} "
                        "(misrouted)"
                    )
                if request_reply and voff_l[j] == 0:
                    # The request stays open until its reply lands;
                    # spawn the reply at the destination NIC.  The
                    # reply's creation_time carries the *request's*
                    # creation forward -- the only thing the latency
                    # sample at reply ejection needs from the request.
                    reply = Packet(
                        self._packet_counter, dst, src_l[j], orig_l[j], 1,
                        None, meas_l[j], 1,
                    )
                    self._packet_counter += 1
                    source_queue[dst].append(reply)
                    busy[dst] = True
                elif meas_l[j]:
                    self._outstanding_tagged -= 1
                    samples.append(
                        LatencySample(
                            latency=eject_time - orig_l[j],
                            minimal=min_l[j],
                        )
                    )
            self._flits_delivered += len(ej_p_l)
            if measuring:
                self._ejected_flits_in_window += len(ej_p_l)
            self._f_free.extend(ej_f.tolist())
