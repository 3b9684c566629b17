"""Batched route-decision kernel for the array backend.

The scalar simulator makes one :meth:`RoutingAlgorithm.decide` call per
injected packet -- at the Figure 9 operating points that is ~200 Python
calls per cycle, each walking plan memos, hop caches and occupancy
getters.  This module lowers the dragonfly's routing rule
(:class:`~repro.routing.ugal.RuleRouting` on
:data:`~repro.routing.ugal.DRAGONFLY`: MIN, VAL and UGAL under each of
its four signals) into dense integer tables so the array
backend can resolve *every* injecting terminal's decision for a cycle
with a handful of numpy gathers, bit-identically to the scalar path:

* :class:`VectorizedMT19937` transplants the route rng's Mersenne
  Twister state into numpy's own MT19937 and replays
  ``getrandbits``-based rejection sampling in batches, so the Valiant
  intermediate-group draws consume the generator word-for-word as the
  scalar inlined loop in
  :func:`repro.routing.paths._valiant_plan_between` does;
* :class:`DecideTables` reads its hops from the topology's
  :class:`~repro.routing.paths.HopTable` -- the stages of the scalar
  engine's :class:`~repro.routing.paths.DragonflyHops` memo as one dense
  ``(port, VC, advance)`` array, built once per topology -- and adds,
  per ordered group pair, the unique global link and its stage keys, so
  a decision reduces to index arithmetic;
* :meth:`DecideTables.batch_decide` evaluates one cycle's decisions as
  arrays end to end (:class:`DecideBatch`), returning per-decider
  candidate stage keys plus, for UGAL, the two queue indices and hop
  counts of the ``q_m * H_m <= q_nm * H_nm`` comparison.  The comparison is the
  only intra-cycle dependency of injection, and it is *domain closed*:
  the indices it reads never leave the decider's source router
  (``signal`` ``port`` / ``vc`` / ``vc_hybrid``:
  ``qa = srcs * radix + m_port``) or its source group (``remote``:
  ``L_qidx[pair]`` with both pairs rooted at ``sg``), and an injection
  only ever writes occupancy at its own source router.  Terminals of
  different routers (groups) therefore commute, which is what lets
  :class:`~repro.network.array_backend.ArraySimulator` finish the
  comparisons in a few batched *waves* instead of one terminal at a
  time;
* :func:`lower_traffic` extends the same transplant to the random
  traffic patterns (uniform random, worst case, group tornado), so a
  cycle's destination draws -- one ``getrandbits`` rejection loop per
  new packet in the scalar engine -- collapse into a single
  :meth:`VectorizedMT19937.rejection_sample` call.

Eligibility (:func:`kernel_ineligibility`): single-flit packets and a
:class:`~repro.routing.ugal.RuleRouting` of the exact class on the
dragonfly family -- whose ``rule`` and ``signal`` :class:`DecideTables`
reads -- on the exact :class:`~repro.topology.dragonfly.Dragonfly` with
one global link per group pair: the assumptions ``batch_decide`` and the
hop table make.  Anything else runs on the scalar engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..routing.ugal import DRAGONFLY, RuleRouting
from ..topology.dragonfly import Dragonfly

#: Version tag stamped into backend provenance.
#: Bump when the kernel's observable behaviour changes.
KERNEL_NAME = "decide-v1"

# ----------------------------------------------------------------------
# Mersenne Twister transplant
# ----------------------------------------------------------------------

#: Words in one MT19937 state block (CPython's and numpy's ``N``).
_N = 624


def transplant_mt19937(rng: random.Random) -> np.random.MT19937:
    """numpy's :class:`~numpy.random.MT19937` bit generator standing
    where ``rng`` stands.

    numpy implements the same generator as CPython -- the same 624-word
    key, position, twist and tempering -- so once the ``(key, pos)``
    state is copied, both produce the same 32-bit words from here on.
    Raises :class:`ValueError` if the state is not the CPython version-3
    Mersenne Twister layout.
    """
    state = rng.getstate()
    if state[0] != 3 or len(state[1]) != _N + 1:
        raise ValueError(
            f"unsupported random.Random state version {state[0]!r}"
        )
    bits = np.random.MT19937(0)
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": np.array(state[1][:-1], dtype=np.uint32), "pos": state[1][-1]},
    }
    return bits


class VectorizedMT19937:
    """CPython's MT19937 stream, drawn in batches from numpy's own bit
    generator (:func:`transplant_mt19937`).

    Word ``j`` produced by this class is bit-identical to the ``j``-th
    ``getrandbits(32)`` result of the :class:`random.Random` the state
    was transplanted from, so consumers that emulate CPython's
    ``getrandbits(k)``-based sampling (``genrand_uint32() >> (32 - k)``)
    stay on the scalar generator's stream exactly -- including rejection
    sampling, where the *position* after a batch must land on the word
    following the last accepted draw.
    """

    __slots__ = ("_bits", "_rest")

    def __init__(self, bits: np.random.MT19937) -> None:
        self._bits = bits
        #: The tempered words of the current block not consumed yet.
        #: ``bits`` itself always stands at the block's end, so the
        #: stream's position is ``_N - len(_rest)`` in ``bits``' key.
        self._rest = bits.random_raw(_N - bits.state["state"]["pos"])

    @classmethod
    def from_python_rng(cls, rng: random.Random) -> "VectorizedMT19937":
        """Transplant ``rng``'s state, verifying against a probe clone.

        Raises :class:`ValueError` if the state is not the CPython
        version-3 Mersenne Twister layout or the probe words disagree
        (e.g. a ``random.Random`` subclass with different semantics).
        """
        clone = cls(transplant_mt19937(rng))
        probe = random.Random()
        probe.setstate(rng.getstate())
        for _ in range(3):
            if clone.next_word() != probe.getrandbits(32):
                raise ValueError("transplanted MT19937 diverged from probe")
        return cls(transplant_mt19937(rng))

    def _block(self) -> np.ndarray:
        """The unconsumed words, drawing the next block once none are left."""
        if not self._rest.shape[0]:
            self._rest = self._bits.random_raw(_N)
        return self._rest

    def next_word(self) -> int:
        """One 32-bit output word (scalar; tests and probe validation)."""
        word = int(self._block()[0])
        self._rest = self._rest[1:]
        return word

    # -- batched sampling ----------------------------------------------

    def rejection_sample(self, count: int, n: int) -> np.ndarray:
        """``count`` draws of ``getrandbits(k); retry while >= n``.

        Emulates the inlined rejection loop of
        :func:`repro.routing.paths._valiant_plan_between` (CPython's
        ``_randbelow_with_getrandbits``): the ``j``-th accepted word of
        the raw stream is the ``j``-th caller's draw, and the stream
        position is committed to the word *after* the last accepted one,
        so interleaving batched and scalar consumers is seamless.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        shift = np.uint64(32 - n.bit_length())
        out = np.empty(count, np.int64)
        filled = 0
        while filled < count:
            vals = self._block() >> shift
            idx = np.flatnonzero(vals < n)
            need = count - filled
            if idx.shape[0] >= need:
                out[filled:] = vals[idx[:need]]
                self._rest = self._rest[idx[need - 1] + 1:]
                break
            out[filled:filled + idx.shape[0]] = vals[idx]
            filled += idx.shape[0]
            self._rest = self._rest[:0]
        return out


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------

def kernel_ineligibility(config, topology, routing) -> Optional[str]:
    """Why the decide kernel cannot run this configuration, or ``None``.

    The returned string is human-readable; ``make_simulator`` logs it
    and records it on the simulator so fallbacks are never silent.
    """
    if getattr(config, "packet_size", 1) != 1:
        return f"multi-flit packets (packet_size={config.packet_size})"
    # batch_decide replays RuleRouting.decide on the dragonfly's plans
    # (draw order, signals) and reads the hops of its memo.  ``type(...)
    # is`` -- never ``isinstance`` -- so a subclass that overrides
    # ``decide`` or ``hop_memo`` is not silently mis-lowered.
    if not (type(routing) is RuleRouting and routing.family is DRAGONFLY):
        return (
            f"routing {routing.name!r} ({type(routing).__name__}) has no "
            "kernel lowering"
        )
    # The hop table's port arithmetic (terminal ports first, then the
    # local ports of a complete group, router ``r`` in group ``r // a``)
    # and batch_decide's hop counts are ``Dragonfly``'s own wiring; a
    # subclass may wire differently.
    if type(topology) is not Dragonfly:
        return (
            f"topology {type(topology).__name__} is not the canonical "
            "Dragonfly"
        )
    # batch_decide reads one link per group pair.  ``Dragonfly`` wires
    # every pair (it raises otherwise), so this is the whole condition.
    if not topology.single_link_pairs:
        return "multiple global links per group pair"
    return None


# ----------------------------------------------------------------------
# Traffic lowering
# ----------------------------------------------------------------------


class TrafficLowering:
    """Batched replay of a traffic pattern's per-packet destination draws.

    Construction transplants the pattern's ``random.Random`` into a
    :class:`VectorizedMT19937` without advancing the source (mirroring
    the route-rng transplant); from then on the pattern object's own rng
    stays frozen and :meth:`batch` yields exactly the destinations the
    scalar engine would have produced calling ``pattern(src)`` once per
    source in order -- the lowered patterns' inlined ``getrandbits``
    rejection loops follow the same stream discipline
    :meth:`VectorizedMT19937.rejection_sample` replays.
    """

    __slots__ = ("stream", "_fn")

    def __init__(self, stream: VectorizedMT19937, fn) -> None:
        self.stream = stream
        self._fn = fn

    def batch(self, srcs: np.ndarray) -> np.ndarray:
        """Destinations for ``srcs``, drawn in ascending-source order."""
        return self._fn(self.stream, srcs)


def lower_traffic(pattern) -> Optional[TrafficLowering]:
    """A :class:`TrafficLowering` for ``pattern``, or ``None``.

    Only the exact random pattern classes whose draw discipline is the
    inlined ``getrandbits`` rejection loop are lowered (``type`` checks,
    never ``isinstance``, for the same reason as in
    :func:`kernel_ineligibility`):
    uniform random, worst case, and group tornado (a fixed-offset worst
    case).  Every other pattern keeps the per-packet call inside the
    injection pass -- still correct, just not batched.
    """
    from .traffic import GroupTornado, UniformRandom, WorstCase

    inner = pattern
    if type(pattern) is GroupTornado:
        inner = pattern._inner
    if type(inner) is UniformRandom:
        n = inner.num_terminals - 1

        def fn(stream: VectorizedMT19937, srcs: np.ndarray) -> np.ndarray:
            # ``dst if dst < src else dst + 1``, vectorized.
            draws = stream.rejection_sample(srcs.shape[0], n)
            return draws + (draws >= srcs)

    elif type(inner) is WorstCase:
        per_group = inner._per_group
        num_groups = inner.topology.g
        offset = inner.group_offset

        def fn(stream: VectorizedMT19937, srcs: np.ndarray) -> np.ndarray:
            draws = stream.rejection_sample(srcs.shape[0], per_group)
            dst_group = (srcs // per_group + offset) % num_groups
            return dst_group * per_group + draws

    else:
        return None
    return TrafficLowering(VectorizedMT19937.from_python_rng(inner._rng), fn)


# ----------------------------------------------------------------------
# Decision batch
# ----------------------------------------------------------------------


@dataclass
class DecideBatch:
    """One cycle's lowered decisions as parallel numpy arrays.

    ``mode[i]`` false means decision ``i`` is fully resolved: take
    candidate A.  ``mode[i]`` true means a UGAL comparison remains: read
    occupancies at ``qa[i]`` / ``qb[i]`` (per-VC when ``use_vc[i]``,
    whole-port otherwise) and take A iff ``q_a * hm[i] <= q_b * hn[i]``.
    The reads are the caller's: they must see every injection committed
    earlier in the cycle *within the decider's dependency domain* (its
    source router, or its source group for the ``remote`` signal) --
    see the module docstring for why nothing outside the domain matters.

    A candidate is its plan's kernel keys (``a_keys``/``b_keys``, one
    row of three per decider, indexed by progress like the scalar
    ``Packet.keys``; trailing keys of shorter plans repeat the final
    one): every hop, the first one at the source router included, is
    ``hops[keys[progress] + router]`` in the topology's
    :class:`~repro.routing.paths.HopTable`.  ``a_min`` mirrors
    ``RoutePlan.minimal``.  Candidate B and the comparison fields are
    meaningful only where ``mode`` is true (elsewhere they hold
    in-range filler), and B is always the non-degenerate Valiant
    candidate (``minimal`` false).
    """

    mode: np.ndarray
    use_vc: np.ndarray
    qa: np.ndarray
    qb: np.ndarray
    hm: np.ndarray
    hn: np.ndarray
    a_keys: np.ndarray
    a_min: np.ndarray
    b_keys: np.ndarray

    @classmethod
    def resolved(cls, a_keys: np.ndarray, a_min: np.ndarray) -> "DecideBatch":
        """A batch with no comparison left (MIN and VAL)."""
        n = a_keys.shape[0]
        filler = np.zeros(n, dtype=np.int64)
        never = np.zeros(n, dtype=np.bool_)
        return cls(
            mode=never, use_vc=never,
            qa=filler, qb=filler, hm=filler, hn=filler,
            a_keys=a_keys, a_min=a_min, b_keys=np.zeros_like(a_keys),
        )


class DecideTables:
    """One routing's decisions on one single-link dragonfly, as arrays.

    The hops are the topology's
    :class:`~repro.routing.paths.HopTable` (:attr:`hops`), built once per
    topology by its :class:`~repro.routing.paths.DragonflyHops` and
    shared by every engine on it.  This adds, per *ordered group pair*,
    the pair's unique global link (``L_src``, ``L_dst``, and
    ``L_qidx``, the link's flat ``_pending`` index -- the UGAL-G oracle
    read) and its three stage keys ``L_keys`` (minimal phase 0, Valiant
    phase 0, Valiant phase 1), so a decision is index arithmetic.
    """

    def __init__(self, topology: Dragonfly, routing, num_vcs: int) -> None:
        self.kind: str = routing.rule
        self.signal: str = routing.signal
        if not topology.single_link_pairs:
            raise ValueError(
                "decide tables require a unique global link per group pair"
            )
        g = topology.g
        a = topology.a
        self.g = g
        self.a = a
        self.p = topology.p
        self.radix = topology.params.radix
        self.num_vcs = int(num_vcs)
        table = routing.hop_memo(topology).table
        self.hops = table.hops
        self.final_keys = table.final_keys

        # Per ordered pair, flattened row-major (the diagonal stays 0
        # and is never read unmasked: pairs of one group route within it).
        pair = (table.link_src // a) * g + table.link_dst // a

        def per_pair(column: np.ndarray) -> np.ndarray:
            out = np.zeros((g * g,) + column.shape[1:], np.int64)
            out[pair] = column
            return out

        self.L_src = per_pair(table.link_src)
        self.L_dst = per_pair(table.link_dst)
        self.L_qidx = per_pair(table.link_src * self.radix + table.link_port)
        self.L_keys = per_pair(table.link_keys)

    def batch_decide(
        self,
        stream: Optional[VectorizedMT19937],
        srcs: np.ndarray,
        dstr: np.ndarray,
    ) -> DecideBatch:
        """Lower one cycle's decisions (terminal-visit order).

        ``stream`` supplies the Valiant intermediate-group draws; it is
        consumed only for inter-group deciders under VAL/UGAL, exactly
        one accepted rejection-sample per such decider, in order.
        """
        g = self.g
        a = self.a
        n = srcs.shape[0]
        sg = srcs // a
        dg = dstr // a
        inter = sg != dg
        pair = sg * g + dg
        final = self.final_keys[dstr]

        # The minimal plan's keys: the whole decision for MIN, candidate
        # A for UGAL, the degenerate-draw case for VAL.
        min_keys = np.stack(
            (np.where(inter, self.L_keys[pair, 0], final), final, final), axis=1
        )
        always = np.ones(n, dtype=np.bool_)

        kind = self.kind
        if kind == "min":
            return DecideBatch.resolved(min_keys, always)

        # VAL and UGAL: draw an intermediate group for every inter-group
        # decider, in visit order.
        ig_full = np.zeros(n, dtype=np.int64)
        if g >= 2:
            ridx = np.nonzero(inter)[0]
            if ridx.shape[0]:
                draws = stream.rejection_sample(int(ridx.shape[0]), g - 1)
                ig = draws + (draws >= sg[ridx])
                ig_full[ridx] = ig
        degenerate = inter & (ig_full == dg)
        nonmin = inter & ~degenerate
        pair1 = sg * g + ig_full
        pair2 = ig_full * g + dg
        val_keys = np.stack(
            (self.L_keys[pair1, 1], self.L_keys[pair2, 2], final), axis=1
        )

        if kind == "val":
            return DecideBatch.resolved(
                np.where(nonmin[:, None], val_keys, min_keys), ~nonmin
            )

        # UGAL: candidate A is always the minimal plan (the resolved
        # choice on intra and degenerate rows); candidate B and the
        # queue comparison exist on non-degenerate inter rows.
        hm = (
            1
            + (self.L_src[pair] != srcs)
            + (self.L_dst[pair] != dstr)
        )
        hn = (
            2
            + (self.L_src[pair1] != srcs)
            + (self.L_dst[pair1] != self.L_src[pair2])
            + (self.L_dst[pair2] != dstr)
        )
        # Both candidates' first hop (port, VC) at the source router.
        m_hop = self.hops[min_keys[:, 0] + srcs]
        n_hop = self.hops[val_keys[:, 0] + srcs]
        m_port = m_hop[:, 0]
        n_port = n_hop[:, 0]

        signal = self.signal
        radix = self.radix
        nv = self.num_vcs
        if signal == "port":
            qa = srcs * radix + m_port
            qb = srcs * radix + n_port
            use_vc = np.zeros(n, dtype=np.bool_)
        elif signal == "remote":
            qa = self.L_qidx[pair]
            qb = self.L_qidx[pair1]
            use_vc = np.zeros(n, dtype=np.bool_)
        elif signal == "vc":
            qa = (srcs * radix + m_port) * nv + m_hop[:, 1]
            qb = (srcs * radix + n_port) * nv + n_hop[:, 1]
            use_vc = np.ones(n, dtype=np.bool_)
        else:  # vc_hybrid
            use_vc = m_port == n_port
            qa = np.where(
                use_vc,
                (srcs * radix + m_port) * nv + m_hop[:, 1],
                srcs * radix + m_port,
            )
            qb = np.where(
                use_vc,
                (srcs * radix + n_port) * nv + n_hop[:, 1],
                srcs * radix + n_port,
            )

        return DecideBatch(
            mode=nonmin,
            use_vc=use_vc,
            qa=qa, qb=qb, hm=hm, hn=hn,
            a_keys=min_keys, a_min=always,
            b_keys=val_keys,
        )
