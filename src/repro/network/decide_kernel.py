"""Batched route-decision kernel for the array backend.

The scalar simulator makes one :meth:`RoutingAlgorithm.decide` call per
injected packet -- at the Figure 9 operating points that is ~200 Python
calls per cycle, each walking plan memos, hop caches and occupancy
getters.  This module lowers the registry routing algorithms
(MIN / VAL / the UGAL family) into dense integer tables so the array
backend can resolve *every* injecting terminal's decision for a cycle
with a handful of numpy gathers, bit-identically to the scalar path:

* :class:`VectorizedMT19937` transplants the route rng's Mersenne
  Twister state into numpy's own MT19937 and replays
  ``getrandbits``-based rejection sampling in batches, so the Valiant
  intermediate-group draws consume the generator word-for-word as the
  scalar inlined loop in
  :func:`repro.routing.paths._valiant_plan_between` does;
* :class:`DecideTables` precomputes, per ordered group pair, the unique
  global link and the first-hop (port, VC) of both route phases for all
  ``a`` source routers of a group, using the canonical VC assignment --
  a decision then reduces to index arithmetic;
* :meth:`DecideTables.batch_decide` evaluates one cycle's decisions as
  arrays end to end (:class:`DecideBatch`), returning per-decider
  candidate hops plus, for UGAL, the two queue indices and hop counts of
  the ``q_m * H_m <= q_nm * H_nm`` comparison.  The comparison is the
  only intra-cycle dependency of injection, and it is *domain closed*:
  the indices it reads never leave the decider's source router
  (``kernel_signal`` ``port`` / ``vc`` / ``vc_hybrid``:
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

Eligibility is deliberately conservative (:func:`kernel_ineligibility`):
exact registry classes on the canonical single-link dragonfly with
single-flit packets.  Anything else runs on the scalar engine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..routing import vc_assignment as vcs
from ..routing.minimal import MinimalRouting
from ..routing.ugal import UgalG, UgalL, UgalLCr, UgalLVc, UgalLVcH
from ..routing.valiant import ValiantRouting
from ..topology.dragonfly import Dragonfly, group_link_matrix

#: Version tag stamped into backend provenance and
#: :class:`~repro.network.backend.EquivalenceContract.decide_kernel`.
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

    def getrandbits(self, k: int) -> int:
        """Scalar ``getrandbits`` for ``0 < k <= 32`` (tests only)."""
        if not 0 < k <= 32:
            raise ValueError("k must be in (0, 32]")
        return self.next_word() >> (32 - k)

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

#: Exact routing classes the kernel can lower.  ``type(routing) in`` --
#: never ``isinstance`` -- so a subclass that overrides ``decide`` or
#: ``_occupancies`` is not silently mis-lowered.
_KERNEL_ROUTINGS = (
    MinimalRouting,
    ValiantRouting,
    UgalL,
    UgalG,
    UgalLVc,
    UgalLVcH,
    UgalLCr,
)


def kernel_ineligibility(config, topology, routing) -> Optional[str]:
    """Why the decide kernel cannot run this configuration, or ``None``.

    The returned string is human-readable; ``make_simulator`` logs it
    and records it on the simulator so fallbacks are never silent.
    """
    if getattr(config, "packet_size", 1) != 1:
        return f"multi-flit packets (packet_size={config.packet_size})"
    if type(topology) is not Dragonfly:
        return (
            f"topology {type(topology).__name__} is not the canonical "
            "Dragonfly"
        )
    if type(routing) not in _KERNEL_ROUTINGS:
        return f"routing {type(routing).__name__} has no kernel lowering"
    if routing.kernel_decide is None:
        return f"routing {routing.name} declares no kernel_decide"
    if not getattr(topology, "single_link_pairs", False):
        return "multiple global links per group pair"
    if group_link_matrix(topology) is None:
        return "some group pair lacks a unique global link"
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
    never ``isinstance``, for the same reason as ``_KERNEL_ROUTINGS``):
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

    Candidate fields: ``port``/``vc`` is the first hop at the source
    router (raw VC, before the vc-class offset); ``hk0``/``hk1`` are the
    per-phase hop-table keys carried on the flit (-1 when the phase does
    not apply); ``a_min`` mirrors ``RoutePlan.minimal``.  Candidate B
    and the comparison fields are meaningful only where ``mode`` is true
    (elsewhere they hold in-range filler), and B is always the
    non-degenerate Valiant candidate (``minimal`` false).
    """

    mode: np.ndarray
    use_vc: np.ndarray
    qa: np.ndarray
    qb: np.ndarray
    hm: np.ndarray
    hn: np.ndarray
    a_port: np.ndarray
    a_vc: np.ndarray
    a_hk0: np.ndarray
    a_hk1: np.ndarray
    a_min: np.ndarray
    b_port: np.ndarray
    b_vc: np.ndarray
    b_hk0: np.ndarray
    b_hk1: np.ndarray

    @classmethod
    def resolved(
        cls,
        a_port: np.ndarray,
        a_vc: np.ndarray,
        a_hk0: np.ndarray,
        a_hk1: np.ndarray,
        a_min: np.ndarray,
    ) -> "DecideBatch":
        """A batch with no comparison left (MIN and VAL)."""
        n = a_port.shape[0]
        filler = np.zeros(n, dtype=np.int64)
        never = np.zeros(n, dtype=np.bool_)
        return cls(
            mode=never, use_vc=never,
            qa=filler, qb=filler, hm=filler, hn=filler,
            a_port=a_port, a_vc=a_vc, a_hk0=a_hk0, a_hk1=a_hk1, a_min=a_min,
            b_port=filler, b_vc=filler, b_hk0=filler, b_hk1=filler,
        )


_ZERO = np.int64(0)


class DecideTables:
    """Dense lowering of one (topology, routing, VC assignment) triple.

    Hop tables are keyed by *ordered group pair* and source-router local
    index, not by router -- ``O(g^2 a)`` entries instead of ``O(N g)``,
    which keeps the 16k-terminal machines in cache:

    ``hop0_port[(pair * 2 + m) * a + li]``
        First-phase hop (toward ``pair``'s global link) for a flit at
        local index ``li`` of the pair's source group; ``m`` is the
        plan's ``minimal`` flag (the port is identical for both, the VC
        differs).
    ``hop1_port[pair2 * a + li]``
        Second Valiant phase toward ``pair2 = ig * g + dg``'s link.

    The final phase (and intra-group routes) needs no table: the local
    port is ``p + dl - (dl > sl)`` and ejection is ``dst % p``.
    """

    def __init__(
        self,
        topology: Dragonfly,
        routing,
        num_vcs: int,
        assignment: vcs.VcAssignment = vcs.CANONICAL,
    ) -> None:
        matrix = group_link_matrix(topology)
        if matrix is None:
            raise ValueError(
                "decide tables require a unique global link per group pair"
            )
        self.kind: str = routing.kernel_decide
        self.signal: Optional[str] = routing.kernel_signal
        if self.kind not in ("min", "val", "ugal"):
            raise ValueError(f"unknown kernel_decide {self.kind!r}")
        if self.kind == "ugal" and self.signal not in (
            "port", "remote", "vc", "vc_hybrid",
        ):
            raise ValueError(f"unknown kernel_signal {self.signal!r}")
        g = topology.g
        a = topology.a
        p = topology.p
        radix = topology.params.radix
        self.g = g
        self.a = a
        self.p = p
        self.radix = radix
        self.num_vcs = int(num_vcs)
        self.final_local_vc = assignment.final_local_vc

        # Unique link per ordered pair, flattened row-major (diagonal 0s
        # are never indexed: pairs are only formed from distinct groups).
        L_src = np.zeros(g * g, np.int64)
        L_sport = np.zeros(g * g, np.int64)
        L_dst = np.zeros(g * g, np.int64)
        for sg in range(g):
            for dg in range(g):
                link = matrix[sg][dg]
                if link is not None:
                    L_src[sg * g + dg] = link.src_router
                    L_sport[sg * g + dg] = link.src_port
                    L_dst[sg * g + dg] = link.dst_router
        self.L_src = L_src
        self.L_sport = L_sport
        self.L_dst = L_dst
        #: Flat ``_pending`` index of each pair's global channel at its
        #: own router -- the UGAL-G oracle read.
        self.L_qidx = L_src * radix + L_sport

        # First-phase hop tables, built without a per-router Python
        # loop: for pair (sg, tg) and local index li of group sg, the
        # hop is the link's own port when the router *is* the gateway,
        # else the local port toward it.
        li = np.arange(a, dtype=np.int64)
        gli = (L_src % a).reshape(g, g, 1)
        gateway = gli == li.reshape(1, 1, a)
        lp = p + gli - (gli > li.reshape(1, 1, a))
        port = np.where(gateway, L_sport.reshape(g, g, 1), lp)

        def vc_table(minimal: bool, phase: int) -> np.ndarray:
            return np.where(
                gateway,
                np.int64(assignment.global_vc(minimal, phase)),
                np.int64(assignment.local_vc(minimal, phase)),
            )

        # Layout (g, g, 2, a) -> flat, m-axis ordered [nonminimal,
        # minimal] to match key = pair * 2 + minimal.
        self.hop0_port = np.repeat(
            port[:, :, None, :], 2, axis=2
        ).reshape(-1).copy()
        self.hop0_vc = np.stack(
            [vc_table(False, 0), vc_table(True, 0)], axis=2
        ).reshape(-1).copy()
        # Second Valiant phase: same ports, phase-1 nonminimal VCs.
        self.hop1_port = port.reshape(-1).copy()
        self.hop1_vc = vc_table(False, 1).reshape(-1).copy()

    def first_hop_arrays(
        self,
        srcs: np.ndarray,
        dstr: np.ndarray,
        dsts: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Final-phase first hop: intra-group (or degenerate) routes."""
        same = dstr == srcs
        dl = dstr % self.a
        sl = srcs % self.a
        port = np.where(
            same, dsts % self.p, self.p + dl - (dl > sl)
        )
        vc = np.where(same, _ZERO, np.int64(self.final_local_vc))
        return port, vc

    def batch_decide(
        self,
        stream: Optional[VectorizedMT19937],
        srcs: np.ndarray,
        dsts: np.ndarray,
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
        sli = srcs % a
        inter = sg != dg
        pair = sg * g + dg

        f_port, f_vc = self.first_hop_arrays(srcs, dstr, dsts)

        # Minimal candidate first hop (garbage on intra rows, masked).
        idx_min = (pair * 2 + 1) * a + sli
        m_port = self.hop0_port[idx_min]
        m_vc = self.hop0_vc[idx_min]

        # The minimal plan's first hop and keys: the whole decision for
        # MIN, candidate A for UGAL, the degenerate-draw case for VAL.
        none_i = np.full(n, -1, dtype=np.int64)
        min_port = np.where(inter, m_port, f_port)
        min_vc = np.where(inter, m_vc, f_vc)
        min_hk0 = np.where(inter, pair * 2 + 1, none_i)
        always = np.ones(n, dtype=np.bool_)

        kind = self.kind
        if kind == "min":
            return DecideBatch.resolved(
                a_port=min_port, a_vc=min_vc,
                a_hk0=min_hk0, a_hk1=none_i, a_min=always,
            )

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
        idx_nm = (pair1 * 2) * a + sli
        n_port = self.hop0_port[idx_nm]
        n_vc = self.hop0_vc[idx_nm]

        if kind == "val":
            return DecideBatch.resolved(
                a_port=np.where(nonmin, n_port, min_port),
                a_vc=np.where(nonmin, n_vc, min_vc),
                a_hk0=np.where(nonmin, pair1 * 2, min_hk0),
                a_hk1=np.where(nonmin, pair2, none_i),
                a_min=~nonmin,
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
            qa = (srcs * radix + m_port) * nv + m_vc
            qb = (srcs * radix + n_port) * nv + n_vc
            use_vc = np.ones(n, dtype=np.bool_)
        else:  # vc_hybrid
            use_vc = m_port == n_port
            qa = np.where(
                use_vc,
                (srcs * radix + m_port) * nv + m_vc,
                srcs * radix + m_port,
            )
            qb = np.where(
                use_vc,
                (srcs * radix + n_port) * nv + n_vc,
                srcs * radix + n_port,
            )

        return DecideBatch(
            mode=nonmin,
            use_vc=use_vc,
            qa=qa, qb=qb, hm=hm, hn=hn,
            a_port=min_port, a_vc=min_vc,
            a_hk0=min_hk0, a_hk1=none_i, a_min=always,
            b_port=n_port, b_vc=n_vc,
            b_hk0=pair1 * 2, b_hk1=pair2,
        )
