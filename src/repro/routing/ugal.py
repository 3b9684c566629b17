"""The UGAL family of global adaptive routing algorithms (Section 4.2/4.3).

UGAL chooses between the minimal route and one sampled Valiant route on a
packet-by-packet basis, estimating the delay of each candidate as
``queue_occupancy x hop_count`` and picking the smaller:

    if q_m * H_m <= q_nm * H_nm:  route minimally
    else:                         route non-minimally

The variants differ only in *which queue* supplies ``q``:

``UGAL-L``
    Occupancy of the candidate's first-hop output port at the source
    router (all VCs).  Realisable, but the dragonfly makes this signal
    *indirect*: the congested queue is a global channel on a different
    router, sensed only after backpressure fills the local buffers --
    limited throughput (Problem I) and high intermediate latency
    (Problem II).
``UGAL-G``
    Occupancy of the candidate's *global channel* at the router that owns
    it -- an ideal oracle requiring knowledge of remote queues.
``UGAL-L_VC``
    As UGAL-L but reading only the candidate's first-hop VC (VC1 carries
    minimal, VC0 non-minimal traffic), separating the two classes when
    they share an output port.  Fixes WC throughput, loses ~30% UR
    throughput (a single VC is a poor congestion proxy when most traffic
    is minimal).
``UGAL-L_VCH``
    Hybrid: per-VC occupancies only when the two candidates share the
    first-hop output port, whole-port occupancies otherwise.  Matches
    UGAL-G throughput on both UR and WC.
``UGAL-L_CR``
    UGAL-L_VCH plus the credit round-trip latency mechanism (Section
    4.3.2): the simulator measures credit round-trip time per output,
    and delays returned credits by the excess over the zero-load value,
    which stiffens backpressure so congestion is sensed without filling
    entire buffers.  Fixes the intermediate-latency spike; behaviour
    becomes independent of buffer depth.
"""

from __future__ import annotations

import random
from typing import Tuple

from ..network.packet import RoutePlan
from ..topology.dragonfly import Dragonfly
from .base import CongestionView, RoutingAlgorithm
from .paths import (
    _minimal_plan_between,
    _valiant_plan_between,
    minimal_plan,
    next_hop,
)


class _UgalBase(RoutingAlgorithm):
    """Shared candidate construction and comparison logic."""

    kernel_decide = "ugal"

    @staticmethod
    def _first_hop(
        topology: Dragonfly,
        src_router: int,
        plan: RoutePlan,
        dst_terminal: int,
    ) -> Tuple[int, int]:
        """Memoised ``next_hop(topology, src_router, plan, 0, dst)``.

        When source and destination group differ (the only case that
        reaches ``_occupancies``), the first hop is the executor's gc1
        phase -- a pure function of (plan contents, source router),
        independent of the destination terminal.  The cache lives on
        the plan itself (``RoutePlan.first_hops``), so entries can
        never be confused across topologies or outlive the plan.
        """
        if plan.gc1 is None:
            return next_hop(topology, src_router, plan, 0, dst_terminal)
        cache = plan.first_hops
        if cache is None:
            cache = plan.first_hops = {}
        hop = cache.get(src_router)
        if hop is None:
            hop = next_hop(topology, src_router, plan, 0, dst_terminal)
            cache[src_router] = hop
        return hop

    def decide(
        self,
        view: CongestionView,
        topology: Dragonfly,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> RoutePlan:
        dst_router = topology.terminal_router(dst_terminal)
        # group_of, inlined: every group-structured topology here defines
        # it as integer division by the group size ``a``.
        a = topology.a
        src_group = src_router // a
        dst_group = dst_router // a
        if src_group == dst_group:
            return minimal_plan(topology, rng, src_router, dst_terminal)
        min_candidate = _minimal_plan_between(
            topology, rng, src_router, dst_router, src_group, dst_group
        )
        nm_candidate = _valiant_plan_between(
            topology, rng, src_router, dst_router, src_group, dst_group
        )
        if nm_candidate.minimal:
            # The sampled intermediate group was the destination group;
            # the "non-minimal" candidate is the minimal route.
            return min_candidate
        # plan_hops, unrolled: both candidates are inter-group, so the
        # minimal route has gc1 and the non-degenerate Valiant route has
        # gc1 and gc2 -- the hop counts reduce to endpoint comparisons.
        gc_min = min_candidate.gc1
        hops_min = (
            1
            + (gc_min.src_router != src_router)
            + (gc_min.dst_router != dst_router)
        )
        gc_nm1 = nm_candidate.gc1
        gc_nm2 = nm_candidate.gc2
        hops_nm = (
            2
            + (gc_nm1.src_router != src_router)
            + (gc_nm1.dst_router != gc_nm2.src_router)
            + (gc_nm2.dst_router != dst_router)
        )
        q_min, q_nm = self._occupancies(
            view, topology, src_router, dst_terminal, min_candidate, nm_candidate
        )
        if q_min * hops_min <= q_nm * hops_nm:
            return min_candidate
        return nm_candidate

    def _occupancies(
        self,
        view: CongestionView,
        topology: Dragonfly,
        src_router: int,
        dst_terminal: int,
        min_candidate: RoutePlan,
        nm_candidate: RoutePlan,
    ) -> Tuple[int, int]:
        raise NotImplementedError


class UgalL(_UgalBase):
    """UGAL with local whole-port queue information (conventional UGAL)."""

    name = "UGAL-L"
    kernel_signal = "port"

    def _occupancies(self, view, topology, src_router, dst_terminal,
                     min_candidate, nm_candidate):
        port_min, _ = self._first_hop(topology, src_router, min_candidate, dst_terminal)
        port_nm, _ = self._first_hop(topology, src_router, nm_candidate, dst_terminal)
        return (
            view.output_occupancy(src_router, port_min),
            view.output_occupancy(src_router, port_nm),
        )


class UgalG(_UgalBase):
    """Ideal UGAL: reads the candidate global channels' queues directly."""

    name = "UGAL-G"
    kernel_signal = "remote"

    def _occupancies(self, view, topology, src_router, dst_terminal,
                     min_candidate, nm_candidate):
        gc_min = min_candidate.gc1
        gc_nm = nm_candidate.gc1
        if gc_min is None or gc_nm is None:
            raise ValueError(
                "UGAL-G compares two inter-group candidates; a candidate "
                "without a first global channel reached _occupancies"
            )
        return (
            view.output_occupancy(gc_min.src_router, gc_min.src_port),
            view.output_occupancy(gc_nm.src_router, gc_nm.src_port),
        )


class UgalLVc(_UgalBase):
    """UGAL-L with per-VC queue discrimination on every decision."""

    name = "UGAL-L_VC"
    kernel_signal = "vc"

    def _occupancies(self, view, topology, src_router, dst_terminal,
                     min_candidate, nm_candidate):
        port_min, vc_min = self._first_hop(topology, src_router, min_candidate, dst_terminal)
        port_nm, vc_nm = self._first_hop(topology, src_router, nm_candidate, dst_terminal)
        return (
            view.output_vc_occupancy(src_router, port_min, vc_min),
            view.output_vc_occupancy(src_router, port_nm, vc_nm),
        )


class UgalLVcH(_UgalBase):
    """Hybrid: per-VC occupancy only when the candidates share a port."""

    name = "UGAL-L_VCH"
    kernel_signal = "vc_hybrid"

    def _occupancies(self, view, topology, src_router, dst_terminal,
                     min_candidate, nm_candidate):
        port_min, vc_min = self._first_hop(topology, src_router, min_candidate, dst_terminal)
        port_nm, vc_nm = self._first_hop(topology, src_router, nm_candidate, dst_terminal)
        if port_min == port_nm:
            return (
                view.output_vc_occupancy(src_router, port_min, vc_min),
                view.output_vc_occupancy(src_router, port_nm, vc_nm),
            )
        return (
            view.output_occupancy(src_router, port_min),
            view.output_occupancy(src_router, port_nm),
        )


class UgalLCr(UgalLVcH):
    """UGAL-L_VCH + credit round-trip latency backpressure (UGAL-L_CR)."""

    name = "UGAL-L_CR"
    needs_credit_delay = True


def make_routing(name: str) -> RoutingAlgorithm:
    """Factory by paper name, e.g. ``make_routing("UGAL-L_CR")``.

    ``TBL-MIN`` simulates minimal routing off detour-recompiled
    forwarding tables on the healthy fabric; ``TBL-MIN/gcK`` degrades
    the fabric first by severing K disjoint group pairs (the canonical
    degradation of :func:`repro.topology.faults.canonical_global_faults`)
    -- the executor of the fault-sweep experiment.
    """
    from .minimal import MinimalRouting
    from .valiant import ValiantRouting

    if name == "TBL-MIN" or name.startswith("TBL-MIN/gc"):
        from .tables import DegradedTableRouting

        fault_pairs = 0
        if name != "TBL-MIN":
            suffix = name[len("TBL-MIN/gc"):]
            if not suffix.isdigit():
                raise ValueError(
                    f"unknown routing algorithm {name!r}; degraded table "
                    "routings are named TBL-MIN or TBL-MIN/gcK for an "
                    "integer number K of severed group pairs"
                )
            fault_pairs = int(suffix)
        return DegradedTableRouting(fault_pairs=fault_pairs)

    algorithms = {
        "MIN": MinimalRouting,
        "VAL": ValiantRouting,
        "UGAL-L": UgalL,
        "UGAL-G": UgalG,
        "UGAL-L_VC": UgalLVc,
        "UGAL-L_VCH": UgalLVcH,
        "UGAL-L_CR": UgalLCr,
    }
    if name not in algorithms:
        raise ValueError(
            f"unknown routing algorithm {name!r}; choose from "
            f"{sorted(algorithms) + ['TBL-MIN', 'TBL-MIN/gcK']}"
        )
    return algorithms[name]()
