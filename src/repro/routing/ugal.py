"""The routing rule of Section 4.2 -- MIN, VAL and UGAL -- on every family.

UGAL chooses between the minimal route and one sampled Valiant route on a
packet-by-packet basis, estimating the delay of each candidate as
``queue_occupancy x hop_count`` and picking the smaller:

    if q_m * H_m <= q_nm * H_nm:  route minimally
    else:                         route non-minimally

MIN and VAL are the rule's two fixed choices.  The UGAL variants differ
only in the *signal*, the queue that supplies ``q``:

``port`` (UGAL-L)
    Occupancy of the candidate's first-hop output port at the source
    router (all VCs).  Realisable, but the dragonfly makes this signal
    *indirect*: the congested queue is a global channel on a different
    router, sensed only after backpressure fills the local buffers --
    limited throughput (Problem I) and high intermediate latency
    (Problem II).
``remote`` (UGAL-G)
    Occupancy of the candidate's *global channel* at the router that owns
    it -- an ideal oracle requiring knowledge of remote queues.
``vc`` (UGAL-L_VC)
    As UGAL-L but reading only the candidate's first-hop VC (VC1 carries
    minimal, VC0 non-minimal traffic), separating the two classes when
    they share an output port.  Fixes WC throughput, loses ~30% UR
    throughput (a single VC is a poor congestion proxy when most traffic
    is minimal).
``vc_hybrid`` (UGAL-L_VCH)
    Per-VC occupancies only when the two candidates share the first-hop
    output port, whole-port occupancies otherwise.  Matches UGAL-G
    throughput on both UR and WC.

UGAL-L_CR is UGAL-L_VCH plus the credit round-trip latency mechanism
(Section 4.3.2): the simulator measures credit round-trip time per
output, and delays returned credits by the excess over the zero-load
value, which stiffens backpressure so congestion is sensed without
filling entire buffers.  Fixes the intermediate-latency spike;
behaviour becomes independent of buffer depth.

The rule does not depend on the topology.  A :class:`Family` record
supplies what does -- the plan builders, the route-choice predicate and
the hop memo the plans run on -- and :class:`RuleRouting` applies the
rule.  The dragonfly's record is :data:`DRAGONFLY`; the extension
families' records and names live in :mod:`repro.routing.families`,
loaded only when one of their names is asked for.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..topology.dragonfly import Dragonfly
from .base import CongestionView, HopMemo, RoutingAlgorithm
from .paths import DragonflyHops, minimal_plan, topology_memo, valiant_plan

#: ``(topology, rng, src_router, dst_router) -> plan``.
PlanBuilder = Callable[[Any, random.Random, int, int], Any]


@dataclass(frozen=True)
class Family:
    """What the routing rule needs to know about one topology family."""

    topology_type: type
    minimal: PlanBuilder
    valiant: PlanBuilder
    #: ``(topology, include_nonminimal) -> HopMemo``: the memo the
    #: family's plans run on, kept on the topology.  Its ``candidate``
    #: answers UGAL's query on a plan.
    hop_memo: Callable[[Any, bool], HopMemo]
    #: ``(topology, src_router, dst_router)`` -> True when there is no
    #: route choice to make; UGAL families only.
    no_choice: Optional[Callable[[Any, int, int], bool]] = None


def _dragonfly_hops(topology: Dragonfly, include_nonminimal: bool) -> DragonflyHops:
    """The dragonfly's :class:`DragonflyHops`, built on first use; the
    hot path reads the memo inline, as the plan memos do."""
    try:
        return topology._routing_memos[DragonflyHops]
    except (AttributeError, KeyError):
        return topology_memo(topology, DragonflyHops, DragonflyHops)


def _same_group(topology: Dragonfly, src_router: int, dst_router: int) -> bool:
    # group_of, inlined: integer division by the group size ``a``.
    return src_router // topology.a == dst_router // topology.a


#: The paper's family (Section 4.1).
DRAGONFLY = Family(
    Dragonfly, minimal_plan, valiant_plan, _dragonfly_hops, no_choice=_same_group
)

#: The rules and their UGAL signals.
RULES = ("min", "val", "ugal")
SIGNALS = ("port", "remote", "vc", "vc_hybrid")


class RuleRouting(RoutingAlgorithm):
    """One rule (``"min"``, ``"val"`` or ``"ugal"``) on one family; for
    UGAL, ``signal`` names the queue that supplies ``q`` and
    ``credit_delay`` turns on the simulator's credit round-trip sensing.
    """

    def __init__(
        self,
        name: str,
        family: Family,
        rule: str,
        signal: str = "port",
        credit_delay: bool = False,
    ) -> None:
        if rule not in RULES:
            raise ValueError(f"unknown routing rule {rule!r}")
        if signal not in SIGNALS:
            raise ValueError(f"unknown UGAL signal {signal!r}")
        if rule == "ugal" and family.no_choice is None:
            raise ValueError(
                f"the {family.topology_type.__name__} family has no "
                f"{rule!r} rule: UGAL needs a route-choice predicate"
            )
        self.name = name
        self.family = family
        self.rule = rule
        self.signal = signal
        self.needs_credit_delay = credit_delay
        self.topology_type = family.topology_type

    def hop_memo(self, topology: Any) -> HopMemo:
        return self.family.hop_memo(topology, self.rule != "min")

    def decide(
        self,
        view: CongestionView,
        topology: Any,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> Any:
        family = self.family
        rule = self.rule
        dst_router = topology.terminal_router(dst_terminal)
        if rule == "min":
            return family.minimal(topology, rng, src_router, dst_router)
        if rule == "val":
            return family.valiant(topology, rng, src_router, dst_router)
        if family.no_choice(topology, src_router, dst_router):
            return family.minimal(topology, rng, src_router, dst_router)
        min_plan = family.minimal(topology, rng, src_router, dst_router)
        nm_plan = family.valiant(topology, rng, src_router, dst_router)
        if nm_plan.minimal:
            # The sampled intermediate was on the minimal route; the
            # "non-minimal" candidate is the minimal route.
            return min_plan
        memo = family.hop_memo(topology, True)
        port_min, vc_min, hops_min = memo.candidate(min_plan, src_router, dst_router)
        port_nm, vc_nm, hops_nm = memo.candidate(nm_plan, src_router, dst_router)
        signal = self.signal
        if signal == "remote":
            gc_min = min_plan.gc1
            gc_nm = nm_plan.gc1
            q_min = view.output_occupancy(gc_min.src_router, gc_min.src_port)
            q_nm = view.output_occupancy(gc_nm.src_router, gc_nm.src_port)
        elif signal == "vc" or (signal == "vc_hybrid" and port_min == port_nm):
            q_min = view.output_vc_occupancy(src_router, port_min, vc_min)
            q_nm = view.output_vc_occupancy(src_router, port_nm, vc_nm)
        else:
            q_min = view.output_occupancy(src_router, port_min)
            q_nm = view.output_occupancy(src_router, port_nm)
        if q_min * hops_min <= q_nm * hops_nm:
            return min_plan
        return nm_plan


#: The paper's routing names -> ``RuleRouting`` arguments after the name.
DRAGONFLY_ROUTINGS: Dict[str, Tuple[Any, ...]] = {
    "MIN": (DRAGONFLY, "min"),
    "VAL": (DRAGONFLY, "val"),
    "UGAL-L": (DRAGONFLY, "ugal", "port"),
    "UGAL-G": (DRAGONFLY, "ugal", "remote"),
    "UGAL-L_VC": (DRAGONFLY, "ugal", "vc"),
    "UGAL-L_VCH": (DRAGONFLY, "ugal", "vc_hybrid"),
    "UGAL-L_CR": (DRAGONFLY, "ugal", "vc_hybrid", True),
}

#: Every algorithm the paper evaluates, in presentation order.
ALL_ROUTING_NAMES = list(DRAGONFLY_ROUTINGS)


def make_routing(name: str) -> RoutingAlgorithm:
    """Factory by paper name, e.g. ``make_routing("UGAL-L_CR")``.

    ``TBL-MIN`` simulates minimal routing off detour-recompiled
    forwarding tables on the healthy fabric; ``TBL-MIN/gcK`` degrades
    the fabric first by severing K >= 1 disjoint group pairs (the
    canonical degradation of
    :func:`repro.topology.faults.canonical_global_faults`) -- the
    executor of the fault-sweep experiment.  The extension families'
    names (``FB-UGAL-L``, ``TORUS-DOR``, ...) resolve through
    :data:`repro.routing.families.FAMILY_ROUTINGS`.  Every accepted name
    is the routing's own ``name``.
    """
    if name in DRAGONFLY_ROUTINGS:
        return RuleRouting(name, *DRAGONFLY_ROUTINGS[name])
    if name == "TBL-MIN" or name.startswith("TBL-MIN/gc"):
        from .tables import TableRouting, canonical_degraded_lowering

        fault_pairs = 0
        if name != "TBL-MIN":
            suffix = name[len("TBL-MIN/gc"):]
            if not (suffix.isascii() and suffix.isdigit() and suffix[0] != "0"):
                raise ValueError(
                    f"unknown routing algorithm {name!r}; degraded table "
                    "routings are named TBL-MIN or TBL-MIN/gcK for K >= 1 "
                    "severed group pairs, written without leading zeros"
                )
            fault_pairs = int(suffix)
        return TableRouting(name, functools.partial(
            canonical_degraded_lowering, fault_pairs=fault_pairs
        ))
    from .families import FAMILY_ROUTINGS

    if name in FAMILY_ROUTINGS:
        return RuleRouting(name, *FAMILY_ROUTINGS[name])
    raise ValueError(
        f"unknown routing algorithm {name!r}; choose from "
        f"{sorted(DRAGONFLY_ROUTINGS) + sorted(FAMILY_ROUTINGS) + ['TBL-MIN', 'TBL-MIN/gcK']}"
    )
