"""MIN, VAL and UGAL-L for the extension topology families.

The paper's routing rules do not depend on the topology (Section 4.2):
minimal routing takes the minimal plan, Valiant routing a plan through a
random intermediate, and UGAL-L compares ``q x H`` for the minimal
candidate and one Valiant candidate at the source router.  A
:class:`Family` supplies what does depend on the topology -- the plan
builders, the hop count and the executor -- and :class:`FamilyRouting`
applies the rule.  ``make_routing`` resolves every name of
:data:`FAMILY_ROUTINGS`.

UGAL-G is not provided: on the flattened butterfly the congested channel
is attached to the *source* router itself (DOR's first hop), so local
queue state is no longer indirect -- the contrast the dragonfly paper
draws.  The dragonfly keeps its own classes (:mod:`repro.routing.ugal`),
which the decide kernel and the simulator's hop memo know by type.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..topology.flattened_butterfly import FlattenedButterfly
from ..topology.folded_clos import FoldedClos
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from ..topology.torus import Torus
from .base import CongestionView, RoutingAlgorithm
from .clos_routing import clos_next_hop, clos_plan
from .fb_paths import RouterPlan, fb_next_hop, fb_plan_hops, router_valiant_plan
from .torus_routing import torus_next_hop
from .variant_paths import (
    variant_minimal_plan,
    variant_next_hop,
    variant_plan_hops,
    variant_valiant_plan,
)

#: ``(topology, rng, src_router, dst_terminal) -> plan``.
PlanBuilder = Callable[[Any, random.Random, int, int], Any]


@dataclass(frozen=True)
class Family:
    """What a routing rule needs to know about one topology family."""

    topology_type: type
    minimal: PlanBuilder
    valiant: PlanBuilder
    #: ``(topology, router, plan, progress, dst_terminal)`` ->
    #: ``(out_port, out_vc, next_progress)``.
    next_hop: Callable[[Any, int, Any, int, int], Tuple[int, int, int]]
    #: Channel hops of a plan, ``(topology, src_router, dst_terminal,
    #: plan)``; UGAL families only.
    hops: Optional[Callable[[Any, int, int, Any], int]] = None
    #: ``(topology, src_router, dst_router)`` -> True when there is no
    #: route choice to make; UGAL families only.
    no_choice: Optional[Callable[[Any, int, int], bool]] = None


def _router_minimal_plan(topology, rng, src_router, dst_terminal) -> RouterPlan:
    return RouterPlan(minimal=True)


FLATTENED_BUTTERFLY = Family(
    FlattenedButterfly, _router_minimal_plan, router_valiant_plan, fb_next_hop,
    hops=fb_plan_hops,
    no_choice=lambda topology, src_router, dst_router: src_router == dst_router,
)
GROUP_VARIANT = Family(
    FlattenedButterflyGroupDragonfly,
    variant_minimal_plan, variant_valiant_plan, variant_next_hop,
    hops=variant_plan_hops,
    no_choice=lambda topology, src_router, dst_router: (
        topology.group_of(src_router) == topology.group_of(dst_router)
    ),
)
TORUS = Family(Torus, _router_minimal_plan, router_valiant_plan, torus_next_hop)
#: The Clos's "minimal" plan takes destination-based (d-mod-k) up ports,
#: its "Valiant" plan random ones.
FOLDED_CLOS = Family(
    FoldedClos, functools.partial(clos_plan, deterministic=True), clos_plan,
    clos_next_hop,
)

#: Routing name -> (family, rule).
FAMILY_ROUTINGS: Dict[str, Tuple[Family, str]] = {
    "FB-MIN": (FLATTENED_BUTTERFLY, "min"),
    "FB-VAL": (FLATTENED_BUTTERFLY, "val"),
    "FB-UGAL-L": (FLATTENED_BUTTERFLY, "ugal"),
    "VAR-MIN": (GROUP_VARIANT, "min"),
    "VAR-VAL": (GROUP_VARIANT, "val"),
    "VAR-UGAL-L": (GROUP_VARIANT, "ugal"),
    "TORUS-DOR": (TORUS, "min"),
    "TORUS-VAL": (TORUS, "val"),
    "CLOS-DET": (FOLDED_CLOS, "min"),
    "CLOS-RAND": (FOLDED_CLOS, "val"),
}


class FamilyRouting(RoutingAlgorithm):
    """One routing rule (``"min"``, ``"val"`` or ``"ugal"``) on one family."""

    def __init__(self, name: str, family: Family, rule: str) -> None:
        if rule not in ("min", "val", "ugal"):
            raise ValueError(f"unknown routing rule {rule!r}")
        self.name = name
        self.family = family
        self.rule = rule
        self.topology_type = family.topology_type

    def decide(
        self,
        view: CongestionView,
        topology: Any,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> Any:
        family = self.family
        if self.rule == "val":
            return family.valiant(topology, rng, src_router, dst_terminal)
        if self.rule == "min" or family.no_choice(
            topology, src_router, topology.terminal_router(dst_terminal)
        ):
            return family.minimal(topology, rng, src_router, dst_terminal)
        min_plan = family.minimal(topology, rng, src_router, dst_terminal)
        nm_plan = family.valiant(topology, rng, src_router, dst_terminal)
        if nm_plan.minimal:
            return min_plan
        hops_min = family.hops(topology, src_router, dst_terminal, min_plan)
        hops_nm = family.hops(topology, src_router, dst_terminal, nm_plan)
        port_min = family.next_hop(topology, src_router, min_plan, 0, dst_terminal)[0]
        port_nm = family.next_hop(topology, src_router, nm_plan, 0, dst_terminal)[0]
        q_min = view.output_occupancy(src_router, port_min)
        q_nm = view.output_occupancy(src_router, port_nm)
        if q_min * hops_min <= q_nm * hops_nm:
            return min_plan
        return nm_plan

    def next_hop(
        self,
        topology: Any,
        router: int,
        plan: Any,
        progress: int,
        dst_terminal: int,
    ) -> Tuple[int, int, int]:
        return self.family.next_hop(topology, router, plan, progress, dst_terminal)
