"""MIN, VAL and UGAL-L for the extension topology families.

The paper's routing rules do not depend on the topology (Section 4.2):
minimal routing takes the minimal plan, Valiant routing a plan through a
random intermediate, and UGAL-L compares ``q x H`` for the minimal
candidate and one Valiant candidate at the source router.  A
:class:`Family` supplies what does depend on the topology -- the plan
builders and the lowering whose tables the plans run on -- and
:class:`FamilyRouting` applies the rule.  Every hop, and UGAL's
first-hop port and hop count ``H``, is a walk of the compiled tables
(:class:`~repro.routing.tables.TableRouting`).  ``make_routing``
resolves every name of :data:`FAMILY_ROUTINGS`.

UGAL-G is not provided: on the flattened butterfly the congested channel
is attached to the *source* router itself (DOR's first hop), so local
queue state is no longer indirect -- the contrast the dragonfly paper
draws.  The dragonfly keeps its own classes (:mod:`repro.routing.ugal`),
which the decide kernel knows by type; their hops skip the tables.
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
from . import vc_assignment as vcs
from .base import CongestionView
from .clos_routing import clos_plan
from .fb_paths import RouterPlan, router_valiant_plan
from .tables import (
    ClosLowering,
    FbLowering,
    Lowering,
    TableRouting,
    TorusLowering,
    VariantLowering,
)
from .variant_paths import variant_minimal_plan, variant_valiant_plan

#: ``(topology, rng, src_router, dst_terminal) -> plan``.
PlanBuilder = Callable[[Any, random.Random, int, int], Any]

@dataclass(frozen=True)
class Family:
    """What a routing rule needs to know about one topology family."""

    topology_type: type
    minimal: PlanBuilder
    valiant: PlanBuilder
    #: ``(topology, include_nonminimal) -> Lowering``: the tables and
    #: leg programs the family's plans run on.
    lowering: Callable[[Any, bool], Lowering]
    #: ``(topology, src_router, dst_router)`` -> True when there is no
    #: route choice to make; UGAL families only.
    no_choice: Optional[Callable[[Any, int, int], bool]] = None


def _router_minimal_plan(topology, rng, src_router, dst_terminal) -> RouterPlan:
    return RouterPlan(minimal=True)


FLATTENED_BUTTERFLY = Family(
    FlattenedButterfly, _router_minimal_plan, router_valiant_plan,
    lambda topology, include_nonminimal: FbLowering(topology),
    no_choice=lambda topology, src_router, dst_router: src_router == dst_router,
)
GROUP_VARIANT = Family(
    FlattenedButterflyGroupDragonfly,
    variant_minimal_plan, variant_valiant_plan,
    lambda topology, include_nonminimal: VariantLowering(
        topology, vcs.CANONICAL, include_nonminimal
    ),
    no_choice=lambda topology, src_router, dst_router: (
        topology.group_of(src_router) == topology.group_of(dst_router)
    ),
)
TORUS = Family(Torus, _router_minimal_plan, router_valiant_plan, TorusLowering)
#: The Clos's "minimal" plan takes destination-based (d-mod-k) up ports,
#: its "Valiant" plan random ones.
FOLDED_CLOS = Family(
    FoldedClos, functools.partial(clos_plan, deterministic=True), clos_plan,
    lambda topology, include_nonminimal: ClosLowering(topology),
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


class FamilyRouting(TableRouting):
    """One routing rule (``"min"``, ``"val"`` or ``"ugal"``) on one family."""

    def __init__(self, name: str, family: Family, rule: str) -> None:
        if rule not in ("min", "val", "ugal"):
            raise ValueError(f"unknown routing rule {rule!r}")
        if rule == "ugal" and family.no_choice is None:
            raise ValueError(
                f"the {family.topology_type.__name__} family has no "
                f"{rule!r} rule: UGAL needs a route-choice predicate"
            )
        super().__init__(
            name,
            functools.partial(family.lowering, include_nonminimal=rule != "min"),
            topology_type=family.topology_type,
        )
        self.family = family
        self.rule = rule

    def decide(
        self,
        view: CongestionView,
        topology: Any,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> Any:
        family = self.family
        routes = self.hop_memo(topology)
        if self.rule == "val":
            return family.valiant(topology, rng, src_router, dst_terminal)
        dst_router = topology.terminal_router(dst_terminal)
        if self.rule == "min" or family.no_choice(topology, src_router, dst_router):
            return family.minimal(topology, rng, src_router, dst_terminal)
        min_plan = family.minimal(topology, rng, src_router, dst_terminal)
        nm_plan = family.valiant(topology, rng, src_router, dst_terminal)
        if nm_plan.minimal:
            return min_plan
        port_min, hops_min = routes.plan_hops(src_router, dst_router, min_plan)
        port_nm, hops_nm = routes.plan_hops(src_router, dst_router, nm_plan)
        q_min = view.output_occupancy(src_router, port_min)
        q_nm = view.output_occupancy(src_router, port_nm)
        if q_min * hops_min <= q_nm * hops_nm:
            return min_plan
        return nm_plan
