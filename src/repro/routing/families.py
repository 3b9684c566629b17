"""The extension families' records and routing names.

The paper's routing rule does not depend on the topology (Section 4.2;
:class:`~repro.routing.ugal.RuleRouting`).  Each :class:`~repro.routing.
ugal.Family` here supplies what does: the plan builders, and the
lowering whose compiled tables the plans run on -- every hop, and
UGAL's first-hop port, VC and hop count ``H``, is a walk of those
tables (:class:`~repro.routing.tables.TableRoutes`).  ``make_routing``
resolves every name of :data:`FAMILY_ROUTINGS`.

UGAL-G is not provided: on the flattened butterfly the congested channel
is attached to the *source* router itself (DOR's first hop), so local
queue state is no longer indirect -- the contrast the dragonfly paper
draws.  The torus and the Clos have no route-choice predicate, so no
UGAL either.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Tuple

from ..topology.flattened_butterfly import FlattenedButterfly
from ..topology.folded_clos import FoldedClos
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from ..topology.torus import Torus
from . import vc_assignment as vcs
from .clos_routing import clos_plan
from .fb_paths import RouterPlan, router_valiant_plan
from .tables import (
    ClosLowering,
    FbLowering,
    Lowering,
    TableRoutes,
    TorusLowering,
    VariantLowering,
    table_routes,
)
from .ugal import Family
from .variant_paths import variant_minimal_plan, variant_valiant_plan


def _tables(
    lowering: Callable[[Any, bool], Lowering]
) -> Callable[[Any, bool], TableRoutes]:
    """A family's hop memo: the :func:`~repro.routing.tables.table_routes`
    of ``lowering(topology, include_nonminimal)``."""
    lowerings = [
        functools.partial(lowering, include_nonminimal=flag) for flag in (False, True)
    ]
    return lambda topology, include_nonminimal: table_routes(
        topology, lowerings[include_nonminimal]
    )


def _router_minimal_plan(topology, rng, src_router, dst_terminal) -> RouterPlan:
    return RouterPlan(minimal=True)


FLATTENED_BUTTERFLY = Family(
    FlattenedButterfly, _router_minimal_plan, router_valiant_plan,
    _tables(lambda topology, include_nonminimal: FbLowering(topology)),
    no_choice=lambda topology, src_router, dst_router: src_router == dst_router,
)
GROUP_VARIANT = Family(
    FlattenedButterflyGroupDragonfly,
    variant_minimal_plan, variant_valiant_plan,
    _tables(lambda topology, include_nonminimal: VariantLowering(
        topology, vcs.CANONICAL, include_nonminimal
    )),
    no_choice=lambda topology, src_router, dst_router: (
        topology.group_of(src_router) == topology.group_of(dst_router)
    ),
)
TORUS = Family(
    Torus, _router_minimal_plan, router_valiant_plan, _tables(TorusLowering)
)
#: The Clos's "minimal" plan takes destination-based (d-mod-k) up ports,
#: its "Valiant" plan random ones.
FOLDED_CLOS = Family(
    FoldedClos, functools.partial(clos_plan, deterministic=True), clos_plan,
    _tables(lambda topology, include_nonminimal: ClosLowering(topology)),
)

#: Routing name -> ``RuleRouting`` arguments after the name.
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
