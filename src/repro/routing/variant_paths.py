"""Route plans and the path grammar of Figure 6 group-variant dragonflies.

The dragonfly's routing (Section 4.1) generalises directly when the
intra-group network is an n-dimensional flattened butterfly instead of a
complete graph: "route within the group" becomes a dimension-order walk
of up to ``n`` local hops.  The VC assignment of Figure 7 carries over
with one refinement -- all DOR hops of one local segment share that
segment's VC, which stays deadlock-free because intra-group DOR is
acyclic on its own.

Plans reuse the canonical :class:`~repro.network.packet.RoutePlan`
(``gc1``/``gc2`` global links), so the UGAL decision structure and the
statistics pipeline apply unchanged.  So does execution: the variant's
``local_port`` is the first DOR hop, and the dragonfly's executor
(:func:`repro.routing.paths.next_hop`) and table compiler
(:func:`repro.routing.tables.compile_dragonfly_tables`) walk and lower
its routes.  Only the plan builders (whose link choice scores DOR hop
counts) and the grammar (multi-hop local segments) are the variant's own.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..core.params import TopologyError
from ..network.packet import RoutePlan
from ..topology.dragonfly import GlobalLink
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from . import vc_assignment as vcs
from .grammar import ChannelClass, PathGrammar, RouteClass, Segment

Variant = FlattenedButterflyGroupDragonfly


def _pick_best_link(
    topology: Variant,
    links: List[GlobalLink],
    rng: random.Random,
    src_router: int,
    dst_router: Optional[int] = None,
) -> GlobalLink:
    """Pick the link minimising intra-group DOR hops, random tie-break."""
    if not links:
        raise TopologyError("no global link between the requested groups")

    def score(link: GlobalLink) -> int:
        extra = topology.intra_group_hops(src_router, link.src_router)
        if dst_router is not None:
            extra += topology.intra_group_hops(link.dst_router, dst_router)
        return extra

    best = min(score(link) for link in links)
    candidates = [link for link in links if score(link) == best]
    return candidates[rng.randrange(len(candidates))]


def variant_minimal_plan(
    topology: Variant,
    rng: random.Random,
    src_router: int,
    dst_router: int,
) -> RoutePlan:
    src_group = topology.group_of(src_router)
    dst_group = topology.group_of(dst_router)
    if src_group == dst_group:
        return RoutePlan(minimal=True)
    links = topology.group_links(src_group, dst_group)
    return RoutePlan(
        minimal=True,
        gc1=_pick_best_link(topology, links, rng, src_router, dst_router),
    )


def variant_valiant_plan(
    topology: Variant,
    rng: random.Random,
    src_router: int,
    dst_router: int,
) -> RoutePlan:
    src_group = topology.group_of(src_router)
    dst_group = topology.group_of(dst_router)
    if topology.g < 2 or src_group == dst_group:
        return variant_minimal_plan(topology, rng, src_router, dst_router)
    intermediate_group = rng.randrange(topology.g - 1)
    if intermediate_group >= src_group:
        intermediate_group += 1
    if intermediate_group == dst_group:
        return variant_minimal_plan(topology, rng, src_router, dst_router)
    gc1 = _pick_best_link(
        topology,
        topology.group_links(src_group, intermediate_group),
        rng,
        src_router,
    )
    gc2 = _pick_best_link(
        topology,
        topology.group_links(intermediate_group, dst_group),
        rng,
        gc1.dst_router,
        dst_router,
    )
    return RoutePlan(minimal=False, gc1=gc1, gc2=gc2)


#: Witness order for intra-group DOR walks: dimension-order routing
#: corrects one coordinate at a time in ascending dimension index, so
#: consecutive hops of one local segment strictly ascend the dimensions
#: -- the intra-class dependencies of a local segment cannot cycle.
_DOR_ORDER = "intra-group DOR dimension index"


def variant_path_grammar(
    assignment: vcs.VcAssignment = vcs.CANONICAL,
    include_nonminimal: bool = True,
) -> PathGrammar:
    """Channel-class structure of the Figure 6 group-variant routes.

    Identical stage structure to
    :func:`repro.routing.paths.dragonfly_path_grammar`, except every
    local segment is a *multi-hop* dimension-order walk through the
    flattened-butterfly group sharing the segment's VC.  Those walks add
    intra-class (self) dependencies, witnessed acyclic by the DOR
    dimension order -- valid for **any** group dimensionality, which is
    exactly what lets one grammar cover the whole variant family.
    """
    final = ChannelClass("local", assignment.final_local_vc)

    def local(cls: ChannelClass) -> Segment:
        return Segment(cls, optional=True, multi_hop=True, order=_DOR_ORDER)

    route_classes = [
        RouteClass("intra-group", (local(final),)),
        RouteClass(
            "minimal",
            (
                local(ChannelClass("local", assignment.minimal_first_vc)),
                Segment(ChannelClass("global", assignment.minimal_first_vc)),
                local(final),
            ),
        ),
    ]
    if include_nonminimal and assignment.supports_nonminimal:
        route_classes.append(RouteClass(
            "nonminimal",
            (
                local(ChannelClass("local", assignment.nonminimal_first_vc)),
                Segment(ChannelClass("global", assignment.nonminimal_first_vc)),
                local(ChannelClass("local", assignment.intermediate_vc)),
                Segment(ChannelClass("global", assignment.intermediate_vc)),
                local(final),
            ),
        ))
    return PathGrammar(
        name=f"dragonfly-fbgroup@{assignment.name}",
        num_vcs=assignment.num_vcs,
        route_classes=tuple(route_classes),
    )
