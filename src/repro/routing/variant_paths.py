"""The path grammar of Figure 6 group-variant dragonflies -- grammar only.

The dragonfly's routing (Section 4.1) generalises directly when the
intra-group network is an n-dimensional flattened butterfly instead of a
complete graph: "route within the group" becomes a dimension-order walk
of up to ``n`` local hops.  The VC assignment of Figure 7 carries over
with one refinement -- all DOR hops of one local segment share that
segment's VC, which stays deadlock-free because intra-group DOR is
acyclic on its own.

Everything else is the dragonfly's own: its plan builders
(:mod:`repro.routing.paths`, whose link picker scores the topology's
``intra_group_hops``, DOR hop counts here), its executor (the variant's
``local_port`` is the first DOR hop) and its table compiler
(:func:`repro.routing.tables.compile_dragonfly_tables`).
"""

from __future__ import annotations

from . import vc_assignment as vcs
from .grammar import ChannelClass, PathGrammar, RouteClass, Segment


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
