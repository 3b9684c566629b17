"""Route plans and execution for the flattened butterfly.

An extension beyond the paper's simulations (which cover the dragonfly
only): the same simulator drives the paper's main comparison topology, so
dragonfly-vs-flattened-butterfly claims can be checked in simulation and
not just in the cost model.

Minimal routing is dimension order (DOR): correct one differing
coordinate at a time, one hop per dimension.  Non-minimal routing applies
Valiant's algorithm at the router level -- DOR to a random intermediate
router, then DOR to the destination -- using one VC per phase for
deadlock freedom (DOR itself is acyclic within a phase; the phase index
only ever increases).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..topology.flattened_butterfly import FlattenedButterfly
from .grammar import ChannelClass, PathGrammar, RouteClass, Segment


@dataclass
class RouterPlan:
    """Per-packet decision of router-level routing, shared by the
    flattened butterfly and the torus: minimal, or Valiant through
    ``intermediate_router`` (phase 0 heads there, phase 1 home)."""

    minimal: bool
    intermediate_router: Optional[int] = None


def router_valiant_plan(
    topology,
    rng: random.Random,
    src_router: int,
    dst_router: int,
    intermediate_router: Optional[int] = None,
) -> RouterPlan:
    """Valiant route via a random intermediate router.

    Degenerates to the minimal plan when the draw lands on the source or
    destination router.
    """
    if intermediate_router is None:
        intermediate_router = rng.randrange(topology.num_routers)
    if intermediate_router in (src_router, dst_router):
        return RouterPlan(minimal=True)
    return RouterPlan(minimal=False, intermediate_router=intermediate_router)


def fb_next_hop(
    topology: FlattenedButterfly,
    router: int,
    plan: RouterPlan,
    progress: int,
    dst_terminal: int,
) -> Tuple[int, int, int]:
    """(out_port, out_vc, next_progress) of dimension-order execution."""
    dst_router = topology.terminal_router(dst_terminal)
    phase = progress
    if (
        not plan.minimal
        and phase == 0
        and router == plan.intermediate_router
    ):
        phase = 1  # reached the intermediate router; head for home
    heading_home = plan.minimal or phase >= 1 or plan.intermediate_router is None
    target = dst_router if heading_home else plan.intermediate_router
    if router == target:
        # Only reachable when the target is the destination (arriving at
        # the intermediate flips the phase above).
        terminal = topology.fabric.terminals[dst_terminal]
        return terminal.port, 0, phase
    src_coords = topology.coords_of(router)
    dst_coords = topology.coords_of(target)
    for dim, (src_coord, dst_coord) in enumerate(zip(src_coords, dst_coords)):
        if src_coord != dst_coord:
            port = topology.dim_port(router, dim, dst_coord)
            return port, phase, phase
    raise AssertionError("router == target was handled above")


#: Witness order for DOR walks: each phase corrects coordinates in
#: ascending dimension index, one hop per dimension, so consecutive hops
#: within a phase strictly ascend the dimensions.
_DOR_ORDER = "DOR dimension index"


def fb_path_grammar(include_nonminimal: bool = True) -> PathGrammar:
    """Channel-class structure of flattened-butterfly routes.

    Instance-independent over any dimension vector and concentration:
    a minimal route is one DOR walk on VC0; a Valiant route is a DOR
    walk to the intermediate router on VC0 followed by a DOR walk home
    on VC1 (:func:`fb_next_hop` uses ``vc = phase``).  Both phases of a
    (non-degenerate) Valiant route take at least one hop -- plans whose
    intermediate draw collides with an endpoint collapse to the minimal
    plan before routing starts.
    """
    route_classes = [
        RouteClass(
            "minimal (DOR)",
            (Segment(
                ChannelClass("local", 0, "phase0"),
                optional=True, multi_hop=True, order=_DOR_ORDER,
            ),),
        ),
    ]
    if include_nonminimal:
        route_classes.append(RouteClass(
            "valiant (DOR x2)",
            (
                Segment(
                    ChannelClass("local", 0, "phase0"),
                    multi_hop=True, order=_DOR_ORDER,
                ),
                Segment(
                    ChannelClass("local", 1, "phase1"),
                    multi_hop=True, order=_DOR_ORDER,
                ),
            ),
        ))
    return PathGrammar(
        name="flattened-butterfly@phase-vcs",
        num_vcs=2 if include_nonminimal else 1,
        route_classes=tuple(route_classes),
    )
