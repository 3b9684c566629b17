"""Routing for the k-ary n-cube torus (extension).

The paper's low-radix baseline descends from the Cray T3E torus [27]; to
let the simulator drive it we implement classic dimension-order routing
with dateline virtual channels (Dally & Seitz [7]): rings are traversed
in the shorter direction, and a packet that crosses a ring's wraparound
link ("the dateline") moves from VC0 to VC1, breaking the cyclic channel
dependency of each ring.  Minimal DOR therefore needs 2 VCs; the
router-level Valiant variant needs 4 (two per phase), so it requires a
simulator configured with ``num_vcs >= 4``.  Plans are the
router-level :class:`~repro.routing.fb_paths.RouterPlan` the flattened
butterfly uses; :mod:`repro.routing.families` runs them.

``progress`` encoding used by the executor: ``2*phase + crossed`` where
``phase`` is the Valiant phase (0 = toward the intermediate router) and
``crossed`` is whether the ring currently being corrected has wrapped.
"""

from __future__ import annotations

from typing import List, Tuple

from ..topology.torus import Torus
from .fb_paths import RouterPlan
from .grammar import ChannelClass, PathGrammar, RouteClass, Segment


def _ring_step(coord: int, target: int, size: int) -> Tuple[int, bool]:
    """(direction, wraps): +1/-1 shortest way around the ring and whether
    the next hop crosses the wraparound link."""
    forward = (target - coord) % size
    if forward <= size - forward:
        wraps = coord == size - 1
        return +1, wraps
    wraps = coord == 0
    return -1, wraps


def torus_next_hop(
    topology: Torus,
    router: int,
    plan: RouterPlan,
    progress: int,
    dst_terminal: int,
) -> Tuple[int, int, int]:
    """(out_port, out_vc, next_progress) for dateline DOR."""
    phase, crossed = divmod(progress, 2)
    dst_router = topology.terminal_router(dst_terminal)
    if not plan.minimal and phase == 0 and router == plan.intermediate_router:
        phase, crossed = 1, 0
    heading_home = plan.minimal or phase >= 1 or plan.intermediate_router is None
    target = dst_router if heading_home else plan.intermediate_router
    if router == target:
        return topology.terminal_port(dst_terminal), 0, 2 * phase
    coords = topology.coords_of(router)
    target_coords = topology.coords_of(target)
    for dim, (coord, goal) in enumerate(zip(coords, target_coords)):
        if coord == goal:
            continue
        size = topology.dims[dim]
        direction, wraps = _ring_step(coord, goal, size)
        port = topology.plus_port(dim) if direction > 0 else topology.minus_port(dim)
        next_coord = (coord + direction) % size
        vc = 2 * phase + crossed
        finishes_dim = next_coord == goal
        if finishes_dim:
            next_crossed = 0  # the next dimension starts fresh
        else:
            next_crossed = 1 if (crossed or wraps) else 0
        # The current hop's VC must already be the dateline VC when the
        # hop itself crosses the wraparound link.
        if wraps:
            vc = 2 * phase + 1
            if not finishes_dim:
                next_crossed = 1
        return port, vc, 2 * phase + next_crossed
    raise AssertionError("router == target was handled above")


def _torus_phase_segments(phase: int, num_dims: int) -> List[Segment]:
    """The per-dimension (pre-dateline, post-dateline) segment pairs.

    One ring correction is a monotone walk in a fixed direction (the
    shorter way around never flips mid-walk) of fewer hops than the ring
    size, so it crosses the wraparound link at most once: VC ``2*phase``
    strictly before the dateline, VC ``2*phase + 1`` from the crossing
    hop onward.  Either part may be empty, and within each part the hops
    strictly advance along the ring -- the order witness below.
    """
    segments = []
    for dim in range(num_dims):
        order = (
            f"ring position along the travel direction (dim {dim}, "
            "cut at the dateline)"
        )
        segments.append(Segment(
            ChannelClass("ring", 2 * phase, f"dim{dim}"),
            optional=True, multi_hop=True, order=order,
        ))
        segments.append(Segment(
            ChannelClass("ring", 2 * phase + 1, f"dim{dim}+dateline"),
            optional=True, multi_hop=True, order=order,
        ))
    return segments


def torus_path_grammar(
    num_dims: int,
    include_nonminimal: bool = False,
) -> PathGrammar:
    """Channel-class structure of dateline-DOR torus routes.

    Parameterised over the dimension *count* only -- ring sizes never
    enter the abstraction, so one grammar covers every k-ary n-cube of
    ``n = num_dims``.  Classes are (VC, dimension, dateline side): the
    dimension and dateline refinements are load-bearing, because a
    VC-only abstraction would merge the last (dateline-VC) hop of one
    dimension with the first (fresh-VC) hop of the next into a spurious
    VC1 -> VC0 cycle that no concrete route can close.
    """
    route_classes = [
        RouteClass(
            "minimal (dateline DOR)",
            tuple(_torus_phase_segments(0, num_dims)),
        ),
    ]
    if include_nonminimal:
        route_classes.append(RouteClass(
            "valiant (dateline DOR x2)",
            tuple(
                _torus_phase_segments(0, num_dims)
                + _torus_phase_segments(1, num_dims)
            ),
        ))
    return PathGrammar(
        name=f"torus-{num_dims}d@dateline",
        num_vcs=4 if include_nonminimal else 2,
        route_classes=tuple(route_classes),
    )
