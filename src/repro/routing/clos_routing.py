"""Routing for the folded Clos (extension).

Up*/down* routing: a packet climbs to the nearest common ancestor level
of its source and destination leaves, then descends deterministically
(each level's down port is the destination leaf's digit).  The up path
is where route freedom lives:

* ``CLOS-RAND`` draws the up port at every level uniformly at random
  (Valiant-style load balancing; the non-blocking behaviour high-radix
  folded-Clos machines like BlackWidow rely on, cf. the paper's ref
  [13] and [26]);
* ``CLOS-DET`` uses destination-based up ports (d-mod-k routing),
  which concentrates adversarial permutations onto single links -- the
  contrast that motivates randomised/adaptive up-routing.

Up/down routing is deadlock-free on one VC (a route never turns upward
after descending).

``progress`` encoding for the executor: 0 = ascending, 1 = descending.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..topology.folded_clos import FoldedClos
from .base import CongestionView, RoutingAlgorithm
from .grammar import ChannelClass, PathGrammar, RouteClass, Segment


@dataclass
class ClosRoutePlan:
    """Per-packet decision: how high to climb and through which ports."""

    minimal: bool
    ancestor_level: int
    #: Up port choice (0..d-1) for each level below ``ancestor_level``.
    up_ports: Tuple[int, ...]

    @property
    def num_global_hops(self) -> int:
        return 0  # interface parity with the dragonfly plan


def clos_plan(
    topology: FoldedClos,
    rng: Optional[random.Random],
    src_router: int,
    dst_terminal: int,
    deterministic: bool = False,
) -> ClosRoutePlan:
    """Build an up*/down* plan from a leaf switch.

    ``deterministic`` selects d-mod-k up ports (the destination's own
    digits); otherwise up ports are drawn uniformly.
    """
    src_leaf = topology.index_of(src_router)
    dst_leaf = topology.terminal_router(dst_terminal)  # leaves are level 0
    ancestor = topology.ancestor_level(src_leaf, dst_leaf)
    if deterministic:
        digits = topology.digits_of_leaf(dst_leaf)
        up_ports = tuple(digits[:ancestor])
    else:
        if rng is None:
            raise ValueError(
                "random up*/down* up ports need an rng; pass one or "
                "deterministic=True"
            )
        up_ports = tuple(rng.randrange(topology.down) for _ in range(ancestor))
    return ClosRoutePlan(minimal=True, ancestor_level=ancestor, up_ports=up_ports)


def clos_next_hop(
    topology: FoldedClos,
    router: int,
    plan: ClosRoutePlan,
    progress: int,
    dst_terminal: int,
) -> Tuple[int, int, int]:
    """(out_port, out_vc, next_progress) for up*/down* execution."""
    down = topology.down
    level = topology.level_of(router)
    dst_leaf = topology.terminal_router(dst_terminal)
    if level == 0 and router == dst_leaf and (
        plan.ancestor_level == 0 or progress == 1
    ):
        return topology.terminal_port(dst_terminal), 0, progress
    if progress == 0 and level < plan.ancestor_level:
        next_progress = 1 if level + 1 == plan.ancestor_level else 0
        return down + plan.up_ports[level], 0, next_progress
    # Descending: the down port at level l is the destination leaf's
    # digit (l-1).
    digit = topology.digits_of_leaf(dst_leaf)[level - 1]
    return digit, 0, 1


def clos_path_grammar(levels: int) -> PathGrammar:
    """Channel-class structure of up*/down* routes on an ``L``-level Clos.

    Parameterised over the level count only (the per-level switch counts
    and port radix never enter the abstraction).  Classes are (direction,
    level boundary) on the single VC; a route climbs a prefix of the up
    segments to its ancestor level and descends the matching suffix of
    the down segments, so every segment is optional and every dependency
    strictly advances the up-then-down rank -- the structural reason
    up*/down* needs no virtual channels at all.
    """
    segments = []
    for level in range(levels - 1):
        segments.append(Segment(
            ChannelClass("up", 0, f"level{level}->{level + 1}"),
            optional=True,
        ))
    for level in range(levels - 1, 0, -1):
        segments.append(Segment(
            ChannelClass("down", 0, f"level{level}->{level - 1}"),
            optional=True,
        ))
    return PathGrammar(
        name=f"folded-clos-{levels}level@updown",
        num_vcs=1,
        route_classes=(RouteClass("up*/down*", tuple(segments)),),
    )


class _ClosRouting(RoutingAlgorithm):
    deterministic = False

    def next_hop(
        self,
        topology: FoldedClos,
        router: int,
        plan: ClosRoutePlan,
        progress: int,
        dst_terminal: int,
    ) -> Tuple[int, int, int]:
        return clos_next_hop(topology, router, plan, progress, dst_terminal)

    def decide(
        self,
        view: CongestionView,
        topology: FoldedClos,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> ClosRoutePlan:
        return clos_plan(
            topology, rng, src_router, dst_terminal,
            deterministic=self.deterministic,
        )


class ClosRandomRouting(_ClosRouting):
    """Random up port per level (load-balanced, non-blocking)."""

    name = "CLOS-RAND"
    deterministic = False


class ClosDeterministicRouting(_ClosRouting):
    """Destination-based (d-mod-k) up ports."""

    name = "CLOS-DET"
    deterministic = True


def make_clos_routing(name: str) -> RoutingAlgorithm:
    algorithms = {
        "CLOS-RAND": ClosRandomRouting,
        "CLOS-DET": ClosDeterministicRouting,
    }
    if name not in algorithms:
        raise ValueError(
            f"unknown folded-Clos routing {name!r}; choose from {sorted(algorithms)}"
        )
    return algorithms[name]()
