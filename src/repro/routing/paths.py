"""Route-plan construction and execution on a dragonfly.

A :class:`~repro.network.packet.RoutePlan` fixes, at the source router,
which global channel(s) the packet will use.  This module builds minimal
and Valiant plans (Section 4.1) and executes them hop by hop -- returning
the (output port, VC) at every router along the way using the VC
assignment of :mod:`repro.routing.vc_assignment`.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.params import TopologyError
from ..network.packet import RoutePlan
from ..topology.dragonfly import Dragonfly, GlobalLink
from ..topology.faults import ALL_FAULT_CLASSES, SEVERED_GROUP_PAIR, FaultClass
from . import vc_assignment as vcs
from .grammar import (
    ChannelClass,
    DegradedPathGrammar,
    PathGrammar,
    RouteClass,
    Segment,
)

#: Shared plan for intra-group routes.  Plans are immutable once built
#: (a hop memo only caches stage keys on them), so one object serves
#: every same-group packet.
_INTRA_GROUP_MINIMAL = RoutePlan(minimal=True)


def _pick_best_link(
    topology: Any,
    links: List[GlobalLink],
    rng: random.Random,
    src_router: int,
    dst_router: Optional[int] = None,
) -> GlobalLink:
    """Pick the link minimising the topology's ``intra_group_hops``
    (to its gateway, and from its landing router to ``dst_router``).
    One link draws nothing; more draw one ``randrange`` over the best,
    even when only one is best."""
    if not links:
        raise TopologyError("no global link between the requested groups")
    if len(links) == 1:
        return links[0]
    hops = topology.intra_group_hops
    scores = [
        hops(src_router, link.src_router)
        + (0 if dst_router is None else hops(link.dst_router, dst_router))
        for link in links
    ]
    best = min(scores)
    candidates = [link for link, extra in zip(links, scores) if extra == best]
    return candidates[rng.randrange(len(candidates))]


def topology_memo(topology: Any, key: Any, build: Callable[[Any], Any]) -> Any:
    """The routing memo ``key`` on ``topology`` (a plan or hop memo,
    compiled tables), ``build(topology)`` on first use.  A topology
    pickles without them (:func:`repro.topology.base.state_without_memos`),
    so no plans, tables, hops or lambda keys ride to sweep workers."""
    try:
        memos = topology._routing_memos
    except AttributeError:
        memos = topology._routing_memos = {}
    memo = memos.get(key)
    if memo is None:
        memo = memos[key] = build(topology)
    return memo


def _minimal_plan_between(
    topology: Dragonfly,
    rng: random.Random,
    src_router: int,
    dst_router: int,
    src_group: int,
    dst_group: int,
) -> RoutePlan:
    """Minimal plan between distinct groups, routers/groups precomputed.

    Internal fast path shared with the UGAL ``decide`` hot loop.  When
    ``topology.single_link_pairs`` (exactly one global link per group
    pair, the canonical ``g = ah + 1`` dragonfly), ``_pick_best_link``
    has no tie to break -- the plan is a pure function of the group pair
    and consumes no rng -- so plans are memoised on the topology, in its
    routing memos.
    """
    memoised = topology.single_link_pairs
    if memoised:
        # The hot path reads the memo inline and calls topology_memo only
        # to create it: a 72-terminal scalar UGAL-L run (150+150 cycles,
        # load 0.3) executes 13.46 M opcodes this way, 13.65 M (+1.4%)
        # with every lookup through topology_memo.
        try:
            memo = topology._routing_memos[_minimal_plan_between]
        except (AttributeError, KeyError):
            memo = topology_memo(topology, _minimal_plan_between, lambda _: {})
        key = src_group * topology.g + dst_group
        plan = memo.get(key)
        if plan is not None:
            return plan
    links = topology.group_links(src_group, dst_group)
    plan = RoutePlan(
        minimal=True,
        gc1=_pick_best_link(topology, links, rng, src_router, dst_router),
    )
    if memoised:
        memo[key] = plan
    return plan


def minimal_plan(
    topology: Dragonfly,
    rng: random.Random,
    src_router: int,
    dst_router: int,
) -> RoutePlan:
    """The paper's 3-step minimal route (at most one global channel)."""
    # group_of, inlined: UGAL builds a candidate with each builder.
    a = topology.a
    src_group = src_router // a
    dst_group = dst_router // a
    if src_group == dst_group:
        return _INTRA_GROUP_MINIMAL
    return _minimal_plan_between(
        topology, rng, src_router, dst_router, src_group, dst_group
    )


def valiant_plan(
    topology: Dragonfly,
    rng: random.Random,
    src_router: int,
    dst_router: int,
    intermediate_group: Optional[int] = None,
) -> RoutePlan:
    """The 5-step Valiant route through a random intermediate group.

    The intermediate group is drawn uniformly from the groups other than
    the source group.  When it equals the destination group the route
    degenerates to the minimal route (``minimal`` is set accordingly so
    statistics classify the packet by the path it actually takes).
    """
    a = topology.a
    src_group = src_router // a
    dst_group = dst_router // a
    if topology.g < 2 or src_group == dst_group:
        return minimal_plan(topology, rng, src_router, dst_router)
    return _valiant_plan_between(
        topology, rng, src_router, dst_router, src_group, dst_group,
        intermediate_group,
    )


def _valiant_plan_between(
    topology: Dragonfly,
    rng: random.Random,
    src_router: int,
    dst_router: int,
    src_group: int,
    dst_group: int,
    intermediate_group: Optional[int] = None,
) -> RoutePlan:
    """Valiant plan between distinct groups, routers/groups precomputed.

    Internal fast path shared with the UGAL ``decide`` hot loop; draws
    the intermediate group (one rng call), then -- like
    :func:`_minimal_plan_between` -- memoises the link choice on the
    topology when it is a pure function of the group triple.
    """
    if intermediate_group is None:
        # Inlined ``rng.randrange(g - 1)``: the rejection loop below is
        # exactly ``Random._randbelow_with_getrandbits``, so it consumes
        # the generator state identically (the determinism contract) at
        # a fraction of the call overhead.
        n = topology.g - 1
        getrandbits = rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        intermediate_group = r
        if intermediate_group >= src_group:
            intermediate_group += 1
    if intermediate_group == src_group:
        raise ValueError("intermediate group must differ from the source group")
    if intermediate_group == dst_group:
        return _minimal_plan_between(
            topology, rng, src_router, dst_router, src_group, dst_group
        )
    memoised = topology.single_link_pairs
    if memoised:
        # Read inline, as in _minimal_plan_between.
        try:
            memo = topology._routing_memos[_valiant_plan_between]
        except (AttributeError, KeyError):
            memo = topology_memo(topology, _valiant_plan_between, lambda _: {})
        g = topology.g
        key = (src_group * g + intermediate_group) * g + dst_group
        plan = memo.get(key)
        if plan is not None:
            return plan
    gc1 = _pick_best_link(
        topology, topology.group_links(src_group, intermediate_group), rng, src_router
    )
    gc2 = _pick_best_link(
        topology, topology.group_links(intermediate_group, dst_group), rng,
        gc1.dst_router, dst_router,
    )
    plan = RoutePlan(minimal=False, gc1=gc1, gc2=gc2)
    if memoised:
        memo[key] = plan
    return plan


def next_hop(
    topology: Any,
    router: int,
    plan: RoutePlan,
    global_hops_taken: int,
    dst_terminal: int,
    assignment: vcs.VcAssignment = vcs.CANONICAL,
) -> Tuple[int, int]:
    """(output port, VC) for a flit of this plan at ``router``.

    ``global_hops_taken`` tracks route progress; ejection returns the
    destination's terminal port with VC 0.  ``assignment`` selects the VC
    assignment; the default is the canonical Figure 7 assignment.  The
    static certifier (:mod:`repro.check.cdg`) re-executes routes through
    this very function with candidate assignments, so what it certifies
    is the code path the simulator runs.

    Any grouped topology runs here: the intra-group step is the
    topology's ``local_port`` (the direct channel of a dragonfly group,
    the first dimension-order hop of a Figure 6 flattened-butterfly
    group).
    """
    minimal = plan.minimal
    if plan.gc1 is not None and global_hops_taken == 0:
        link = plan.gc1
        if router == link.src_router:
            return link.src_port, assignment.global_vc(minimal, 0)
        return (
            topology.local_port(router, link.src_router),
            assignment.local_vc(minimal, 0),
        )
    if plan.gc2 is not None and global_hops_taken == 1:
        link = plan.gc2
        if router == link.src_router:
            return link.src_port, assignment.global_vc(minimal, 1)
        return (
            topology.local_port(router, link.src_router),
            assignment.local_vc(minimal, 1),
        )
    dst_router = topology.terminal_router(dst_terminal)
    if router == dst_router:
        return topology.terminal_port(dst_terminal), 0
    # Final local hop (also the only hop of intra-group routes): highest VC.
    return topology.local_port(router, dst_router), assignment.final_local_vc


class DragonflyHops:
    """:func:`next_hop` memoised by route stage on one dragonfly.

    The hop memo (:class:`repro.routing.base.HopMemo`) of every routing
    that runs dragonfly plans.  A plan's hop at a router depends on one
    route stage only: toward ``gc1`` (progress 0) on that link, the
    ``minimal`` flag and the router; toward ``gc2`` (progress 1) the
    same; in the final stage on the destination router and the router.
    Stage keys are small ints computed from the plan's links, never from
    a plan's ``id``: plans are fresh objects per decision on dragonflies
    without ``single_link_pairs``.  Misses are filled from
    :func:`next_hop` itself, so a hit is bit-identical to a call.
    """

    def __init__(self, topology: Dragonfly) -> None:
        self.topology = topology
        self.hops: Dict[int, Tuple[int, int, int]] = {}
        num_routers = topology.fabric.num_routers
        self._num_routers = num_routers
        self._radix = topology.fabric.max_radix()
        #: Final-stage key per destination terminal: its router's, below
        #: ``num_routers ** 2``.
        self._final = [
            topology.terminal_router(t) * num_routers
            for t in range(topology.num_terminals)
        ]
        self._table: Optional[HopTable] = None

    @property
    def table(self) -> "HopTable":
        """Every stage's hops as one dense :class:`HopTable` (the array
        engine's), built on first use."""
        table = self._table
        if table is None:
            table = self._table = HopTable(self.topology)
        return table

    def keys(self, plan: RoutePlan, src_router: int, dst_terminal: int) -> Tuple[int, ...]:
        """The plan's stage keys, indexed by global channels crossed."""
        final = self._final[dst_terminal]
        gc1 = plan.gc1
        if gc1 is None:
            return (final,)
        key0 = self._stage(gc1, plan.minimal, 0)
        if plan.gc2 is None:
            return (key0, final)
        return (key0, self._stage(plan.gc2, plan.minimal, 1), final)

    def _stage(self, link: GlobalLink, minimal: bool, phase: int) -> int:
        """The stage key toward ``link`` in route phase ``phase``: one
        per (link, ``minimal``, phase), above every final-stage key."""
        num_routers = self._num_routers
        return (
            num_routers + (link.src_router * self._radix + link.src_port) * 4
            + minimal * 2 + phase
        ) * num_routers

    def fill(
        self, key: int, plan: RoutePlan, progress: int, router: int, dst_terminal: int
    ) -> Tuple[int, int, int]:
        """Store and return the hop at ``key``: :func:`next_hop`, with
        ejection (whose port names the terminal) as port -1."""
        topology = self.topology
        port, vc = next_hop(topology, router, plan, progress, dst_terminal)
        if topology.is_terminal_port(port):
            hop = (-1, 0, 0)
        else:
            hop = (port, vc, 1 if topology.is_global_port(port) else 0)
        self.hops[key] = hop
        return hop

    def candidate(
        self, plan: RoutePlan, src_router: int, dst_router: int
    ) -> Tuple[int, int, int]:
        """UGAL's query on an inter-group plan: ``(first out_port, first
        out_VC, channel hops)``.  The minimal route has ``gc1`` and the
        non-degenerate Valiant route ``gc1`` and ``gc2``, so the hop
        count reduces to endpoint comparisons."""
        gc1 = plan.gc1
        num_routers = self._num_routers
        key = (
            num_routers + (gc1.src_router * self._radix + gc1.src_port) * 4
            + plan.minimal * 2
        ) * num_routers + src_router
        hop = self.hops.get(key)
        if hop is None:
            # A link stage's hop does not depend on the destination.
            hop = self.fill(key, plan, 0, src_router, -1)
        gc2 = plan.gc2
        if gc2 is None:
            hops = 1 + (gc1.src_router != src_router) + (gc1.dst_router != dst_router)
        else:
            hops = (
                2
                + (gc1.src_router != src_router)
                + (gc1.dst_router != gc2.src_router)
                + (gc2.dst_router != dst_router)
            )
        return hop[0], hop[1], hops


class HopTable:
    """Every hop :class:`DragonflyHops` can hold, as dense numpy arrays.

    The same stages as the memo, numbered densely: stage ``d`` is the
    final stage toward destination router ``d``; after those, global
    link ``j`` (in flat source-port order, :attr:`link_src` /
    :attr:`link_port` / :attr:`link_dst`) has stages ``num_routers + 3j
    + k`` for ``k`` = minimal phase 0, Valiant phase 0 and Valiant
    phase 1.  A stage is routed by the routers of one group (the
    destination's, or the link's source group), so :attr:`hops` has one
    ``(out_port, out_vc, advance)`` row per stage and local router index
    -- exactly the memo's keys -- and a stage's *kernel key* is ``stage *
    a - a * group``: the row of ``router`` is ``hops[key + router]``,
    the memo's ``keys[progress] + router`` form.  :attr:`final_keys`
    (per destination router) and :attr:`link_keys` (per link, by ``k``)
    are those keys.  Port -1 means eject, as in the memo.

    Built by integer arithmetic on the link arrays -- the hops
    :func:`next_hop` returns under the canonical VC assignment -- and
    never through :meth:`DragonflyHops.fill`: at 16 512 terminals the
    table has 825 600 rows.  numpy is imported here, not by the module.
    """

    __slots__ = (
        "hops", "final_keys", "link_keys", "link_src", "link_port", "link_dst",
    )

    def __init__(self, topology: Dragonfly) -> None:
        import numpy as np

        a = topology.a
        p = topology.p
        num_routers = topology.fabric.num_routers
        links = np.array(
            sorted(
                (link.src_router, link.src_port, link.dst_router)
                for router in range(num_routers)
                for link in topology.global_links_of(router)
            ),
            dtype=np.int64,
        ).reshape(-1, 3)
        self.link_src, self.link_port, self.link_dst = links.T.copy()
        num_links = links.shape[0]
        local = np.arange(a, dtype=np.int64)
        # Ports, VCs and advances are all below the radix: int16 keeps
        # the 16 512-terminal table at 4.7 MiB.
        hops = np.zeros((num_routers + 3 * num_links, a, 3), dtype=np.int16)

        # Final stages: eject at the destination router, else the local
        # hop toward it on the final VC.
        dest = (np.arange(num_routers, dtype=np.int64) % a)[:, None]
        here = dest == local
        final = hops[:num_routers]
        final[:, :, 0] = np.where(here, -1, p + dest - (dest > local))
        final[:, :, 1] = np.where(here, 0, vcs.CANONICAL.final_local_vc)

        # Link stages: the link's own port at its gateway router (one
        # global hop: advance 1), else the local hop toward the gateway.
        gate = (self.link_src % a)[:, None]
        at_gate = gate == local
        staged = hops[num_routers:].reshape(num_links, 3, a, 3)
        staged[:, :, :, 0] = np.where(
            at_gate, self.link_port[:, None], p + gate - (gate > local)
        )[:, None, :]
        for k, (minimal, phase) in enumerate(((True, 0), (False, 0), (False, 1))):
            staged[:, k, :, 1] = np.where(
                at_gate,
                vcs.CANONICAL.global_vc(minimal, phase),
                vcs.CANONICAL.local_vc(minimal, phase),
            )
        staged[:, :, :, 2] = at_gate[:, None, :]
        self.hops = hops.reshape(-1, 3)

        stage = np.arange(num_routers, dtype=np.int64)
        self.final_keys = a * (stage - stage // a)
        link_stage = num_routers + 3 * np.arange(num_links, dtype=np.int64)
        self.link_keys = a * (
            (link_stage - self.link_src // a)[:, None] + np.arange(3)
        )


def dragonfly_path_grammar(
    assignment: vcs.VcAssignment = vcs.CANONICAL,
    include_nonminimal: bool = True,
) -> PathGrammar:
    """The channel-class structure of every route :func:`next_hop` emits.

    Instance-independent: valid for **any** dragonfly (a, p, h, g),
    because groups are complete graphs -- every local segment is at most
    one hop and every global segment exactly one, regardless of size.
    The three route classes mirror Section 4.1 (and the enumeration of
    :meth:`repro.routing.tables.Lowering.routes`):

    * ``intra-group`` -- source and destination share a group: at most
      one local hop on the final-stage VC;
    * ``minimal`` -- the 3-step route: local hop to the gateway router
      (skipped when the source *is* the gateway), the global channel,
      local hop to the destination router (skipped when the global
      channel lands on it);
    * ``nonminimal`` -- the 5-step Valiant route through an intermediate
      group (both local hops around each gateway optional as above; the
      two global channels always present -- degenerate Valiant draws
      collapse to the ``minimal`` plan before routing starts).
    """
    final = ChannelClass("local", assignment.final_local_vc)
    route_classes = [
        RouteClass("intra-group", (Segment(final, optional=True),)),
        RouteClass(
            "minimal",
            (
                Segment(
                    ChannelClass("local", assignment.minimal_first_vc),
                    optional=True,
                ),
                Segment(ChannelClass("global", assignment.minimal_first_vc)),
                Segment(final, optional=True),
            ),
        ),
    ]
    if include_nonminimal and assignment.supports_nonminimal:
        route_classes.append(RouteClass(
            "nonminimal",
            (
                Segment(
                    ChannelClass("local", assignment.nonminimal_first_vc),
                    optional=True,
                ),
                Segment(ChannelClass("global", assignment.nonminimal_first_vc)),
                Segment(
                    ChannelClass("local", assignment.intermediate_vc),
                    optional=True,
                ),
                Segment(ChannelClass("global", assignment.intermediate_vc)),
                Segment(final, optional=True),
            ),
        ))
    return PathGrammar(
        name=f"dragonfly@{assignment.name}",
        num_vcs=assignment.num_vcs,
        route_classes=tuple(route_classes),
    )


def degraded_dragonfly_grammar(
    assignment: vcs.VcAssignment = vcs.CANONICAL,
    fault_classes: Tuple[FaultClass, ...] = ALL_FAULT_CLASSES,
) -> DegradedPathGrammar:
    """The degraded-family grammar: healthy minimal routes + fault detours.

    Instance-independent like :func:`dragonfly_path_grammar`, but
    parameterised by symbolic *fault classes* rather than a concrete
    fault set: any dragonfly of the family, degraded by any fault set
    exhibiting only the given classes and recompiled by the detour
    recompiler (:func:`repro.routing.tables.compile_dragonfly_tables`
    with faults), emits only routes these route classes describe.

    * The healthy base is the *minimal-only* grammar -- degraded tables
      are compiled without adaptive non-minimal entries, so the Valiant
      class is absent and its VC ladder is free for detours.
    * ``severed-group-pair`` adds the ``fault-detour`` route class: the
      third-group detour the recompiler programs for the severed pair,
      shaped exactly like a Valiant route (and therefore using the
      non-minimal VC ladder, which is why the assignment must support
      non-minimal VCs even though no adaptive routing happens).
    * ``dead-local-link`` / ``dead-router`` widen local segments to
      relay walks; :meth:`DegradedPathGrammar.compose` handles that.
    """
    for fault in fault_classes:
        if not isinstance(fault, FaultClass):
            raise TypeError(f"not a FaultClass: {fault!r}")
    detour_classes: List[RouteClass] = []
    if SEVERED_GROUP_PAIR in fault_classes:
        if not assignment.supports_nonminimal:
            raise TopologyError(
                f"assignment {assignment.name!r} has no non-minimal VC "
                "ladder for detour routes around a severed group pair"
            )
        final = ChannelClass("local", assignment.final_local_vc)
        detour_classes.append(RouteClass(
            "fault-detour",
            (
                Segment(
                    ChannelClass("local", assignment.nonminimal_first_vc),
                    optional=True,
                ),
                Segment(ChannelClass("global", assignment.nonminimal_first_vc)),
                Segment(
                    ChannelClass("local", assignment.intermediate_vc),
                    optional=True,
                ),
                Segment(ChannelClass("global", assignment.intermediate_vc)),
                Segment(final, optional=True),
            ),
        ))
    return DegradedPathGrammar(
        healthy=dragonfly_path_grammar(assignment, include_nonminimal=False),
        fault_classes=tuple(fault_classes),
        detour_classes=tuple(detour_classes),
    )


def walk_route(
    topology: Any,
    next_hop: Callable[[Any, int, Any, int, int], Tuple[int, int, int]],
    src_router: int,
    dst_terminal: int,
    plan: Any,
) -> List[Tuple[int, int, int]]:
    """Full (router, out_port, vc) trace of a plan, ending at ejection.

    The one route walker of every family: ``next_hop`` is the family's
    executor ``(topology, router, plan, progress, dst_terminal) ->
    (out_port, out_vc, next_progress)``, :attr:`repro.routing.tables.
    Lowering.next_hop`.  Used by tests, analytics and the static
    certifier (:meth:`repro.routing.tables.Lowering.trace`); the
    simulator runs hops one at a time through a routing's hop memo.  A
    loop-free route visits each router at most once, so a walk longer
    than the fabric has routers is a routing bug and raises
    :class:`TopologyError`.
    """
    fabric = topology.fabric
    trace = []
    router = src_router
    progress = 0
    for _ in range(fabric.num_routers + 2):
        port, vc, progress = next_hop(topology, router, plan, progress, dst_terminal)
        trace.append((router, port, vc))
        channel = fabric.out_channel(router, port)
        if channel is None:
            return trace  # ejected: terminal ports carry no channel
        router = channel.dst.router
    raise TopologyError(
        f"{type(topology).__name__} route from router {src_router} to "
        f"terminal {dst_terminal} under {plan!r} failed to terminate: "
        f"still at router {router} after {len(trace)} hops (routing bug)"
    )
