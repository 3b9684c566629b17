"""Fault model for compiled-table routing (link and router removals).

Deployed machines route around broken cables and routers by
*reprogramming forwarding tables*, not by changing the routing code --
the controller workflow of the InfiniBand dragonfly literature.  This
module gives faults a first-class representation that the table
compiler (:mod:`repro.routing.tables`) consumes: a
:class:`FaultSet` names dead bidirectional cables (by their endpoint
router pair) and dead routers (which kill every attached cable and
terminal).

Faults are purely topological: the healthy :class:`Fabric` is left
untouched, and a fault set is interpreted as a filter over its channels.
That keeps one topology object shared between the healthy and every
degraded table set, and makes "which routes survive" a property the
static verifier (:mod:`repro.check.tables`) can decide without
rebuilding anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Tuple

from ..core.params import TopologyError

#: The fault-class kinds the symbolic certifier reasons about.
FAULT_CLASS_KINDS = ("severed-group-pair", "dead-local-link", "dead-router")


@dataclass(frozen=True)
class FaultClass:
    """A fault abstracted by *role*, not identity.

    The symbolic certifier (:mod:`repro.check.symbolic`) proves degraded
    families deadlock-free without naming any concrete cable: what
    matters for the class-level dependency graph is only which *shapes*
    of degradation the tables route around.  Three shapes exist for the
    dragonfly family:

    * ``severed-group-pair`` -- some group pair lost every direct global
      cable; routes between the two groups take the three-group detour
      (the non-minimal VC ladder, repurposed).
    * ``dead-local-link`` -- some intra-group cable died; entries whose
      direct local hop died are repointed through a surviving relay
      neighbour, making local segments multi-hop.
    * ``dead-router`` -- a router died, taking its terminals, its global
      cables (possibly severing group pairs) and its local cables
      (forcing relays) with it.

    A concrete :class:`FaultSet` projects onto the fault classes it
    exhibits via :meth:`FaultSet.fault_classes`; a *family-level*
    certificate quantifies over fault sets by taking the classes
    directly (any fault set exhibiting only these classes is covered).
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_CLASS_KINDS:
            raise ValueError(
                f"unknown fault class kind {self.kind!r}; choose from "
                f"{FAULT_CLASS_KINDS}"
            )

    def describe(self) -> str:
        return self.kind


#: The three dragonfly fault classes, in canonical order.
SEVERED_GROUP_PAIR = FaultClass("severed-group-pair")
DEAD_LOCAL_LINK = FaultClass("dead-local-link")
DEAD_ROUTER = FaultClass("dead-router")
ALL_FAULT_CLASSES = (SEVERED_GROUP_PAIR, DEAD_LOCAL_LINK, DEAD_ROUTER)


@dataclass(frozen=True)
class LinkFault:
    """One dead bidirectional cable, named by its endpoint routers.

    Both directed channels of the cable die.  For multi-cable router
    pairs (non-maximal dragonflies can wire several global cables
    between one router pair) the fault kills *all* cables between the
    two routers -- the conservative reading of "this pair of line cards
    cannot talk".
    """

    router_a: int
    router_b: int

    def normalized(self) -> "LinkFault":
        if self.router_a <= self.router_b:
            return self
        return LinkFault(self.router_b, self.router_a)


@dataclass(frozen=True)
class RouterFault:
    """A dead router: every attached cable and terminal is lost."""

    router: int


@dataclass(frozen=True)
class FaultSet:
    """A set of link and router faults, queryable by the compiler.

    Construct via :meth:`of` so link faults are normalised (unordered
    endpoint pairs) and duplicates collapse.
    """

    links: FrozenSet[LinkFault] = field(default_factory=frozenset)
    routers: FrozenSet[RouterFault] = field(default_factory=frozenset)

    @classmethod
    def of(
        cls,
        links: Iterable[Tuple[int, int]] = (),
        routers: Iterable[int] = (),
    ) -> "FaultSet":
        return cls(
            links=frozenset(LinkFault(a, b).normalized() for a, b in links),
            routers=frozenset(RouterFault(r) for r in routers),
        )

    def __bool__(self) -> bool:
        return bool(self.links) or bool(self.routers)

    def router_dead(self, router: int) -> bool:
        return RouterFault(router) in self.routers

    def link_dead(self, router_a: int, router_b: int) -> bool:
        """True when no cable between the two routers survives."""
        if self.router_dead(router_a) or self.router_dead(router_b):
            return True
        return LinkFault(router_a, router_b).normalized() in self.links

    def describe(self) -> str:
        parts = [
            f"link {fault.router_a}<->{fault.router_b}"
            for fault in sorted(self.links, key=lambda f: (f.router_a, f.router_b))
        ]
        parts += [
            f"router {fault.router}"
            for fault in sorted(self.routers, key=lambda f: f.router)
        ]
        return ", ".join(parts) if parts else "no faults"

    def fault_classes(self, topology) -> Tuple[FaultClass, ...]:
        """The symbolic fault classes this concrete fault set exhibits.

        Projects identities away: dead routers report ``dead-router``,
        same-group link faults report ``dead-local-link``, and any group
        pair left without a surviving direct cable (whether by explicit
        global link faults, by router deaths, or both) reports
        ``severed-group-pair``.  The degraded grammar built from these
        classes (:func:`repro.routing.paths.degraded_dragonfly_grammar`)
        therefore covers every route the detour recompiler programs for
        this fault set.
        """
        classes: List[FaultClass] = []
        for src_group in range(topology.g):
            severed = False
            for dest_group in range(src_group + 1, topology.g):
                links = topology.group_links(src_group, dest_group)
                if links and all(
                    self.link_dead(link.src_router, link.dst_router)
                    for link in links
                ):
                    severed = True
                    break
            if severed:
                classes.append(SEVERED_GROUP_PAIR)
                break
        if any(
            topology.group_of(fault.router_a) == topology.group_of(fault.router_b)
            for fault in self.links
        ):
            classes.append(DEAD_LOCAL_LINK)
        if self.routers:
            classes.append(DEAD_ROUTER)
        return tuple(classes)

    def validate(self, topology) -> None:
        """Check every named fault exists in the fabric; raises otherwise.

        A fault set naming a cable that was never wired would silently
        degrade nothing -- almost certainly a typo in an experiment.
        Error messages name the offending element and the fabric bound
        that rejects it, so a bad sweep manifest points at its own typo.
        """
        fabric = topology.fabric
        num_routers = fabric.num_routers
        for fault in sorted(self.routers, key=lambda f: f.router):
            if not (0 <= fault.router < num_routers):
                raise TopologyError(
                    f"router fault {fault.router} does not exist: this "
                    f"fabric has routers 0..{num_routers - 1}"
                )
        wired = set()
        for forward, _ in fabric.bidirectional_links():
            pair = (forward.src.router, forward.dst.router)
            wired.add((min(pair), max(pair)))
        for fault in sorted(self.links, key=lambda f: (f.router_a, f.router_b)):
            for endpoint in (fault.router_a, fault.router_b):
                if not (0 <= endpoint < num_routers):
                    raise TopologyError(
                        f"link fault {fault.router_a}<->{fault.router_b}: "
                        f"router {endpoint} does not exist: this fabric "
                        f"has routers 0..{num_routers - 1}"
                    )
            pair = (fault.router_a, fault.router_b)
            if (min(pair), max(pair)) not in wired:
                raise TopologyError(
                    f"link fault {fault.router_a}<->{fault.router_b}: no "
                    f"cable is wired between routers {fault.router_a} and "
                    f"{fault.router_b} in this fabric "
                    f"({len(wired)} wired pairs); a fault naming an "
                    "unwired pair would degrade nothing"
                )


#: The empty fault set (healthy fabric); shared default.
NO_FAULTS = FaultSet()


def canonical_global_faults(topology, count: int) -> FaultSet:
    """The canonical ``count``-cable degradation: sever ``count`` disjoint
    group pairs.

    Pair ``k`` (for ``k < count``) is groups ``(2k, 2k+1)``; *every*
    direct cable between the two groups dies, so traffic between them
    must take a third-group detour.  Using disjoint pairs keeps each
    degradation independent (no shared endpoint group), which makes
    throughput-vs-faults sweeps monotone and easy to read.  No routers
    die, so the terminal set (and hence any traffic pattern) is
    unchanged.
    """
    if count < 0:
        raise TopologyError(f"fault count {count} is negative")
    if 2 * count > topology.g:
        raise TopologyError(
            f"cannot sever {count} disjoint group pairs: this fabric has "
            f"only {topology.g} groups (needs {2 * count})"
        )
    links: List[Tuple[int, int]] = []
    for k in range(count):
        for link in topology.group_links(2 * k, 2 * k + 1):
            links.append((link.src_router, link.dst_router))
    return FaultSet.of(links=links)
