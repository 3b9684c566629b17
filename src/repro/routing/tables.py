"""Forwarding-table compiler: routing families lowered to explicit tables.

At the machine scales of Table 2, routing is not deployed as code -- a
controller programs per-router forwarding/VC tables (the form the
InfiniBand dragonfly literature certifies).  This module lowers every
routing family of :mod:`repro.check.registry` into that form:

* a :class:`ForwardingTables` object maps, per router, a lookup key
  ``(dest_group, dest_router, in_vc)`` to one or more
  :class:`TableEntry` values ``(out_port, out_vc)``;
* routes are *programs over legs*: a :class:`Leg` names the table key a
  packet enters the network (or a Valiant phase) with, and the table is
  followed by threading -- each hop's ``out_vc`` is the next router's
  ``in_vc`` (a ``next_vc`` override covers the torus dateline reset);
* when one key has several candidate entries (several global links
  between a group pair, several Clos up ports), entries carry a ``via``
  tag and the leg says which tags its route committed to;
* :class:`TableRouting` is the simulator's one table executor: every
  table-driven routing (the extension families, a dragonfly algorithm
  over imported tables, the fault-degraded ``TBL-MIN/gcK``) decides by
  its own rule and walks each hop with the :class:`TableWalker` the
  certifier uses, over the rule's :meth:`Lowering.legs` program;
* :func:`compile_dragonfly_tables` accepts a
  :class:`~repro.topology.faults.FaultSet` and recompiles around dead
  links and routers (detour via a third group when a group pair loses
  all its global links, local repair hops inside broken groups).

The static verifier over this form lives in :mod:`repro.check.tables`;
the versioned JSON export (:meth:`ForwardingTables.dump` /
:meth:`ForwardingTables.load`) is what a controller pipeline would ship.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from array import array
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from ..network.packet import RoutePlan
from ..topology.dragonfly import Dragonfly, GlobalLink
from ..topology.faults import FaultSet, NO_FAULTS, canonical_global_faults
from ..topology.flattened_butterfly import FlattenedButterfly
from ..topology.folded_clos import FoldedClos
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from ..topology.torus import Torus
from . import clos_routing, fb_paths, paths, torus_routing, variant_paths
from . import vc_assignment as vcs
from .base import CongestionView, RoutingAlgorithm
from .grammar import PathGrammar
from .paths import topology_memo

#: Version of the JSON table format; bumped on incompatible change.
SCHEMA_VERSION = 1

#: Lookup key: (dest_group, dest_router, in_vc).  Families without a
#: group level (flattened butterfly, torus, folded Clos) use group 0.
TableKey = Tuple[int, int, int]

#: Discriminator for keys with several candidate entries:
#: ``("link", src_router, src_port)`` names a global link,
#: ``("up", level, port)`` a folded-Clos up-port choice.
ViaTag = Tuple[Any, ...]

#: One walked hop: (router, out_port, out_vc).
Hop = Tuple[int, int, int]


class TableCompileError(Exception):
    """The configuration cannot be lowered to consistent tables."""


class TableRouteError(Exception):
    """A table walk failed: missing key, ambiguous entry, or a loop."""


def link_tag(link: GlobalLink) -> ViaTag:
    """The via tag of a global link (its source endpoint is unique)."""
    return ("link", link.src_router, link.src_port)


@dataclass(frozen=True)
class TableEntry:
    """One forwarding decision: output port and VC for a lookup key.

    ``next_vc`` overrides the in-VC the packet presents at the next
    router (default: ``out_vc``); only the torus dateline reset needs
    it.  ``via`` tags the route choice this entry belongs to when its
    key has several candidates.
    """

    out_port: int
    out_vc: int
    next_vc: Optional[int] = None
    via: Optional[ViaTag] = None

    @property
    def in_vc_at_next(self) -> int:
        return self.out_vc if self.next_vc is None else self.next_vc


class Leg(NamedTuple):
    """One stage of a table-routed journey.

    A packet (or Valiant phase) enters the tables with key
    ``(target_group, target_router, entry_vc)`` and follows threading
    until it stands on ``target_router``.  ``via`` restricts candidate
    entries to the tags the route committed to at decision time.  (A
    named tuple: the certifier builds one or two per enumerated route.)
    """

    target_group: int
    target_router: int
    entry_vc: int
    via: Optional[FrozenSet[ViaTag]] = None


class RouteCase(NamedTuple):
    """One enumerable route: its leg program and the algorithmic trace.

    ``algorithmic`` is the (router, out_port, out_vc) trace the family's
    executor produces for the same decision, ending with the ejection
    hop -- ``None`` for fault-degraded configurations, which have no
    algorithmic counterpart.
    """

    label: str
    src_router: int
    dst_terminal: int
    legs: Tuple[Leg, ...]
    algorithmic: Optional[Tuple[Tuple[int, int, int], ...]] = None


class ForwardingTables:
    """Compiled per-router forwarding tables with a versioned export.

    ``routers[r]`` maps a :data:`TableKey` to the candidate entries for
    that key, keyed by via tag (``None`` for single-candidate keys).
    ``meta`` carries verifier-relevant compile provenance: the Valiant
    flip parameters (which VCs can start a new leg where) and, for
    degraded tables, the chosen detours.
    """

    def __init__(
        self,
        name: str,
        family: str,
        num_vcs: int,
        num_routers: int,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.family = family
        self.num_vcs = num_vcs
        self.num_routers = num_routers
        self.meta: Dict[str, Any] = meta or {}
        self.routers: Dict[int, Dict[TableKey, Dict[Optional[ViaTag], TableEntry]]] = {}
        #: router -> key -> that key's candidates in via-tag order,
        #: resolved on first query.  :meth:`add` and :meth:`replace` drop
        #: the slot they change; edit ``routers`` only before querying.
        self._resolved: Dict[int, Dict[TableKey, Tuple[TableEntry, ...]]] = {}

    # -- construction ---------------------------------------------------
    def add(self, router: int, key: TableKey, entry: TableEntry) -> None:
        """Add an entry; duplicates collapse, contradictions raise.

        Two entries for the same (router, key, via) must agree exactly
        -- a disagreement means two route stages demand different
        behaviour from one table slot, i.e. the family is not lowerable
        with this key structure.
        """
        if entry.out_vc >= self.num_vcs or (
            entry.next_vc is not None and entry.next_vc >= self.num_vcs
        ):
            raise TableCompileError(
                f"entry {entry} at router {router} key {key} exceeds "
                f"the {self.num_vcs}-VC budget of {self.name}"
            )
        slots = self.routers.setdefault(router, {}).setdefault(key, {})
        existing = slots.get(entry.via)
        if existing is None:
            slots[entry.via] = entry
            self._forget(router, key)
        elif existing != entry:
            raise TableCompileError(
                f"conflicting entries at router {router} key {key} "
                f"via {entry.via}: {existing} vs {entry}"
            )

    def replace(self, router: int, key: TableKey, entry: TableEntry) -> None:
        """Overwrite the (router, key, via) slot (fault-repair pass)."""
        self.routers[router][key][entry.via] = entry
        self._forget(router, key)

    def _forget(self, router: int, key: TableKey) -> None:
        resolved = self._resolved.get(router)
        if resolved is not None:
            resolved.pop(key, None)

    # -- queries --------------------------------------------------------
    def candidates(self, router: int, key: TableKey) -> Tuple[TableEntry, ...]:
        """The entries for ``key`` at ``router``, sorted by via tag."""
        try:
            return self._resolved[router][key]
        except KeyError:
            slots = self.routers.get(router, {}).get(key, {})
            entries = self._resolved.setdefault(router, {})[key] = tuple(
                slots[tag] for tag in sorted(slots, key=lambda t: (t is not None, t))
            )
            return entries

    def lookup(
        self,
        router: int,
        key: TableKey,
        via: Optional[AbstractSet[ViaTag]] = None,
    ) -> TableEntry:
        """Resolve the entry a packet with this key takes at ``router``.

        Single-candidate keys resolve unconditionally; multi-candidate
        keys need the leg's ``via`` set to select exactly one entry.
        """
        entries = self.candidates(router, key)
        if not entries:
            raise TableRouteError(
                f"router {router} has no entry for key {key} in {self.name}"
            )
        if len(entries) == 1:
            return entries[0]
        if via:
            matched = [e for e in entries if e.via in via]
            if matched and all(e == matched[0] for e in matched):
                return matched[0]
        raise TableRouteError(
            f"router {router} key {key}: {len(entries)} candidates, "
            f"via {sorted(via) if via else None} does not select one"
        )

    def entries(self) -> Iterator[Tuple[int, TableKey, TableEntry]]:
        """All (router, key, entry) triples in deterministic order."""
        for router in sorted(self.routers):
            table = self.routers[router]
            for key in sorted(table):
                for entry in self.candidates(router, key):
                    yield router, key, entry

    def num_entries(self) -> int:
        return sum(1 for _ in self.entries())

    # -- serialisation --------------------------------------------------
    def to_json_dict(self) -> Dict[str, Any]:
        routers: Dict[str, Dict[str, List[List[Any]]]] = {}
        for router in sorted(self.routers):
            table: Dict[str, List[List[Any]]] = {}
            for key in sorted(self.routers[router]):
                table["/".join(str(part) for part in key)] = [
                    [
                        e.out_port,
                        e.out_vc,
                        e.next_vc,
                        list(e.via) if e.via is not None else None,
                    ]
                    for e in self.candidates(router, key)
                ]
            routers[str(router)] = table
        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "family": self.family,
            "num_vcs": self.num_vcs,
            "num_routers": self.num_routers,
            "meta": self.meta,
            "routers": routers,
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "ForwardingTables":
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise TableCompileError(
                f"unsupported table schema version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        tables = cls(
            name=data["name"],
            family=data["family"],
            num_vcs=data["num_vcs"],
            num_routers=data["num_routers"],
            meta=dict(data.get("meta", {})),
        )
        for router_text, table in data["routers"].items():
            router = int(router_text)
            for key_text, raw_entries in table.items():
                g, r, vc = (int(part) for part in key_text.split("/"))
                for out_port, out_vc, next_vc, via in raw_entries:
                    tables.add(
                        router,
                        (g, r, vc),
                        TableEntry(
                            out_port=out_port,
                            out_vc=out_vc,
                            next_vc=next_vc,
                            via=tuple(via) if via is not None else None,
                        ),
                    )
        return tables

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ForwardingTables":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json_dict(json.load(handle))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ForwardingTables):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_entries()} entries over "
            f"{len(self.routers)} routers, {self.num_vcs} VCs"
        )


class TableWalker:
    """Leg programs executed over one table set on one topology.

    Each (router, key, via set) resolves once, through
    :meth:`ForwardingTables.lookup`, to its step: the hop it emits, the
    router the hop lands on and the in-VC presented there.  A lookup
    that fails is not remembered.  Build a walker after the tables are
    final; it does not see later edits.
    """

    def __init__(self, topology: Any, tables: ForwardingTables) -> None:
        self.topology = topology
        self.tables = tables
        self.bound = 4 * tables.num_routers + 16
        #: ``(router, group, target, in_vc, via)`` -> :meth:`step`.
        self.steps: Dict[Tuple[Any, ...], Tuple[Hop, int, int]] = {}

    def step(
        self, router: int, key: TableKey, via: Optional[FrozenSet[ViaTag]]
    ) -> Tuple[Hop, int, int]:
        """The hop ``key`` programs at ``router``, the router it lands on
        and the in-VC presented there."""
        step = self.steps.get((router, *key, via))
        if step is not None:
            return step
        entry = self.tables.lookup(router, key, via)
        channel = self.topology.fabric.out_channel(router, entry.out_port)
        if channel is None:
            raise TableRouteError(
                f"entry {entry} at router {router} points at an "
                f"unwired port in {self.tables.name}"
            )
        step = self.steps[(router, *key, via)] = (
            (router, entry.out_port, entry.out_vc),
            channel.dst.router,
            entry.in_vc_at_next,
        )
        return step

    def walk(
        self, src_router: int, dst_terminal: int, legs: Tuple[Leg, ...]
    ) -> List[Hop]:
        """Execute a leg program over the tables.

        Returns the (router, out_port, out_vc) trace ending with the
        ejection hop -- the same shape as the algorithmic
        :func:`~repro.routing.paths.walk_route`, which is what makes the
        two executors comparable hop by hop.  Raises
        :class:`TableRouteError` on a missing or ambiguous entry or when
        the walk exceeds the loop bound.
        """
        trace = self.channel_hops(src_router, legs)
        trace.append((
            legs[-1].target_router, self.topology.terminal_port(dst_terminal), 0
        ))
        return trace

    def channel_hops(self, src_router: int, legs: Tuple[Leg, ...]) -> List[Hop]:
        """The network hops of a leg program, without the ejection hop."""
        steps = self.steps
        bound = self.bound
        trace: List[Hop] = []
        router = src_router
        for group, target, in_vc, via in legs:
            while router != target:
                step = steps.get((router, group, target, in_vc, via))
                if step is None:
                    step = self.step(router, (group, target, in_vc), via)
                hop, router, in_vc = step
                trace.append(hop)
                if len(trace) > bound:
                    raise TableRouteError(
                        f"table walk from router {src_router} to router "
                        f"{legs[-1].target_router} exceeded {bound} hops "
                        f"(routing loop) in {self.tables.name}"
                    )
        return trace


# ----------------------------------------------------------------------
# Grouped families: dragonfly and the Figure 6 flattened-butterfly-group
# variant share the compiler; only the intra-group step function differs
# (direct local channel vs the first hop of a dimension-order walk).
# ----------------------------------------------------------------------
def _grouped_flip_meta(assignment: vcs.VcAssignment) -> Dict[str, Any]:
    """Valiant flip parameters for the table-level CDG (see check.tables).

    After the first global hop of a non-minimal route (key VC
    ``nonminimal_first_vc``), the packet abandons its phase-0 key and
    re-enters the tables with the destination leg's key (entry VC
    ``intermediate_vc``, destination group necessarily different from
    the landing group).  The verifier adds dependency edges for exactly
    these leg boundaries.
    """
    return {
        "source_vcs": [assignment.nonminimal_first_vc],
        "entry_vc": assignment.intermediate_vc,
        "global_only": True,
        "grouped": True,
    }


def _compile_grouped(
    topology: Any,
    assignment: vcs.VcAssignment,
    include_nonminimal: bool,
    local_toward: Callable[[int, int], int],
    family: str,
    name: str,
) -> ForwardingTables:
    """Lower dragonfly-style routing (Section 4.1) onto tables.

    Entry kinds, mirroring the algorithmic executor's stages:

    * destination-group entries: key ``(G, R, vc)`` at every other
      router of ``G`` steps toward ``R`` on the final-local VC, for
      ``vc`` in {final, minimal-first, intermediate} (the latter two are
      the global-hop landing VCs of minimal and Valiant routes);
    * minimal-stage entries: at every router of every other group ``S``,
      key ``(G, R, minimal_first)`` steps toward (then across) each
      global link ``S -> G``, tagged with the link's via;
    * the same per-link entries on the intermediate VC serve the
      Valiant route's second phase;
    * phase-0 entries: key ``(M, link.dst_router, nonminimal_first)``
      steps toward (then across) each global link ``S -> M`` -- the
      Valiant first phase targets the link's landing router.

    Keys sharing a VC between stages (e.g. the canonical assignment's
    ``minimal_first == intermediate``) produce *identical* entries and
    collapse in :meth:`ForwardingTables.add`; a true contradiction
    raises :class:`TableCompileError`.
    """
    a, g = topology.a, topology.g
    nonmin = include_nonminimal and assignment.supports_nonminimal
    mf = assignment.minimal_first_vc
    nf = assignment.nonminimal_first_vc
    iv = assignment.intermediate_vc
    fv = assignment.final_local_vc
    meta = _grouped_flip_meta(assignment) if nonmin else {}
    tables = ForwardingTables(
        name=name,
        family=family,
        num_vcs=assignment.num_vcs,
        num_routers=topology.fabric.num_routers,
        meta={"flip": meta} if meta else {},
    )
    for dest_group in range(g):
        group_routers = range(dest_group * a, (dest_group + 1) * a)
        for dest in group_routers:
            landing_vcs = {fv, mf} | ({iv} if nonmin else set())
            for router in group_routers:
                if router == dest:
                    continue
                port = local_toward(router, dest)
                for vc in landing_vcs:
                    tables.add(router, (dest_group, dest, vc), TableEntry(port, fv))
            for src_group in range(g):
                if src_group == dest_group:
                    continue
                for link in topology.group_links(src_group, dest_group):
                    tag = link_tag(link)
                    stage_vcs = (mf, iv) if nonmin else (mf,)
                    for router in range(src_group * a, (src_group + 1) * a):
                        if router == link.src_router:
                            port = link.src_port
                        else:
                            port = local_toward(router, link.src_router)
                        for vc in stage_vcs:
                            tables.add(
                                router,
                                (dest_group, dest, vc),
                                TableEntry(port, vc, via=tag),
                            )
    if nonmin:
        for src_group in range(g):
            for mid_group in range(g):
                if mid_group == src_group:
                    continue
                for link in topology.group_links(src_group, mid_group):
                    tag = link_tag(link)
                    key = (mid_group, link.dst_router, nf)
                    for router in range(src_group * a, (src_group + 1) * a):
                        if router == link.src_router:
                            port = link.src_port
                        else:
                            port = local_toward(router, link.src_router)
                        tables.add(router, key, TableEntry(port, nf, via=tag))
    return tables


def compile_dragonfly_tables(
    topology: Dragonfly,
    assignment: vcs.VcAssignment = vcs.CANONICAL,
    include_nonminimal: bool = True,
    faults: FaultSet = NO_FAULTS,
    name: Optional[str] = None,
) -> ForwardingTables:
    """Compile dragonfly routing to tables, optionally around faults."""
    if faults:
        return _compile_degraded_dragonfly(
            topology, assignment, include_nonminimal, faults, name
        )
    return _compile_grouped(
        topology,
        assignment,
        include_nonminimal,
        topology.local_port,
        family="dragonfly",
        name=name or f"dragonfly@{assignment.name}",
    )


def compile_variant_tables(
    topology: FlattenedButterflyGroupDragonfly,
    assignment: vcs.VcAssignment = vcs.CANONICAL,
    include_nonminimal: bool = True,
    name: Optional[str] = None,
) -> ForwardingTables:
    """Compile Figure 6 group-variant routing to tables.

    Identical key structure to the dragonfly; the intra-group step is
    the first hop of the group's dimension-order walk, and threading
    (equal in/out VC within a stage) carries the walk to its target.
    """

    def local_toward(router: int, target: int) -> int:
        return variant_paths._dor_port(topology, router, target)

    return _compile_grouped(
        topology,
        assignment,
        include_nonminimal,
        local_toward,
        family="dragonfly-fbgroup",
        name=name or f"dragonfly-fbgroup@{assignment.name}",
    )


# ----------------------------------------------------------------------
# Fault-degraded dragonfly compilation
# ----------------------------------------------------------------------
def _surviving_links(
    topology: Dragonfly, faults: FaultSet, src_group: int, dest_group: int
) -> List[GlobalLink]:
    """The global links from ``src_group`` to ``dest_group`` still alive."""
    return [
        link
        for link in topology.group_links(src_group, dest_group)
        if not faults.link_dead(link.src_router, link.dst_router)
    ]


def _detour_choice(
    topology: Dragonfly, faults: FaultSet, src_group: int, dest_group: int
) -> Tuple[int, GlobalLink, GlobalLink]:
    """Deterministic detour for a disconnected group pair.

    The smallest third group with surviving links both ways, using the
    first surviving link of each stage -- deterministic so exported
    tables, verifier legs, and re-compiles agree without coordination.
    """
    for mid_group in range(topology.g):
        if mid_group in (src_group, dest_group):
            continue
        first_leg = _surviving_links(topology, faults, src_group, mid_group)
        second_leg = _surviving_links(topology, faults, mid_group, dest_group)
        if first_leg and second_leg:
            return mid_group, first_leg[0], second_leg[0]
    raise TableCompileError(
        f"groups {src_group} and {dest_group} are disconnected even via "
        f"detours under faults ({faults.describe()})"
    )


def _compile_degraded_dragonfly(
    topology: Dragonfly,
    assignment: vcs.VcAssignment,
    include_nonminimal: bool,
    faults: FaultSet,
    name: Optional[str],
) -> ForwardingTables:
    """Minimal tables routing around a fault set.

    Degraded tables are compiled for minimal traffic only: Valiant's
    randomised phase has no business on a fabric the controller is
    actively routing around, and the three-stage VC ladder of the
    non-minimal assignment is repurposed for *detours* -- when a group
    pair loses every direct global link, routes take
    ``src group --(nonminimal_first)--> mid group --(intermediate)-->
    destination group --(final)``, exactly the published non-minimal VC
    grammar, so one certified assignment covers both healthy minimal
    routes and fault detours.

    Local faults inside a (no longer complete) group are handled by a
    repair pass: entries whose direct local channel died are repointed
    to the smallest surviving neighbour whose own tables continue the
    same key.
    """
    faults.validate(topology)
    if include_nonminimal:
        raise TableCompileError(
            "degraded tables are minimal-only: compile with "
            "include_nonminimal=False (the non-minimal VC ladder is "
            "reserved for fault detours)"
        )
    if not assignment.supports_nonminimal:
        raise TableCompileError(
            "fault detours need the non-minimal VC ladder; assignment "
            f"{assignment.name!r} does not provide one"
        )
    a, g = topology.a, topology.g
    mf = assignment.minimal_first_vc
    nf = assignment.nonminimal_first_vc
    iv = assignment.intermediate_vc
    fv = assignment.final_local_vc
    tables = ForwardingTables(
        name=name or f"dragonfly-degraded@{assignment.name}",
        family="dragonfly",
        num_vcs=assignment.num_vcs,
        num_routers=topology.fabric.num_routers,
        meta={"faults": faults.describe(), "detours": {}},
    )

    def alive(router: int) -> bool:
        return not faults.router_dead(router)

    for dest_group in range(g):
        group_routers = [r for r in range(dest_group * a, (dest_group + 1) * a)]
        for dest in group_routers:
            if not alive(dest):
                continue
            # Destination-group entries (landing VCs: minimal landing on
            # mf, detour landing on iv, plus the final-local key).
            for router in group_routers:
                if router == dest or not alive(router):
                    continue
                port = topology.local_port(router, dest)
                for vc in {fv, mf, iv}:
                    tables.add(router, (dest_group, dest, vc), TableEntry(port, fv))
            for src_group in range(g):
                if src_group == dest_group:
                    continue
                links = _surviving_links(topology, faults, src_group, dest_group)
                if links:
                    for link in links:
                        tag = link_tag(link)
                        for router in range(src_group * a, (src_group + 1) * a):
                            if not alive(router):
                                continue
                            if router == link.src_router:
                                port = link.src_port
                            else:
                                port = topology.local_port(router, link.src_router)
                            # mf carries direct minimal traffic; iv
                            # carries detour traffic for which this
                            # group is the mid (identical entries when
                            # the assignment shares the two VCs).
                            for vc in {mf, iv}:
                                tables.add(
                                    router,
                                    (dest_group, dest, vc),
                                    TableEntry(port, vc, via=tag),
                                )
                    continue
                # Disconnected pair: route via a detour group.
                mid_group, first, second = _detour_choice(
                    topology, faults, src_group, dest_group
                )
                tables.meta["detours"][f"{src_group}->{dest_group}"] = {
                    "mid_group": mid_group,
                    "first": list(link_tag(first)),
                    "second": list(link_tag(second)),
                }
                first_tag = link_tag(first)
                second_tag = link_tag(second)
                for router in range(src_group * a, (src_group + 1) * a):
                    if not alive(router):
                        continue
                    if router == first.src_router:
                        port = first.src_port
                    else:
                        port = topology.local_port(router, first.src_router)
                    tables.add(
                        router,
                        (dest_group, dest, nf),
                        TableEntry(port, nf, via=first_tag),
                    )
                for router in range(mid_group * a, (mid_group + 1) * a):
                    if not alive(router):
                        continue
                    if router == second.src_router:
                        port = second.src_port
                    else:
                        port = topology.local_port(router, second.src_router)
                    # The detour lands here on the phase-0 VC and climbs
                    # onto the intermediate VC for the second stage.
                    for vc in {nf, iv}:
                        tables.add(
                            router,
                            (dest_group, dest, vc),
                            TableEntry(port, iv, via=second_tag),
                        )
    _repair_local_entries(topology, tables, faults)
    return tables


def _repair_local_entries(
    topology: Dragonfly, tables: ForwardingTables, faults: FaultSet
) -> None:
    """Repoint entries whose direct local channel died.

    The replacement neighbour ``w`` must be reachable from the entry's
    router, still reach the original next router, and (by construction
    of the degraded compiler) hold entries for every key it may be
    handed -- its own table continues the walk.  Chains of repairs are
    allowed; a repair that closes a loop is *not* prevented here, it is
    the verifier's job to refute such a table set.
    """
    fabric = topology.fabric
    repairs: List[Tuple[int, TableKey, TableEntry, TableEntry]] = []
    for router, key, entry in tables.entries():
        channel = fabric.out_channel(router, entry.out_port)
        if channel is None:
            continue
        next_router = channel.dst.router
        if not faults.link_dead(router, next_router):
            continue
        group = topology.group_of(router)
        replacement = None
        for candidate in range(group * topology.a, (group + 1) * topology.a):
            if candidate in (router, next_router):
                continue
            if faults.link_dead(router, candidate):
                continue
            if faults.link_dead(candidate, next_router):
                continue
            replacement = candidate
            break
        if replacement is None:
            raise TableCompileError(
                f"router {router} cannot reach {next_router} under faults "
                f"({faults.describe()}): no surviving local relay"
            )
        repaired = TableEntry(
            out_port=topology.local_port(router, replacement),
            out_vc=entry.out_vc,
            next_vc=entry.next_vc,
            via=entry.via,
        )
        repairs.append((router, key, entry, repaired))
    for router, key, _old, new in repairs:
        tables.replace(router, key, new)


# ----------------------------------------------------------------------
# Flattened butterfly
# ----------------------------------------------------------------------
def compile_fb_tables(
    topology: FlattenedButterfly, name: Optional[str] = None
) -> ForwardingTables:
    """Compile DOR + router-Valiant flattened-butterfly routing.

    Keys ``(0, dest, phase)``: phase 0 serves both minimal traffic and
    the first Valiant leg, phase 1 the second leg; each entry corrects
    the first differing dimension on the phase's VC.
    """
    tables = ForwardingTables(
        name=name or "flattened-butterfly@phase-vcs",
        family="flattened-butterfly",
        num_vcs=2,
        num_routers=topology.num_routers,
        meta={"flip": {
            "source_vcs": [0],
            "entry_vc": 1,
            "global_only": False,
            "grouped": False,
        }},
    )
    for dest in range(topology.num_routers):
        dest_coords = topology.coords_of(dest)
        for router in range(topology.num_routers):
            if router == dest:
                continue
            coords = topology.coords_of(router)
            for dim, (coord, goal) in enumerate(zip(coords, dest_coords)):
                if coord != goal:
                    port = topology.dim_port(router, dim, goal)
                    break
            for phase in (0, 1):
                tables.add(router, (0, dest, phase), TableEntry(port, phase))
    return tables


# ----------------------------------------------------------------------
# Torus (dateline DOR)
# ----------------------------------------------------------------------
def compile_torus_tables(
    topology: Torus,
    include_nonminimal: bool = False,
    name: Optional[str] = None,
) -> ForwardingTables:
    """Compile dateline dimension-order torus routing.

    Keys ``(0, dest, 2*phase + crossed)`` mirror the executor's progress
    encoding: ``crossed`` tracks whether the ring currently being
    corrected has wrapped.  The hop that finishes a dimension resets the
    next router's in-VC to the phase's fresh VC via ``next_vc`` -- the
    one place threading is not "in equals out".
    """
    phases = (0, 1) if include_nonminimal else (0,)
    num_vcs = 4 if include_nonminimal else 2
    meta: Dict[str, Any] = {}
    if include_nonminimal:
        meta["flip"] = {
            "source_vcs": [0, 1],
            "entry_vc": 2,
            "global_only": False,
            "grouped": False,
        }
    tables = ForwardingTables(
        name=name or f"torus@dateline-{num_vcs}vc",
        family="torus",
        num_vcs=num_vcs,
        num_routers=topology.num_routers,
        meta=meta,
    )
    for dest in range(topology.num_routers):
        dest_coords = topology.coords_of(dest)
        for router in range(topology.num_routers):
            if router == dest:
                continue
            coords = topology.coords_of(router)
            for dim, (coord, goal) in enumerate(zip(coords, dest_coords)):
                if coord != goal:
                    break
            size = topology.dims[dim]
            direction, wraps = torus_routing._ring_step(coord, goal, size)
            port = (
                topology.plus_port(dim) if direction > 0 else topology.minus_port(dim)
            )
            next_coord = (coord + direction) % size
            finishes_dim = next_coord == goal
            for phase in phases:
                for crossed in (0, 1):
                    vc = 2 * phase + (1 if (crossed or wraps) else 0)
                    if finishes_dim:
                        next_vc: Optional[int] = 2 * phase if vc != 2 * phase else None
                    else:
                        next_vc = None
                    tables.add(
                        router,
                        (0, dest, 2 * phase + crossed),
                        TableEntry(port, vc, next_vc=next_vc),
                    )
    return tables


# ----------------------------------------------------------------------
# Folded Clos (up*/down*)
# ----------------------------------------------------------------------
def compile_clos_tables(
    topology: FoldedClos, name: Optional[str] = None
) -> ForwardingTables:
    """Compile up*/down* folded-Clos routing.

    One key per destination leaf on the single VC.  Ancestors of the
    leaf descend deterministically (the leaf's digit at their level);
    every other switch ascends, with one via-tagged candidate per up
    port -- the route's freedom lives entirely in the leg's via set.
    """
    down = topology.down
    tables = ForwardingTables(
        name=name or "folded-clos@updown",
        family="folded-clos",
        num_vcs=1,
        num_routers=topology.num_switches,
        meta={},
    )
    for dest in range(topology.switches_per_level):
        dest_digits = topology.digits_of_leaf(dest)
        for switch in range(topology.num_switches):
            if switch == dest:
                continue
            level = topology.level_of(switch)
            digits = topology._digits(topology.index_of(switch))
            is_ancestor = level > 0 and digits[level:] == dest_digits[level:]
            if is_ancestor:
                tables.add(
                    switch, (0, dest, 0), TableEntry(dest_digits[level - 1], 0)
                )
            else:
                for up in range(down):
                    tables.add(
                        switch,
                        (0, dest, 0),
                        TableEntry(down + up, 0, via=("up", level, up)),
                    )
    return tables


# ----------------------------------------------------------------------
# Lowerings: one routing family on one topology, as the certifier sees
# it -- its compiler, its grammar, its hop classifier and the single
# enumeration of its admissible routes that every pass consumes.
# ----------------------------------------------------------------------
#: One admissible route: (label, src_router, dst_terminal, plan).
Route = Tuple[str, int, int, Any]


class RouteWalks:
    """Every route's executor walk, in :meth:`Lowering.routes` order.

    Each distinct hop is kept once in ``hops``; ``ids`` concatenates
    every walk as indices into ``hops`` and ``ends[i]`` is the offset
    one past route ``i``'s last hop.  No per-route Python object
    survives the build: the paper-72 store is under half a MiB.
    """

    __slots__ = ("hops", "ids", "ends")

    def __init__(self) -> None:
        self.hops: List[Hop] = []
        self.ids = array("I")
        self.ends = array("I")

    def record(self, walks: Iterable[List[Hop]]) -> Iterator[List[Hop]]:
        """Fill an empty store with ``walks``, passing each one on."""
        hop_ids = _HopIds()
        hop_id = hop_ids.__getitem__
        ids, ends = self.ids, self.ends
        for walk in walks:
            ids.extend(map(hop_id, walk))
            ends.append(len(ids))
            yield walk
        self.hops = list(hop_ids)

    def __len__(self) -> int:
        return len(self.ends)

    def walk(self, route: int) -> Tuple[Hop, ...]:
        """Route ``route``'s walk, ending with the ejection hop."""
        start = self.ends[route - 1] if route else 0
        return tuple(map(self.hops.__getitem__, self.ids[start:self.ends[route]]))


class _HopIds(Dict[Hop, int]):
    """hop -> id, numbering each hop on first sight."""

    def __missing__(self, hop: Hop) -> int:
        hop_id = self[hop] = len(self)
        return hop_id


class Lowering:
    """Everything the certifier needs to know about one family.

    A family supplies :meth:`compile`, :meth:`grammar`,
    :meth:`classify_hop` and three small pieces: :meth:`routes` (every
    admissible route, enumerated once), :meth:`next_hop` (its executor)
    and :meth:`legs` (a route's table leg program).  The base class
    walks every route through the executor once, on first use, into
    :attr:`walks`, and derives the two views the passes read from it:
    :meth:`traces` for the CDG pass and the soundness harness,
    :meth:`cases` for the table pass.  The simulator runs :meth:`legs`
    over the compiled tables (:class:`TableRouting`), never the
    executor.
    """

    family: str = "base"
    #: The family's algorithmic executor, the reference the table walks
    #: are certified against (CDG walks, ``TBL005``):
    #: ``(topology, router, plan, progress, dst_terminal) -> (out_port,
    #: out_vc, next_progress)``.
    next_hop: Callable[[Any, int, Any, int, int], Tuple[int, int, int]]
    _walks: Optional[RouteWalks] = None

    def __init__(self, topology: Any) -> None:
        self.topology = topology

    def compile(self) -> ForwardingTables:
        raise NotImplementedError

    def grammar(self) -> PathGrammar:
        raise NotImplementedError

    def classify_hop(self, router: int, port: int, vc: int) -> Tuple[str, int, str]:
        """Map a trace hop onto its grammar (kind, vc, role) class."""
        raise NotImplementedError

    def routes(self) -> Iterator[Route]:
        """Every route the family can emit, once each.

        Every source router, every destination terminal, every global
        channel / intermediate / up-port choice the algorithm could
        make.  A superset of what an adaptive algorithm actually routes
        (UGAL picks between the minimal and one Valiant candidate, both
        of which are enumerated), so a certificate over these routes
        covers every algorithm of the family.
        """
        raise NotImplementedError

    def legs(self, plan: Any, dest: int) -> Tuple[Leg, ...]:
        """The table leg program of ``plan`` toward router ``dest``."""
        raise NotImplementedError

    def plan(self, rng: random.Random, src_router: int, dst_terminal: int) -> Any:
        """One packet's route, where the tables are the routing rule."""
        raise NotImplementedError(f"the {self.family} lowering has no routing rule")

    def trace(
        self, src_router: int, dst_terminal: int, plan: Any
    ) -> List[Hop]:
        """One route walked through the family's executor."""
        return paths.walk_route(
            self.topology, self.next_hop, src_router, dst_terminal, plan
        )

    @property
    def walks(self) -> RouteWalks:
        """Every route's executor walk, walked once per lowering."""
        walks = self._walks
        if walks is None:
            walks = RouteWalks()
            for _walk in self._record(walks):
                pass
        return walks

    def traces(self) -> Iterator[List[Hop]]:
        """Every route's executor trace, in :meth:`routes` order.

        The first complete pass walks the executor and keeps the walks
        in :attr:`walks`; later passes read them back.  A walk that
        raises leaves nothing kept.
        """
        walks = self._walks
        if walks is None:
            return self._record(RouteWalks())
        return (list(walks.walk(route)) for route in range(len(walks)))

    def _record(self, walks: RouteWalks) -> Iterator[List[Hop]]:
        yield from walks.record(
            self.trace(src_router, dst_terminal, plan)
            for _label, src_router, dst_terminal, plan in self.routes()
        )
        self._walks = walks

    def cases(self) -> Iterator[RouteCase]:
        """Every route as a table leg program plus its stored executor
        walk.  Raises if :meth:`routes` no longer enumerates exactly the
        routes that were walked."""
        walks = self.walks
        walked = len(walks)
        terminal_router = self.topology.terminal_router
        routes = 0
        for label, src_router, dst_terminal, plan in self.routes():
            if routes < walked:
                yield RouteCase(
                    label,
                    src_router,
                    dst_terminal,
                    self.legs(plan, terminal_router(dst_terminal)),
                    walks.walk(routes),
                )
            routes += 1
        if routes != walked:
            raise RuntimeError(
                f"{self.family} lowering enumerated {routes} routes but "
                f"walked {walked}: routes() must enumerate the same "
                "routes every time"
            )


def _channel_class(
    topology: Any, router: int, port: int, vc: int
) -> Tuple[str, int, str]:
    """A grouped-family hop's grammar class: its channel kind and VC."""
    channel = topology.fabric.out_channel(router, port)
    if channel is None:
        raise TableRouteError(
            f"router {router} port {port} carries no network channel, so "
            "the hop has no grammar class (an ejection hop?)"
        )
    return channel.kind.value, vc, ""


class _GroupedLowering(Lowering):
    """Shared dragonfly / group-variant lowering."""

    def __init__(
        self,
        topology: Any,
        assignment: vcs.VcAssignment,
        include_nonminimal: bool,
    ) -> None:
        super().__init__(topology)
        self.assignment = assignment
        self.include_nonminimal = (
            include_nonminimal and assignment.supports_nonminimal
        )

    def classify_hop(self, router: int, port: int, vc: int) -> Tuple[str, int, str]:
        return _channel_class(self.topology, router, port, vc)

    def routes(self) -> Iterator[Route]:
        """Minimal routes over every global channel between the two
        groups; Valiant routes additionally over every intermediate
        group and every second global channel."""
        topology = self.topology
        for src_router in range(topology.fabric.num_routers):
            src_group = topology.group_of(src_router)
            for dst_terminal in range(topology.num_terminals):
                dest_group = topology.group_of(
                    topology.terminal_router(dst_terminal)
                )
                pair = f"r{src_router}->t{dst_terminal}"
                if src_group == dest_group:
                    yield (
                        f"intra {pair}", src_router, dst_terminal,
                        RoutePlan(minimal=True),
                    )
                    continue
                for gc1 in topology.group_links(src_group, dest_group):
                    yield (
                        f"min {pair} via {gc1.src_port}@{gc1.src_router}",
                        src_router, dst_terminal,
                        RoutePlan(minimal=True, gc1=gc1),
                    )
                if not self.include_nonminimal:
                    continue
                for mid_group in range(topology.g):
                    if mid_group in (src_group, dest_group):
                        continue
                    for gc1 in topology.group_links(src_group, mid_group):
                        for gc2 in topology.group_links(mid_group, dest_group):
                            yield (
                                f"val {pair} mid g{mid_group}",
                                src_router, dst_terminal,
                                RoutePlan(minimal=False, gc1=gc1, gc2=gc2),
                            )

    def legs(self, plan: RoutePlan, dest: int) -> Tuple[Leg, ...]:
        assignment = self.assignment
        dest_group = self.topology.group_of(dest)
        if plan.gc1 is None:
            return (Leg(dest_group, dest, assignment.final_local_vc),)
        first = frozenset((link_tag(plan.gc1),))
        if plan.gc2 is None:
            return (Leg(dest_group, dest, assignment.minimal_first_vc, via=first),)
        mid = plan.gc1.dst_router
        return (
            Leg(
                self.topology.group_of(mid),
                mid,
                assignment.nonminimal_first_vc,
                via=first,
            ),
            Leg(
                dest_group,
                dest,
                assignment.intermediate_vc,
                via=frozenset((link_tag(plan.gc2),)),
            ),
        )


class DragonflyLowering(_GroupedLowering):
    family = "dragonfly"

    def compile(self) -> ForwardingTables:
        return compile_dragonfly_tables(
            self.topology, self.assignment, self.include_nonminimal
        )

    def grammar(self) -> PathGrammar:
        return paths.dragonfly_path_grammar(self.assignment, self.include_nonminimal)

    def next_hop(
        self,
        topology: Dragonfly,
        router: int,
        plan: RoutePlan,
        progress: int,
        dst_terminal: int,
    ) -> Tuple[int, int, int]:
        port, vc = paths.next_hop(
            topology, router, plan, progress, dst_terminal, self.assignment
        )
        return port, vc, progress + (1 if topology.is_global_port(port) else 0)


class VariantLowering(_GroupedLowering):
    family = "dragonfly-fbgroup"

    def compile(self) -> ForwardingTables:
        return compile_variant_tables(
            self.topology, self.assignment, self.include_nonminimal
        )

    def grammar(self) -> PathGrammar:
        return variant_paths.variant_path_grammar(
            self.assignment, self.include_nonminimal
        )

    def next_hop(
        self,
        topology: FlattenedButterflyGroupDragonfly,
        router: int,
        plan: RoutePlan,
        progress: int,
        dst_terminal: int,
    ) -> Tuple[int, int, int]:
        return variant_paths.variant_next_hop(
            topology, router, plan, progress, dst_terminal, self.assignment
        )


class DegradedDragonflyLowering(_GroupedLowering):
    """Fault-degraded dragonfly: minimal routes plus explicit detours.

    There is no algorithmic executor for the degraded fabric -- the
    tables *are* the routing -- so :meth:`cases` carry no algorithmic
    trace, the verifier certifies reachability, cycle-freedom, and
    grammar membership of the table walks alone, and :meth:`plan` is
    the routing rule ``TBL-MIN/gcK`` simulates.  The grammar is the
    fault-parametric :class:`~repro.routing.grammar.DegradedPathGrammar`
    composed for exactly the fault classes this fault set exhibits:
    detour walks match its ``fault-detour`` route class, and local
    repair hops land in local segments widened to relay walks.
    """

    family = "dragonfly"

    def __init__(
        self,
        topology: Dragonfly,
        faults: FaultSet,
        assignment: vcs.VcAssignment = vcs.CANONICAL,
    ) -> None:
        super().__init__(topology, assignment, include_nonminimal=False)
        self.faults = faults

    def compile(self) -> ForwardingTables:
        return compile_dragonfly_tables(
            self.topology,
            self.assignment,
            include_nonminimal=False,
            faults=self.faults,
        )

    def grammar(self) -> PathGrammar:
        return paths.degraded_dragonfly_grammar(
            self.assignment,
            self.faults.fault_classes(self.topology),
        ).compose()

    def routes(self) -> Iterator[Route]:
        """Every route between live routers: intra-group, minimal over
        each surviving global link, or the programmed detour."""
        topology = self.topology
        faults = self.faults
        for src_router in range(topology.fabric.num_routers):
            if faults.router_dead(src_router):
                continue
            src_group = topology.group_of(src_router)
            for dst_terminal in range(topology.num_terminals):
                dest = topology.terminal_router(dst_terminal)
                if faults.router_dead(dest):
                    continue
                dest_group = topology.group_of(dest)
                pair = f"r{src_router}->t{dst_terminal}"
                if src_group == dest_group:
                    yield f"intra {pair}", src_router, dst_terminal, RoutePlan(
                        minimal=True
                    )
                    continue
                links = _surviving_links(topology, faults, src_group, dest_group)
                for link in links:
                    yield f"min {pair}", src_router, dst_terminal, RoutePlan(
                        minimal=True, gc1=link
                    )
                if not links:
                    _mid, first, second = _detour_choice(
                        topology, faults, src_group, dest_group
                    )
                    yield f"detour {pair}", src_router, dst_terminal, RoutePlan(
                        minimal=False, gc1=first, gc2=second
                    )

    def plan(
        self, rng: random.Random, src_router: int, dst_terminal: int
    ) -> RoutePlan:
        """The route of one packet: minimal over a surviving global link
        drawn uniformly (no draw when one survives), else the detour."""
        topology = self.topology
        src_group = topology.group_of(src_router)
        dest_group = topology.group_of(topology.terminal_router(dst_terminal))
        if src_group == dest_group:
            return RoutePlan(minimal=True)
        links = _surviving_links(topology, self.faults, src_group, dest_group)
        if links:
            gc1 = links[0] if len(links) == 1 else links[rng.randrange(len(links))]
            return RoutePlan(minimal=True, gc1=gc1)
        _mid, first, second = _detour_choice(
            topology, self.faults, src_group, dest_group
        )
        return RoutePlan(minimal=False, gc1=first, gc2=second)

    def legs(self, plan: RoutePlan, dest: int) -> Tuple[Leg, ...]:
        """A detour is one leg, committed to both of its links."""
        if plan.gc2 is None:
            return super().legs(plan, dest)
        return (Leg(
            self.topology.group_of(dest), dest,
            self.assignment.nonminimal_first_vc,
            via=frozenset((link_tag(plan.gc1), link_tag(plan.gc2))),
        ),)

    def cases(self) -> Iterator[RouteCase]:
        terminal_router = self.topology.terminal_router
        for label, src_router, dst_terminal, plan in self.routes():
            yield RouteCase(
                label, src_router, dst_terminal,
                self.legs(plan, terminal_router(dst_terminal)),
            )


def _router_plan_routes(topology, include_nonminimal: bool) -> Iterator[Route]:
    """Every minimal :class:`~repro.routing.fb_paths.RouterPlan` route of
    a flattened butterfly or torus, each followed, when
    ``include_nonminimal``, by its Valiant routes via every other router."""
    for src_router in range(topology.num_routers):
        for dst_terminal in range(topology.num_terminals):
            dest = topology.terminal_router(dst_terminal)
            pair = f"r{src_router}->t{dst_terminal}"
            yield (
                f"min {pair}", src_router, dst_terminal,
                fb_paths.RouterPlan(minimal=True),
            )
            if not include_nonminimal:
                continue
            for mid in range(topology.num_routers):
                if mid in (src_router, dest):
                    continue
                yield (
                    f"val {pair} mid r{mid}", src_router, dst_terminal,
                    fb_paths.RouterPlan(minimal=False, intermediate_router=mid),
                )


class FbLowering(Lowering):
    family = "flattened-butterfly"
    next_hop = staticmethod(fb_paths.fb_next_hop)

    def compile(self) -> ForwardingTables:
        return compile_fb_tables(self.topology)

    def grammar(self) -> PathGrammar:
        return fb_paths.fb_path_grammar()

    def classify_hop(self, router: int, port: int, vc: int) -> Tuple[str, int, str]:
        return "local", vc, f"phase{vc}"

    def routes(self) -> Iterator[Route]:
        """Every DOR route, plus every router-level Valiant route."""
        return _router_plan_routes(self.topology, include_nonminimal=True)

    def legs(self, plan: fb_paths.RouterPlan, dest: int) -> Tuple[Leg, ...]:
        if plan.minimal or plan.intermediate_router is None:
            return (Leg(0, dest, 0),)
        return (Leg(0, plan.intermediate_router, 0), Leg(0, dest, 1))


class TorusLowering(Lowering):
    family = "torus"
    next_hop = staticmethod(torus_routing.torus_next_hop)

    def __init__(self, topology: Torus, include_nonminimal: bool) -> None:
        super().__init__(topology)
        self.include_nonminimal = include_nonminimal

    def compile(self) -> ForwardingTables:
        return compile_torus_tables(self.topology, self.include_nonminimal)

    def grammar(self) -> PathGrammar:
        return torus_routing.torus_path_grammar(
            len(self.topology.dims), self.include_nonminimal
        )

    def classify_hop(self, router: int, port: int, vc: int) -> Tuple[str, int, str]:
        dim = (port - self.topology.concentration) // 2
        crossed = vc % 2
        role = f"dim{dim}" + ("+dateline" if crossed else "")
        return "ring", vc, role

    def routes(self) -> Iterator[Route]:
        """Every dateline-DOR route, plus every router-level Valiant
        route when the configuration admits them."""
        return _router_plan_routes(self.topology, self.include_nonminimal)

    def legs(self, plan: fb_paths.RouterPlan, dest: int) -> Tuple[Leg, ...]:
        if plan.minimal or plan.intermediate_router is None:
            return (Leg(0, dest, 0),)
        return (Leg(0, plan.intermediate_router, 0), Leg(0, dest, 2))


class ClosLowering(Lowering):
    family = "folded-clos"
    next_hop = staticmethod(clos_routing.clos_next_hop)

    def compile(self) -> ForwardingTables:
        return compile_clos_tables(self.topology)

    def grammar(self) -> PathGrammar:
        return clos_routing.clos_path_grammar(self.topology.levels)

    def classify_hop(self, router: int, port: int, vc: int) -> Tuple[str, int, str]:
        level = self.topology.level_of(router)
        if port >= self.topology.down:
            return "up", 0, f"level{level}->{level + 1}"
        return "down", 0, f"level{level}->{level - 1}"

    def routes(self) -> Iterator[Route]:
        """Every up*/down* route from every source *leaf* over every
        up-port choice: covers CLOS-RAND (all tuples) and CLOS-DET
        (whose d-mod-k tuple is one of them)."""
        topology = self.topology
        for src_leaf in range(topology.switches_per_level):
            src_router = topology.switch_id(0, src_leaf)
            for dst_terminal in range(topology.num_terminals):
                ancestor = topology.ancestor_level(
                    src_leaf, topology.terminal_router(dst_terminal)
                )
                for up_ports in itertools.product(
                    range(topology.down), repeat=ancestor
                ):
                    yield (
                        f"updown r{src_router}->t{dst_terminal} "
                        f"up{list(up_ports)}",
                        src_router, dst_terminal,
                        clos_routing.ClosRoutePlan(
                            minimal=True, ancestor_level=ancestor, up_ports=up_ports
                        ),
                    )

    def legs(self, plan: clos_routing.ClosRoutePlan, dest: int) -> Tuple[Leg, ...]:
        via = frozenset(
            ("up", level, plan.up_ports[level]) for level in range(plan.ancestor_level)
        )
        return (Leg(0, dest, 0, via=via or None),)


# ----------------------------------------------------------------------
# The simulator's table executor: a routing rule's plans walked hop by
# hop over compiled tables, with the certifier's TableWalker.
# ----------------------------------------------------------------------
def _check_tables_fit(tables: ForwardingTables, lowering: Lowering) -> None:
    """Refuse given tables compiled for another topology or family."""
    topology = lowering.topology
    num_routers = topology.fabric.num_routers
    if tables.num_routers != num_routers:
        raise ValueError(
            f"tables {tables.name!r} were compiled for {tables.num_routers} "
            f"routers; this {lowering.family} has {num_routers}"
        )
    if tables.family != lowering.family:
        raise ValueError(
            f"tables {tables.name!r} are {tables.family} tables; the "
            f"routing runs {lowering.family} routes"
        )
    links_of = getattr(topology, "global_links_of", lambda router: ())
    links = {link_tag(link) for r in range(num_routers) for link in links_of(r)}
    for router, key, entry in tables.entries():
        if entry.via is not None and entry.via[0] == "link" and entry.via not in links:
            raise ValueError(
                f"tables {tables.name!r}: router {router} key {key} names "
                f"global link {entry.via}, which this topology does not have"
            )


class TableRoutes:
    """One lowering's tables on one topology: the hop memo
    (:class:`~repro.routing.base.HopMemo`) of a :class:`TableRouting`.

    A packet walks its plan's :meth:`Lowering.legs` as
    :meth:`TableWalker.channel_hops` does.  A hop depends only on the
    leg's *slot* ``(group, target, entry VC, in-VC, via, last leg)``:
    ``hops[slot * num_routers + router]`` is one :meth:`TableWalker.step`.
    A plan's keys list, leg by leg, the slot of every in-VC the leg can
    present, entry VC first; ``advance`` moves between them, and onto the
    next leg's entry slot when a hop lands on the leg's target.
    """

    def __init__(
        self, lowering: Lowering, tables: Optional[ForwardingTables] = None
    ) -> None:
        self.lowering = lowering
        self.topology = lowering.topology
        if tables is None:
            tables = lowering.compile()
        else:
            _check_tables_fit(tables, lowering)
        self.walker = TableWalker(self.topology, tables)
        self.hops: Dict[int, Tuple[int, int, int]] = {}
        self._num_routers = self.topology.fabric.num_routers
        self._num_vcs = tables.num_vcs
        #: The slots by number, and (leg, last) -> the keys of its slots.
        self._slots: List[Tuple[Any, ...]] = []
        self._leg_keys: Dict[Tuple[Leg, bool], Tuple[int, ...]] = {}

    def keys(self, plan: Any, src_router: int, dst_terminal: int) -> Tuple[int, ...]:
        """The stage keys of ``plan``'s leg program from ``src_router``.

        Legs the walk skips -- leading legs whose target is the source,
        and legs aiming at the router the previous one ends on -- have
        no keys."""
        legs = self.lowering.legs(plan, self.topology.terminal_router(dst_terminal))
        first = 0
        while legs[first].target_router == src_router and first + 1 < len(legs):
            first += 1
        walked = [legs[first]]
        for leg in legs[first + 1:]:
            if leg.target_router != walked[-1].target_router:
                walked.append(leg)
        keys: Tuple[int, ...] = ()
        for index, leg in enumerate(walked):
            last = index + 1 == len(walked)
            leg_keys = self._leg_keys.get((leg, last))
            if leg_keys is None:
                group, target, entry_vc, via = leg
                num_vcs, slots = self._num_vcs, self._slots
                leg_keys = self._leg_keys[(leg, last)] = tuple(
                    (len(slots) + offset) * self._num_routers
                    for offset in range(num_vcs)
                )
                slots.extend(
                    (group, target, entry_vc, (entry_vc + offset) % num_vcs, via, last)
                    for offset in range(num_vcs)
                )
            keys += leg_keys
        return keys

    def fill(
        self, key: int, plan: Any, progress: int, router: int, dst_terminal: int
    ) -> Tuple[int, int, int]:
        """Store and return the hop at ``key``: one
        :meth:`TableWalker.step`, or ejection on the last leg's target."""
        group, target, entry_vc, in_vc, via, last = self._slots[key // self._num_routers]
        hop = (-1, 0, 0)
        if router != target:
            (_, out_port, out_vc), next_router, next_vc = self.walker.step(
                router, (group, target, in_vc), via
            )
            offset = (in_vc - entry_vc) % self._num_vcs
            if next_router == target and not last:
                advance = self._num_vcs - offset
            else:
                advance = (next_vc - entry_vc) % self._num_vcs - offset
            hop = (out_port, out_vc, advance)
        self.hops[key] = hop
        return hop

    def candidate(
        self, plan: Any, src_router: int, dst_router: int
    ) -> Tuple[int, int, int]:
        """UGAL's query on ``plan``: ``(first out_port, first out_VC,
        channel hops)`` from ``src_router`` to ``dst_router``, by the
        same table walk; ``(-1, 0, 0)`` for a route that ejects where it
        starts."""
        hops = self.walker.channel_hops(src_router, self.lowering.legs(plan, dst_router))
        if not hops:
            return -1, 0, 0
        _, port, vc = hops[0]
        return port, vc, len(hops)


def _lowering_key(lowering: Callable[[Any], Lowering]) -> Any:
    """A lowering factory by value where it is a partial application,
    so routings built alike share their routes on a topology."""
    if isinstance(lowering, functools.partial):
        return (
            lowering.func, lowering.args, tuple(sorted(lowering.keywords.items()))
        )
    return lowering


def table_routes(
    topology: Any,
    lowering: Callable[[Any], Lowering],
    tables: Optional[ForwardingTables] = None,
) -> TableRoutes:
    """The :class:`TableRoutes` of ``lowering`` (over ``tables`` when
    given) on ``topology``, built on first use and kept by
    :func:`~repro.routing.paths.topology_memo`: every routing with the
    same lowering arguments and given tables shares them.  Given tables
    are kept alive by the routes, so their id is not reused."""
    return topology_memo(
        topology, (_lowering_key(lowering), id(tables)),
        lambda t: TableRoutes(lowering(t), tables),
    )


def canonical_degraded_lowering(
    topology: Dragonfly, fault_pairs: int
) -> DegradedDragonflyLowering:
    """The degraded lowering of ``TBL-MIN/gcK``: ``fault_pairs``
    canonical group pairs severed
    (:func:`~repro.topology.faults.canonical_global_faults`)."""
    return DegradedDragonflyLowering(
        topology, canonical_global_faults(topology, fault_pairs)
    )


class TableRouting(RoutingAlgorithm):
    """The simulator's one table executor.

    ``lowering(topology)`` gives the tables (unless ``tables`` are
    given) and the leg programs.  Its :class:`TableRoutes` -- tables and
    hop memo -- are built once per topology and kept on it, shared by
    every routing with the same lowering arguments and given tables, so
    the simulator runs exactly the walks the ``tables`` pass certifies.
    ``decide`` is the lowering's own rule
    (:meth:`DegradedDragonflyLowering.plan`); subclasses bring theirs.
    Without a decide-kernel lowering the array backend runs these
    routings on the scalar engine.
    """

    def __init__(
        self,
        name: str,
        lowering: Callable[[Any], Lowering],
        tables: Optional[ForwardingTables] = None,
        topology_type: type = Dragonfly,
    ) -> None:
        self.name = name
        self.lowering = lowering
        self.tables = tables
        self.topology_type = topology_type

    def hop_memo(self, topology: Any) -> TableRoutes:
        """The table routes -- tables and hop memo -- on ``topology``."""
        return table_routes(topology, self.lowering, self.tables)

    def decide(
        self,
        view: CongestionView,
        topology: Any,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> Any:
        return self.hop_memo(topology).lowering.plan(rng, src_router, dst_terminal)


class TableDrivenRouting(TableRouting):
    """A dragonfly algorithm's own ``decide`` over given dragonfly
    tables: "export, import, simulate" runs the deployed configuration,
    not the routing code.  Tables compiled for another topology are a
    ``ValueError`` when the routes are built."""

    def __init__(
        self,
        base: RoutingAlgorithm,
        tables: ForwardingTables,
        assignment: vcs.VcAssignment = vcs.CANONICAL,
    ) -> None:
        super().__init__(
            base.name,
            functools.partial(
                DragonflyLowering, assignment=assignment, include_nonminimal=True
            ),
            tables,
        )
        self.base = base
        self.needs_credit_delay = base.needs_credit_delay

    def decide(
        self,
        view: CongestionView,
        topology: Dragonfly,
        rng: random.Random,
        src_router: int,
        dst_terminal: int,
    ) -> RoutePlan:
        return self.base.decide(view, topology, rng, src_router, dst_terminal)
