"""Symbolic channel-class certification of deadlock freedom.

Where :mod:`repro.check.cdg` certifies one concrete instance by
enumerating every route, this module certifies an entire routing
*family* at once -- every (a, p, h, g) dragonfly, every k-ary n-cube of
a given dimension count, every Clos of a given depth -- by analysing the
family's :class:`~repro.routing.grammar.PathGrammar` instead of its
instances.  That is what makes the paper's Table 2 scale reachable: the
class-level graph of the canonical dragonfly assignment has five nodes
whether N is 72 or 1M.

Soundness argument
------------------
Map every concrete buffer (channel, VC) of any instance to its channel
class.  The abstraction contract of :class:`~repro.routing.grammar.
PathGrammar` guarantees this map is a graph homomorphism from the
concrete channel-dependency graph into the class-level graph built here:
a concrete dependency between consecutive buffers of a route lands
either *between* two segments of the route's class (with only skippable
segments in between -- exactly the pairs :func:`class_dependency_graph`
connects) or *inside* one multi-hop segment (the self-edges).  A
concrete cycle would therefore map to a closed walk in the class graph.
Two cases:

* the walk visits at least two classes -- then the class graph has a
  cycle through distinct classes, which the search finds;
* the walk stays inside one class -- possible only via intra-class
  dependencies, which exist only in multi-hop segments; a segment's
  ``order`` witness (e.g. the DOR dimension index) asserts those
  dependencies strictly descend a total order on the class's concrete
  buffers, so they cannot close a cycle.  Witnessed self-edges are
  excluded from the search; unwitnessed ones (including a class revisited
  across skippable segments, where no single-walk order can apply) are
  treated as cycles.

Hence: class graph acyclic (modulo witnessed self-edges) implies every
concrete CDG of every instance acyclic.  The converse does **not** hold
-- the abstraction can manufacture spurious cycles -- which is why
:func:`soundness_harness` cross-checks the symbolic verdict against the
concrete enumerator on every registered (finite) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple, TypedDict, Union

from ..routing.grammar import ChannelClass, PathGrammar
from .cdg import Certification, find_counterexample
from .registry import (
    CheckConfiguration,
    broken_configuration,
    default_configurations,
)

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from ..routing.tables import Lowering
    from .tables import TableCertification

#: Where one class-level dependency comes from:
#: (route class name, holding stage index, requesting stage index).
EdgeProvenance = Tuple[str, int, int]


class EdgeData(TypedDict):
    """One class-level dependency: where it comes from, and whether an
    order witness covers it."""

    provenance: List[EdgeProvenance]
    witnessed: bool


#: The class-level graph: class -> requested class -> edge data.  Every
#: class of the grammar is a key, in first-appearance order; each class's
#: requests are in first-added order.
ClassGraph = Dict[ChannelClass, Dict[ChannelClass, EdgeData]]


@dataclass(frozen=True)
class SymbolicCertification:
    """Outcome of certifying one routing family's path grammar."""

    name: str
    ok: bool
    num_route_classes: int
    num_classes: int
    num_edges: int
    #: The counterexample as a cycle of channel classes, when refuted.
    cycle: Optional[Tuple[ChannelClass, ...]] = None
    #: Human-readable rendering of ``cycle`` (one line per class).
    cycle_description: Optional[str] = None
    #: Intra-class self-dependencies excluded from the cycle search
    #: because a strict order witnesses them acyclic.
    witnessed: Tuple[str, ...] = ()

    def summary(self) -> str:
        verdict = "deadlock-free" if self.ok else "CYCLIC"
        return (
            f"{self.name}: {verdict} for the whole family "
            f"({self.num_route_classes} route classes, "
            f"{self.num_classes} channel classes, "
            f"{self.num_edges} dependencies)"
        )


def _witness_orders(grammar: PathGrammar) -> Dict[ChannelClass, str]:
    """The usable order witness per class, if any.

    A class's self-dependencies are witnessed only when *every* multi-hop
    occurrence across the grammar names the same non-empty order -- two
    different orders (or one missing) could disagree about the direction
    of an intra-class dependency, so the witness is discarded.
    """
    collected: Dict[ChannelClass, Set[str]] = {}
    for route_class in grammar.route_classes:
        for segment in route_class.segments:
            if segment.multi_hop:
                collected.setdefault(segment.cls, set()).add(segment.order)
    return {
        cls: next(iter(orders))
        for cls, orders in collected.items()
        if len(orders) == 1 and "" not in orders
    }


def _add_edge(
    graph: ClassGraph,
    src: ChannelClass,
    dst: ChannelClass,
    provenance: EdgeProvenance,
    witnessed: bool,
) -> None:
    data = graph[src].get(dst)
    if data is None:
        graph[src][dst] = {"provenance": [provenance], "witnessed": witnessed}
    else:
        data["provenance"].append(provenance)
        # One unwitnessed contributor taints the edge: the cycle search
        # must keep it.
        data["witnessed"] = data["witnessed"] and witnessed


def class_dependency_graph(grammar: PathGrammar) -> ClassGraph:
    """The class-level dependency graph of a path grammar.

    Nodes are channel classes.  For each route class, stage ``i`` depends
    on stage ``j > i`` iff every stage strictly between them is optional
    (only then can a route hold a stage-``i`` buffer while requesting a
    stage-``j`` buffer next); a multi-hop stage additionally depends on
    itself.  Edges carry their provenance (for counterexample rendering)
    and whether an order witness covers them (self-edges only; a class
    *revisited* across skippable stages is never witnessed -- no
    single-walk order spans two separate visits).
    """
    graph: ClassGraph = {cls: {} for cls in grammar.classes()}
    witnesses = _witness_orders(grammar)
    for route_class in grammar.route_classes:
        segments = route_class.segments
        for i, segment in enumerate(segments):
            if segment.multi_hop:
                _add_edge(
                    graph, segment.cls, segment.cls,
                    (route_class.name, i, i),
                    witnessed=segment.cls in witnesses,
                )
            skippable = True
            for j in range(i + 1, len(segments)):
                if not skippable:
                    break
                _add_edge(
                    graph, segment.cls, segments[j].cls,
                    (route_class.name, i, j),
                    witnessed=False,
                )
                skippable = segments[j].optional
    return graph


def find_symbolic_counterexample(
    graph: ClassGraph,
) -> Optional[List[ChannelClass]]:
    """A class cycle, or None.  Witnessed self-edges are not cycles."""
    return find_counterexample({
        src: {
            dst: None for dst, data in requests.items()
            if not (src == dst and data["witnessed"])
        }
        for src, requests in graph.items()
    })


def describe_symbolic_cycle(
    graph: ClassGraph, cycle: List[ChannelClass]
) -> str:
    """Render a class cycle, naming the route classes that close it."""
    lines = []
    for i, cls in enumerate(cycle):
        nxt = cycle[(i + 1) % len(cycle)]
        data = graph.get(cls, {}).get(nxt)
        provenance = data["provenance"] if data else []
        via = ""
        if provenance:
            name, hold, request = provenance[0]
            stage = (
                f"revisits stage {hold}" if hold == request
                else f"stage {hold} -> stage {request}"
            )
            via = f"  [route class {name!r}, {stage}]"
        lines.append(
            f"  packet holding a {cls.describe()} buffer waits for a "
            f"{nxt.describe()} buffer{via}"
        )
    return "\n".join(lines)


def certify_grammar(name: str, grammar: PathGrammar) -> SymbolicCertification:
    """Certify a whole routing family from its path grammar."""
    graph = class_dependency_graph(grammar)
    witnesses = _witness_orders(grammar)
    cycle = find_symbolic_counterexample(graph)
    witnessed_notes = tuple(sorted(
        f"{src.describe()}: self-dependencies ordered by {witnesses[src]}"
        for src, requests in graph.items()
        if src in requests and requests[src]["witnessed"]
    ))
    return SymbolicCertification(
        name=name,
        ok=cycle is None,
        num_route_classes=len(grammar.route_classes),
        num_classes=len(graph),
        num_edges=sum(len(requests) for requests in graph.values()),
        cycle=tuple(cycle) if cycle else None,
        cycle_description=(
            describe_symbolic_cycle(graph, cycle) if cycle else None
        ),
        witnessed=witnessed_notes,
    )


# ----------------------------------------------------------------------
# Soundness harness: symbolic vs. concrete on every finite instance
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrossCheck:
    """Symbolic and concrete verdicts for one configuration.

    The concrete side is the route-CDG certificate of the executor
    walks (``concrete=``) or, for a fault-degraded configuration, which
    has no executor, the table certificate of its detour-recompiled
    tables (``concrete-tables=``).  ``agrees`` asserts the soundness
    direction symbolic-says-safe ⟹ concrete-finds-no-cycle *and* its
    calibration converse: the two verdicts on deadlock match exactly.
    A table certificate's non-cycle findings (reachability, round trip)
    are reported separately.
    """

    name: str
    symbolic: SymbolicCertification
    concrete: Union[Certification, "TableCertification"]

    @property
    def agrees(self) -> bool:
        return self.symbolic.ok == (self.concrete.cycle_description is None)

    def verdicts(self, separator: str) -> str:
        """Both verdicts, e.g. ``symbolic=free concrete=free``."""
        label = "concrete" if isinstance(self.concrete, Certification) else "concrete-tables"
        return (
            f"symbolic={'free' if self.symbolic.ok else 'cyclic'}{separator}"
            f"{label}={'free' if self.concrete.cycle_description is None else 'cyclic'}"
        )

    def summary(self) -> str:
        return f"{self.name}: {self.verdicts(' ')} -> {'agree' if self.agrees else 'DISAGREE'}"


def cross_check(
    name: str,
    lowering: "Lowering",
    concrete: Union[Certification, "TableCertification"],
) -> CrossCheck:
    """Certify ``lowering``'s grammar and pair it with ``concrete``: the
    memoised route-CDG :attr:`~CheckConfiguration.certification` of a
    registry configuration, or the table certificate of a degraded
    one."""
    return CrossCheck(name, certify_grammar(name, lowering.grammar()), concrete)


def soundness_harness(
    configurations: Optional[Iterable[CheckConfiguration]] = None,
) -> List[CrossCheck]:
    """Cross-check symbolic vs. concrete verdicts.

    Defaults to every default configuration plus the seeded negative
    control.  The symbolic analysis is sound but not complete, so exact
    agreement is a *calibration* fact about the registered grammars
    (their optionality flags and roles are tight enough), re-verified
    here against ground truth on every instance small enough to
    enumerate.
    """
    if configurations is None:
        configurations = [*default_configurations(), broken_configuration()]
    return [
        cross_check(c.name, c.lowering, c.certification) for c in configurations
    ]


# ----------------------------------------------------------------------
# Fault-parametric certification of degraded families (FLT pass support)
# ----------------------------------------------------------------------
def vc_budget_violations(grammar: PathGrammar) -> List[str]:
    """Channel classes whose VC falls outside the grammar's VC budget.

    The degraded grammar repurposes the non-minimal VC ladder for
    detours, so acyclicity alone is not enough: every detour class must
    also *fit* the configured :class:`~repro.routing.vc_assignment.
    VcAssignment` -- a class on VC ``num_vcs`` would be acyclic and
    unimplementable.  Returns one message per offending class, empty
    when the budget suffices.
    """
    violations = []
    for cls in grammar.classes():
        if cls.vc < 0 or cls.vc >= grammar.num_vcs:
            violations.append(
                f"class {cls.describe()} needs VC {cls.vc} but the "
                f"assignment provisions only VCs 0..{grammar.num_vcs - 1}"
            )
    return violations
