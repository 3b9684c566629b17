"""Registry of certifiable (topology, routing, VC assignment) triples.

``python -m repro.check`` certifies every registered configuration
three ways -- concrete CDG, symbolic grammar, compiled tables.  A
configuration is a name plus one ``family`` factory returning the
routing family's :class:`~repro.routing.tables.Lowering`; the fabric,
the route traces, the path grammar and the table compiler all come from
that one object, so the three passes cannot disagree about which routes
or which topology they certify.

Registering a new routing algorithm
-----------------------------------
Write one :class:`~repro.routing.tables.Lowering` subclass (``routes``,
``next_hop``, ``legs``, ``compile``, ``grammar``, ``classify_hop`` --
see ``docs/static-analysis.md``), then add one line to
:func:`default_configurations`::

    CheckConfiguration(
        name="mytopo/MYALG@my-vcs",
        description="my algorithm on my topology",
        family=lambda: MyLowering(MyTopology(...)),
    ),

Adaptive algorithms that choose among enumerated candidates (the UGAL
family chooses between the minimal and Valiant routes) are covered by
enumerating the union of their candidate route classes.

Registry objects are built once per process.  Each memoises two things
on itself, for its lifetime, keyed by object, not name: its one
:class:`~repro.routing.tables.Lowering` (``lowering``), whose
:attr:`~repro.routing.tables.Lowering.walks` holds every route's
executor walk as hop ids, and the concrete
:class:`~repro.check.cdg.Certification` of those walks.  Every route is
walked through its executor once per process: the cdg certificate, the
symbolic soundness harness and the tables pass's TBL005 comparison all
read the stored walks.  No table, table walk or graph is kept.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.params import DragonflyParams
from ..routing import vc_assignment as vcs
from ..routing.grammar import PathGrammar
from ..routing.paths import degraded_dragonfly_grammar, dragonfly_path_grammar
from ..routing.tables import (
    ClosLowering,
    DegradedDragonflyLowering,
    DragonflyLowering,
    FbLowering,
    Lowering,
    TorusLowering,
    VariantLowering,
)
from ..topology.dragonfly import Dragonfly
from ..topology.faults import (
    ALL_FAULT_CLASSES,
    SEVERED_GROUP_PAIR,
    FaultSet,
)
from ..topology.flattened_butterfly import FlattenedButterfly
from ..topology.folded_clos import FoldedClos
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from ..topology.torus import Torus
from .cdg import Certification, certify


@dataclass(frozen=True)
class CheckConfiguration:
    """One certifiable configuration.

    ``family`` builds the topology and returns the routing family's
    :class:`~repro.routing.tables.Lowering` on it; construction is
    deferred to the pass that runs (about a millisecond per family --
    ``--list`` constructs each one to show its family and VC budget).
    Every pass reads the one :attr:`lowering`: :attr:`certification`
    certifies ``lowering.traces()`` once for the cdg pass and the
    soundness harness, the symbolic pass analyses ``lowering.grammar()``
    (whose ``num_vcs`` is the VC budget the family documents), and the
    tables pass compiles and certifies ``lowering`` itself against the
    same stored walks.  A fault-degraded lowering has no executor, so
    its entries (:func:`degraded_table_configurations`,
    :func:`degraded_crosscheck_configurations`) are certified from their
    tables and grammar only and never read :attr:`certification`.
    ``expect_deadlock_free`` is False only for negative controls kept to
    demonstrate counterexample extraction.
    """

    name: str
    description: str
    family: Callable[[], Lowering]
    expect_deadlock_free: bool = True

    @functools.cached_property
    def lowering(self) -> Lowering:
        """The one ``family()`` object every pass reads, built on first use."""
        return self.family()

    @functools.cached_property
    def certification(self) -> Certification:
        """The CDG certificate of ``lowering.traces()``, made on first use."""
        lowering = self.lowering
        return certify(self.name, lowering.topology.fabric, lowering.traces())


def _df_config(
    name: str,
    description: str,
    params: DragonflyParams,
    assignment: vcs.VcAssignment,
    include_nonminimal: bool = True,
    expect_deadlock_free: bool = True,
) -> CheckConfiguration:
    return CheckConfiguration(
        name=name,
        description=description,
        family=lambda: DragonflyLowering(
            Dragonfly(params), assignment, include_nonminimal
        ),
        expect_deadlock_free=expect_deadlock_free,
    )


def _torus_config(include_nonminimal: bool) -> CheckConfiguration:
    claimed = 4 if include_nonminimal else 2
    suffix = "DOR+VAL" if include_nonminimal else "DOR"
    return CheckConfiguration(
        name=f"torus/{suffix}@dateline-{claimed}vc",
        description=f"4x4 torus, dateline dimension-order ({claimed} VCs)",
        family=lambda: TorusLowering(
            Torus(dims=(4, 4), concentration=1), include_nonminimal
        ),
    )


@functools.lru_cache(maxsize=None)
def default_configurations() -> Tuple[CheckConfiguration, ...]:
    """The configurations certified by ``python -m repro.check``."""
    return (
        _df_config(
            "dragonfly/MIN+VAL+UGAL@figure7-3vc",
            "Figure 5 dragonfly (p=2,a=4,h=2,g=9), canonical 3-VC assignment",
            DragonflyParams.paper_example_72(),
            vcs.CANONICAL,
        ),
        _df_config(
            "dragonfly-tiny/MIN+VAL+UGAL@figure7-3vc",
            "smallest dragonfly (p=1,a=2,h=1,g=3), canonical 3-VC assignment",
            DragonflyParams(p=1, a=2, h=1),
            vcs.CANONICAL,
        ),
        _df_config(
            "dragonfly-nonmax/MIN+VAL+UGAL@figure7-3vc",
            "non-maximal dragonfly (p=1,a=2,h=2,g=3), distributed global links",
            DragonflyParams(p=1, a=2, h=2, num_groups=3),
            vcs.CANONICAL,
        ),
        _df_config(
            "dragonfly-nonmax72/MIN+VAL+UGAL@figure7-3vc",
            "non-maximal 72-router dragonfly (p=2,a=4,h=2,g=5): two global "
            "links per group pair exercise the distributed-link tie-break",
            DragonflyParams(p=2, a=4, h=2, num_groups=5),
            vcs.CANONICAL,
        ),
        _df_config(
            "dragonfly/MIN@minimal-2vc",
            "Figure 5 dragonfly, minimal routing only, 2-VC assignment",
            DragonflyParams.paper_example_72(),
            vcs.MINIMAL_TWO_VC,
            include_nonminimal=False,
        ),
        CheckConfiguration(
            name="dragonfly-fbgroup/MIN+VAL+UGAL@figure7-3vc",
            description="2-D flattened-butterfly groups (Figure 6), canonical VCs",
            family=lambda: VariantLowering(
                FlattenedButterflyGroupDragonfly(p=1, group_dims=(2, 2), h=1),
                vcs.CANONICAL,
                include_nonminimal=True,
            ),
        ),
        CheckConfiguration(
            name="flattened-butterfly/FB-MIN+VAL+UGAL@phase-vcs",
            description="3x3 flattened butterfly, DOR + router Valiant (2 VCs)",
            family=lambda: FbLowering(
                FlattenedButterfly(dims=(3, 3), concentration=1)
            ),
        ),
        _torus_config(include_nonminimal=False),
        _torus_config(include_nonminimal=True),
        CheckConfiguration(
            name="folded-clos/CLOS-RAND+DET@updown-1vc",
            description="8-terminal radix-4 folded Clos, all up*/down* routes",
            family=lambda: ClosLowering(FoldedClos(num_terminals=8, radix=4)),
        ),
    )


@functools.lru_cache(maxsize=None)
def broken_configuration() -> CheckConfiguration:
    """The negative control: collapsed 2-VC non-minimal assignment.

    Not part of :func:`default_configurations`; used by tests and by
    ``python -m repro.check cdg --demo-broken`` to demonstrate
    counterexample extraction.
    """
    return _df_config(
        "dragonfly/MIN+VAL@collapsed-2vc (negative control)",
        "Figure 5 dragonfly with the 3-VC assignment collapsed onto 2 VCs",
        DragonflyParams.paper_example_72(),
        vcs.COLLAPSED_TWO_VC,
        expect_deadlock_free=False,
    )


@dataclass(frozen=True)
class GrammarConfiguration:
    """A routing family certified from its path grammar alone.

    ``grammar`` builds the grammar without building any topology: the
    Table-2 parameterisations (the 1M-terminal machine has ~1.3M
    routers, far beyond the enumerator's reach) and the fault-degraded
    families, whose grammar is the
    :class:`~repro.routing.grammar.DegradedPathGrammar` composed over
    fault classes, not concrete fault sets -- one certificate covers
    every (a, p, h, g) member and every fault set exhibiting only those
    classes.  ``num_terminals`` names the machine size of a Table-2
    entry (descriptive only), None for an instance-independent family.
    """

    name: str
    description: str
    grammar: Callable[[], PathGrammar]
    expect_deadlock_free: bool = True
    num_terminals: Optional[int] = None


def _balanced_configurations(
    name: str, description: str, grammar: Callable[[], PathGrammar]
) -> List[GrammarConfiguration]:
    """One entry per Table-2 balanced dragonfly (h = 16 and 24)."""
    configurations = []
    for h in (16, 24):
        params = DragonflyParams.balanced(h)
        configurations.append(GrammarConfiguration(
            name=name.format(h=h),
            description=description.format(
                p=params.p, a=params.a, h=params.h, g=params.g,
                n=f"{params.num_terminals:,}",
            ),
            grammar=grammar,
            num_terminals=params.num_terminals,
        ))
    return configurations


def symbolic_scale_configurations() -> List[GrammarConfiguration]:
    """Paper Table 2 entries certified by the ``symbolic`` pass."""
    return _balanced_configurations(
        "dragonfly-balanced-h{h}/MIN+VAL+UGAL@figure7-3vc",
        "balanced dragonfly (p={p},a={a},h={h},g={g}): N={n} terminals",
        lambda: dragonfly_path_grammar(vcs.CANONICAL),
    )


def _all_faults_grammar() -> PathGrammar:
    return degraded_dragonfly_grammar(vcs.CANONICAL, ALL_FAULT_CLASSES).compose()


def degraded_family_configurations() -> List[GrammarConfiguration]:
    """Degraded families certified by ``python -m repro.check faults``."""
    return [
        GrammarConfiguration(
            name="dragonfly-degraded-family@figure7-3vc",
            description=(
                "any dragonfly, any fault set built from severed group "
                "pairs, dead local links and dead routers; canonical VCs"
            ),
            grammar=_all_faults_grammar,
        ),
        GrammarConfiguration(
            name="dragonfly-degraded-family@detour-vc-reuse (negative control)",
            description=(
                "detour class allowed to reuse its injection VC; the "
                "certifier must refute the family"
            ),
            grammar=lambda: degraded_dragonfly_grammar(
                vcs.DETOUR_VC_REUSE, (SEVERED_GROUP_PAIR,)
            ).compose(),
            expect_deadlock_free=False,
        ),
        *_balanced_configurations(
            "dragonfly-degraded-balanced-h{h}@figure7-3vc",
            "degraded balanced dragonfly (p={p},a={a},h={h},g={g}): "
            "N={n} terminals, all three fault classes",
            _all_faults_grammar,
        ),
    ]


def _severed(
    params: DragonflyParams,
    pairs: Sequence[Tuple[int, int]],
    assignment: vcs.VcAssignment = vcs.CANONICAL,
) -> Callable[[], DegradedDragonflyLowering]:
    """A dragonfly with every cable between each named group pair cut."""

    def family() -> DegradedDragonflyLowering:
        topology = Dragonfly(params)
        faults = FaultSet.of(links=[
            (link.src_router, link.dst_router)
            for src_group, dest_group in pairs
            for link in topology.group_links(src_group, dest_group)
        ])
        return DegradedDragonflyLowering(topology, faults, assignment)

    return family


@functools.lru_cache(maxsize=None)
def _paper_mixed() -> DegradedDragonflyLowering:
    """Paper-72 hit by all three fault shapes at once.

    Both the tables pass and the faults pass certify this scenario, so
    it is built once per process and certified once
    (:func:`~repro.check.tables.certify_degraded`).

    A dead global cable (groups 0 and 1 lose their only direct link,
    forcing detours through a third group), a dead local cable (routers
    2 and 3 stop talking directly, exercising the local repair pass),
    and a dead router (router 35 takes its two global links and both
    terminals down with it, disconnecting group 8 from two more groups).
    """
    topology = Dragonfly(DragonflyParams.paper_example_72())
    global_link = topology.group_links(0, 1)[0]
    faults = FaultSet.of(
        links=[
            (global_link.src_router, global_link.dst_router),
            (2, 3),
        ],
        routers=[35],
    )
    return DegradedDragonflyLowering(topology, faults)


def _nonmax_partial() -> DegradedDragonflyLowering:
    topology = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=5))
    link = topology.group_links(0, 1)[0]
    faults = FaultSet.of(links=[(link.src_router, link.dst_router)])
    return DegradedDragonflyLowering(topology, faults)


def degraded_table_configurations() -> List[CheckConfiguration]:
    """Fault scenarios certified by ``python -m repro.check tables``.

    A degraded lowering has no executor (its tables *are* the routing),
    so the tables pass certifies these without an executor certificate.
    """
    return [
        CheckConfiguration(
            name="dragonfly-degraded/MIN+detours@figure7-3vc",
            description=(
                "paper-72 dragonfly minus one global cable, one local "
                "cable and one router; minimal tables with detours"
            ),
            family=_paper_mixed,
        ),
    ]


def degraded_crosscheck_configurations() -> List[CheckConfiguration]:
    """Enumerable fault scenarios the ``faults`` pass certifies both
    symbolically (the grammar composed for exactly the fault classes
    the fault set exhibits) and concretely (the table-level CDG of the
    detour-recompiled tables), demanding the verdicts agree."""
    paper72 = DragonflyParams.paper_example_72()
    return [
        CheckConfiguration(
            name="dragonfly-degraded/severed-pair@figure7-3vc",
            description="paper-72 minus every cable between groups 0 and 1",
            family=_severed(paper72, [(0, 1)]),
        ),
        CheckConfiguration(
            name="dragonfly-degraded/mixed@figure7-3vc",
            description=(
                "paper-72 minus one global cable, one local cable and "
                "one router (all three fault classes at once)"
            ),
            family=_paper_mixed,
        ),
        CheckConfiguration(
            name="dragonfly-degraded-tiny/severed-pair@figure7-3vc",
            description="smallest dragonfly minus its only 0<->1 cable",
            family=_severed(DragonflyParams(p=1, a=2, h=1), [(0, 1)]),
        ),
        CheckConfiguration(
            name="dragonfly-degraded-nonmax72/one-of-two@figure7-3vc",
            description=(
                "non-maximal 72-router dragonfly minus one of the two "
                "cables between groups 0 and 1 (pair survives, no detour)"
            ),
            family=_nonmax_partial,
        ),
        CheckConfiguration(
            name="dragonfly-degraded/detour-vc-reuse (negative control)",
            description=(
                "paper-72 with a detour ring (severed pairs 0-1, 1-2, "
                "2-0, 2-3, 0-4) under the VC-reuse assignment; both "
                "verifiers must refute it"
            ),
            # Three detour-rerouted pairs in a ring with distinct mid
            # groups at every junction ((2,3) pushes the 1->2 detour off
            # mid 3, (0,4) pushes the 2->0 detour off mid 4), so the
            # concrete table-CDG cycle closes when the detour's final
            # stage reuses the injection VC.
            family=_severed(
                paper72, [(0, 1), (1, 2), (0, 2), (2, 3), (0, 4)],
                vcs.DETOUR_VC_REUSE,
            ),
            expect_deadlock_free=False,
        ),
    ]


def all_configurations() -> Tuple[CheckConfiguration, ...]:
    """The configurations the CLI and the tables pass certify."""
    return default_configurations()
