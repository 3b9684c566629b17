"""Static verification of compiled forwarding tables (``TBL0xx``).

The CDG and symbolic passes prove the routing *code* deadlock-free.  A
deployed machine runs neither: a controller programs per-router
forwarding tables (:mod:`repro.routing.tables`), and anything between
the compiler and the switch firmware -- a buggy recompile, a truncated
upload, a hand-edit during an incident -- can invalidate the proof.
This pass certifies the *tables themselves*, so the gate covers the
configuration actually deployed:

* ``TBL001`` -- the table-level channel-dependency graph is cyclic.
  Every admissible route is walked **through the tables** and the
  resulting traces feed the PR 1 CDG machinery
  (:func:`repro.check.cdg.certify`), or reuse the executor's
  certificate when every table walk equals its executor walk; a cycle
  is rendered as the usual holds/waits chain, annotated with the table
  entries (router, key, via) that program each buffer in the cycle --
  the provenance a controller operator needs to find the bad entry.
* ``TBL002`` -- reachability/walk failure: a route's table walk hit a
  missing key, an ambiguous candidate set, or the loop bound, or the
  configuration failed to compile at all.
* ``TBL003`` -- a table walk's (kind, VC, role) hop sequence is not a
  sentence of the family's published :class:`PathGrammar`: the tables
  violate the VC-monotonicity discipline the symbolic certificate
  assumes.
* ``TBL004`` -- round-trip failure: exporting to the versioned JSON
  format and importing it back must reproduce structurally identical
  tables and identical walks.
* ``TBL005`` -- a table walk diverged from the algorithmic executor's
  trace for the same route decision (healthy configurations only;
  fault-degraded tables have no algorithmic counterpart).
* ``TBL006``/``TBL007`` -- negative-control bookkeeping, mirroring
  ``CDG002``/``CDG003``: an expected counterexample is reported as
  evidence (INFO), a negative control that certifies clean has rotted
  (ERROR).

Fault-degraded dragonfly table sets
(:func:`repro.check.registry.degraded_table_configurations`) are
certified alongside the healthy registry: the verifier either
proves the degraded tables deadlock-free, reachable, and
grammar-consistent, or prints the counterexample.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..routing.grammar import PathGrammar, Segment
from ..routing.tables import (
    ForwardingTables,
    Lowering,
    RouteCase,
    TableCompileError,
    TableRouteError,
    TableWalker,
)
from .cdg import CdgNode, Certification, certify, describe_cycle
from .report import CheckReport, Finding, Severity, Wording, verdict

#: Cap on per-category example findings; the rest is summarised so a
#: systematically broken table set cannot flood the report.
MAX_EXAMPLES = 5

#: Number of route cases re-walked on the imported tables during the
#: round-trip check (structural equality already implies identical
#: lookups; the re-walk is an end-to-end spot check of the decoder).
ROUNDTRIP_WALKS = 50

#: The table pass's verdicts (see :func:`repro.check.report.verdict`).
TABLES_VERDICT: Wording = (
    ("TBL001", "table-level channel-dependency graph is CYCLIC; "
               "counterexample deadlock cycle:\n"),
    ("TBL006", "expected table-level counterexample found:\n"),
    ("TBL007", "tables documented as deadlocking were certified acyclic; "
               "negative control has rotted"),
)


@dataclass
class TableCertification:
    """Outcome of certifying one configuration's compiled tables."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    num_entries: int = 0
    num_cases: int = 0
    num_pairs: int = 0
    #: The compiled tables (None when compilation itself failed).
    tables: Optional[ForwardingTables] = None
    #: Rendering of the table-CDG counterexample, when one exists; the
    #: pass reports it by :data:`TABLES_VERDICT` (``TBL001``).
    cycle_description: Optional[str] = None

    @property
    def cyclic(self) -> bool:
        return self.cycle_description is not None

    @property
    def ok(self) -> bool:
        return not self.findings and not self.cyclic

    def under(self, name: str) -> "TableCertification":
        """This certificate as the registry entry ``name`` reports it."""
        return replace(
            self, name=name,
            findings=[replace(finding, location=name) for finding in self.findings],
        )

    def summary(self) -> str:
        verdict = "certified" if self.ok else "REFUTED"
        return (
            f"{self.name}: {verdict} ({self.num_entries} entries, "
            f"{self.num_cases} routes over {self.num_pairs} pairs)"
        )


def _matches_grammar(
    grammar: PathGrammar, hops: Sequence[Tuple[str, int, str]]
) -> bool:
    """True when some route class consumes exactly the hop sequence.

    Backtracking over the segments: a non-optional segment consumes at
    least one hop of its class, ``multi_hop`` segments consume any
    number of consecutive ones.  Mirrors the abstraction contract in
    :mod:`repro.routing.grammar`.
    """
    for route_class in grammar.route_classes:
        if _segments_consume(route_class.segments, hops):
            return True
    return False


def _segments_consume(
    segments: Tuple[Segment, ...], hops: Sequence[Tuple[str, int, str]]
) -> bool:
    def rec(si: int, hi: int) -> bool:
        if si == len(segments):
            return hi == len(hops)
        segment = segments[si]
        wanted = (segment.cls.kind, segment.cls.vc, segment.cls.role)
        if segment.optional and rec(si + 1, hi):
            return True
        consumed = 0
        while hi + consumed < len(hops) and hops[hi + consumed] == wanted:
            consumed += 1
            if rec(si + 1, hi + consumed):
                return True
            if not segment.multi_hop:
                break
        return False

    return rec(0, 0)


def annotate_cycle(
    lowering: Lowering, tables: ForwardingTables, cycle: List[CdgNode]
) -> str:
    """The PR 1 holds/waits rendering plus table provenance per buffer."""
    fabric = lowering.topology.fabric
    emitters: Dict[Tuple[int, int, int], List[str]] = {}
    for router, key, entry in tables.entries():
        channel = fabric.out_channel(router, entry.out_port)
        if channel is None:
            continue
        via = f" via {entry.via}" if entry.via is not None else ""
        emitters.setdefault((router, entry.out_port, entry.out_vc), []).append(
            f"key {key[0]}/{key[1]}/{key[2]}{via}"
        )
    lines = [describe_cycle(fabric, cycle), "  table provenance:"]
    for channel_index, vc in cycle:
        channel = fabric.channels[channel_index]
        sources = emitters.get((channel.src.router, channel.src.port, vc), [])
        shown = ", ".join(sources[:3])
        if len(sources) > 3:
            shown += f", and {len(sources) - 3} more"
        lines.append(
            f"    channel {channel.src.router}->{channel.dst.router} VC{vc} "
            f"programmed at router {channel.src.router} by "
            f"{shown if sources else 'NO table entry (stale buffer?)'}"
        )
    return "\n".join(lines)


def certify_tables(
    name: str, lowering: Lowering, executor: Optional[Certification] = None
) -> TableCertification:
    """Compile one configuration's tables and run every TBL check.

    Each table walk is compared hop for hop with the executor walk
    ``lowering.cases()`` carries (degraded lowerings have none) and kept
    only where the two differ.  ``executor``, the certificate of
    ``lowering.traces()``, is reused when no table walk fails or
    diverges; otherwise the table CDG is built, in route order, from the
    kept walks and the stored executor walks they stand in for.
    """
    result = TableCertification(name=name)

    def add(code: str, message: str) -> None:
        result.findings.append(Finding(code, Severity.ERROR, name, message))

    try:
        tables = lowering.compile()
    except TableCompileError as error:
        add("TBL002", f"table compilation failed: {error}")
        return result
    result.tables = tables
    result.num_entries = tables.num_entries()
    topology = lowering.topology
    grammar = lowering.grammar()
    # Tens of thousands of routes share a few dozen hops and hop sequences.
    classify = functools.lru_cache(maxsize=None)(lambda hop: lowering.classify_hop(*hop))
    matches = functools.lru_cache(maxsize=None)(functools.partial(_matches_grammar, grammar))

    #: route index -> its table walk, where that differs from the
    #: executor walk (every walk, when there is no executor walk).
    kept: Dict[int, List[Tuple[int, int, int]]] = {}
    failed: Set[int] = set()
    pairs_total: set = set()
    pairs_reached: set = set()
    walk_failures: List[str] = []
    grammar_failures: List[str] = []
    divergences: List[str] = []
    roundtrip_sample: List[Tuple[RouteCase, tuple]] = []
    table_walk = TableWalker(topology, tables).walk
    for index, case in enumerate(lowering.cases()):
        result.num_cases += 1
        pair = (case.src_router, case.dst_terminal)
        pairs_total.add(pair)
        try:
            walk = table_walk(case.src_router, case.dst_terminal, case.legs)
        except TableRouteError as error:
            walk_failures.append(f"{case.label}: {error}")
            failed.add(index)
            continue
        pairs_reached.add(pair)
        hops_walked = tuple(walk)
        if len(roundtrip_sample) < ROUNDTRIP_WALKS:
            roundtrip_sample.append((case, hops_walked))
        if hops_walked != case.algorithmic:
            kept[index] = walk
            if case.algorithmic is not None:
                divergences.append(
                    f"{case.label}: tables walked {walk}, "
                    f"executor walked {list(case.algorithmic)}"
                )
        hops = tuple(map(classify, hops_walked[:-1]))
        if not matches(hops):
            grammar_failures.append(
                f"{case.label}: hop classes {list(hops)} match no route "
                f"class of {grammar.name}"
            )
    result.num_pairs = len(pairs_total)

    for example in walk_failures[:MAX_EXAMPLES]:
        add("TBL002", f"table walk failed: {example}")
    if len(walk_failures) > MAX_EXAMPLES:
        add(
            "TBL002",
            f"{len(walk_failures) - MAX_EXAMPLES} further walk failures "
            "suppressed",
        )
    unreachable = pairs_total - pairs_reached
    if unreachable:
        src, dst = sorted(unreachable)[0]
        add(
            "TBL002",
            f"{len(unreachable)} (source router, destination terminal) "
            f"pair(s) have no surviving table route, e.g. router {src} -> "
            f"terminal {dst}",
        )
    for example in divergences[:MAX_EXAMPLES]:
        add("TBL005", f"table walk diverged from the executor: {example}")
    if len(divergences) > MAX_EXAMPLES:
        add(
            "TBL005",
            f"{len(divergences) - MAX_EXAMPLES} further divergences suppressed",
        )
    for example in grammar_failures[:MAX_EXAMPLES]:
        add("TBL003", f"grammar violation: {example}")
    if len(grammar_failures) > MAX_EXAMPLES:
        add(
            "TBL003",
            f"{len(grammar_failures) - MAX_EXAMPLES} further grammar "
            "violations suppressed",
        )

    if executor is not None and not walk_failures and not divergences:
        certification = executor
    else:
        certification = certify(name, topology.fabric, (
            kept[route] if route in kept else lowering.walks.walk(route)
            for route in range(result.num_cases)
            if route not in failed
        ))
    if not certification.ok:
        if certification.cycle is None:
            raise ValueError(
                f"{name}: the table CDG certificate is refuted but names "
                "no counterexample cycle"
            )
        result.cycle_description = annotate_cycle(
            lowering, tables, certification.cycle
        )

    exported = tables.to_json_dict()
    restored = ForwardingTables.from_json_dict(json.loads(json.dumps(exported)))
    if restored.to_json_dict() != exported:
        add(
            "TBL004",
            "export -> import round trip is not structurally identical",
        )
    else:
        restored_walk = TableWalker(topology, restored).walk
        for case, walk in roundtrip_sample:
            try:
                rewalk = tuple(
                    restored_walk(case.src_router, case.dst_terminal, case.legs)
                )
            except TableRouteError as error:
                add("TBL004", f"imported tables failed {case.label}: {error}")
                break
            if rewalk != walk:
                add(
                    "TBL004",
                    f"imported tables walk {case.label} differently: "
                    f"{list(rewalk)} vs {list(walk)}",
                )
                break
    return result


#: A degraded lowering -> its certificate, while the lowering lives.
_DEGRADED: "weakref.WeakKeyDictionary[Lowering, TableCertification]" = (
    weakref.WeakKeyDictionary()
)


def certify_degraded(name: str, lowering: Lowering) -> TableCertification:
    """:func:`certify_tables` of a fault-degraded lowering (no executor),
    made once per lowering object: a scenario the ``tables`` and
    ``faults`` passes both certify is one lowering
    (:mod:`repro.check.registry`), compiled and certified once."""
    result = _DEGRADED.get(lowering)
    if result is None:
        result = _DEGRADED[lowering] = certify_tables(name, lowering)
    return result.under(name)


def export_filename(name: str) -> str:
    """A filesystem-safe file name for one configuration's table JSON."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name).strip("_") + ".json"


def run_tables_pass(
    demo_broken: bool = False,
    export_dir: Optional[str] = None,
) -> CheckReport:
    """Certify every registry configuration's compiled tables.

    A configuration documented as deadlock-free reports every finding
    of its tables; a negative control must be *refuted* by the table
    CDG, and only the verdict is reported.  With ``export_dir`` set,
    every compiled table set is exported to its versioned JSON file.
    """
    from .registry import (
        CheckConfiguration,
        all_configurations,
        broken_configuration,
        degraded_table_configurations,
    )

    report = CheckReport(pass_name="tables")
    configurations = list(all_configurations())
    if demo_broken:
        configurations.append(broken_configuration())
    jobs: List[Tuple[CheckConfiguration, Callable[[], TableCertification]]] = [
        (c, functools.partial(certify_tables, c.name, c.lowering, c.certification))
        for c in configurations
    ]
    jobs += [
        (c, functools.partial(certify_degraded, c.name, c.lowering))
        for c in degraded_table_configurations()
    ]
    for configuration, certify_job in jobs:
        name = configuration.name
        result = certify_job()
        report.note(result.summary())
        if configuration.expect_deadlock_free:
            report.extend(result.findings)
        report.extend(verdict(
            name, configuration.expect_deadlock_free, not result.cyclic,
            result.cycle_description, TABLES_VERDICT,
        ))
        if export_dir is not None and result.tables is not None:
            directory = pathlib.Path(export_dir)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / export_filename(name)
            result.tables.dump(str(path))
            report.note(f"{name}: tables exported to {path}")
    return report
