"""``python -m repro.check`` -- the static-analysis gate.

Runs up to six passes and exits nonzero when any produces an ERROR:

* ``cdg``         -- certify deadlock freedom of every registered
                     (topology, routing, VC assignment) configuration by
                     concrete route enumeration;
* ``symbolic``    -- certify whole routing *families* from their path
                     grammars (channel-class abstraction), cross-checked
                     against the concrete verdicts, including Table-2
                     scale parameterisations no enumerator could touch;
* ``tables``      -- compile every configuration to explicit per-router
                     forwarding tables and certify the compiled form
                     (reachability, acyclic table-CDG, grammar-consistent
                     VCs, JSON round trip), including fault-degraded
                     dragonfly table sets;
* ``faults``      -- fault-parametric certification of *degraded*
                     families: healthy grammar composed with symbolic
                     fault classes (severed group pair, dead local link,
                     dead router), proved acyclic and within the VC
                     budget at Table-2 scale, anchored by a
                     symbolic-vs-concrete cross-check on every
                     enumerable degraded configuration;
* ``invariants``  -- audit the topology algebra and wiring invariants;
* ``lint``        -- repo-specific AST lint of ``src/repro``,
                     ``benchmarks/`` and ``examples/``.

Passes are chosen by name (``python -m repro.check symbolic tables``);
with none named all six run, and each certifying pass judges its
certificates by the one rule of :func:`repro.check.report.verdict`.
``--sanitize-fixture NAME`` additionally re-simulates a golden fixture
under ``REPRO_SANITIZE=1`` and fails on any conservation violation or
output divergence.  See ``docs/static-analysis.md`` for the full story.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from .invariants import audit_topology, default_topology_audits
from .lint import lint_sources
from .registry import (
    CheckConfiguration,
    GrammarConfiguration,
    all_configurations,
    broken_configuration,
    degraded_crosscheck_configurations,
    degraded_family_configurations,
    degraded_table_configurations,
    symbolic_scale_configurations,
)
from .report import CheckReport, Severity, Wording, combined_exit_code, verdict
from .symbolic import (
    SymbolicCertification,
    certify_grammar,
    cross_check,
    soundness_harness,
    vc_budget_violations,
)
from .tables import certify_degraded, run_tables_pass

PASSES = ("cdg", "symbolic", "tables", "faults", "invariants", "lint")

#: Wall-clock budget for certifying one Table-2-scale parameterisation.
SCALE_BUDGET_SECONDS = 5.0

#: Wall-clock budget for certifying one *degraded* Table-2 family: the
#: acceptance bar of the fault-parametric certifier is well under a
#: second per parameterisation.
FAULT_SCALE_BUDGET_SECONDS = 1.0

#: Each pass's verdicts (see :func:`repro.check.report.verdict`).
CDG_VERDICT: Wording = (
    ("CDG001", "channel-dependency graph is CYCLIC; counterexample "
               "deadlock cycle:\n"),
    ("CDG002", "expected counterexample found:\n"),
    ("CDG003", "configuration documented as deadlocking was certified "
               "acyclic; negative control has rotted"),
)
SYMBOLIC_VERDICT: Wording = (
    ("SYM001", "class-level dependency graph is CYCLIC; symbolic "
               "counterexample:\n"),
    ("SYM002", "expected symbolic counterexample found:\n"),
    ("SYM003", "grammar documented as deadlocking was certified acyclic; "
               "negative control has rotted"),
)
FAMILY_VERDICT: Wording = (
    ("FLT001", "degraded class-level dependency graph is CYCLIC; symbolic "
               "counterexample:\n"),
    ("FLT003", "expected symbolic counterexample found:\n"),
    ("FLT004", "degraded family documented as deadlocking was certified "
               "acyclic; negative control has rotted"),
)
DEGRADED_VERDICT: Wording = (
    ("FLT001", "degraded configuration is CYCLIC (both verifiers agree); "),
    ("FLT003", "expected counterexample found by BOTH verifiers.\n"),
    ("FLT004", "degraded configuration documented as deadlocking was "
               "certified clean by both verifiers; negative control has "
               "rotted"),
)


def _registry(demo_broken: bool) -> List[CheckConfiguration]:
    """The registered configurations, plus the negative control on demand."""
    configurations = list(all_configurations())
    if demo_broken:
        configurations.append(broken_configuration())
    return configurations


def _note_certification(
    report: CheckReport, family: GrammarConfiguration,
    certification: SymbolicCertification, elapsed: float,
) -> None:
    """Note one grammar configuration's certificate, with its scale."""
    scale = (
        f" [N={family.num_terminals:,} terminals, {elapsed:.3f}s]"
        if family.num_terminals is not None else ""
    )
    report.note(f"{certification.summary()}{scale}")


def run_cdg_pass(demo_broken: bool = False) -> CheckReport:
    """Certify every registered configuration (plus the negative demo)."""
    report = CheckReport(pass_name="cdg")
    for configuration in _registry(demo_broken):
        certification = configuration.certification
        report.note(certification.summary())
        report.extend(verdict(
            configuration.name, configuration.expect_deadlock_free,
            certification.ok, certification.cycle_description, CDG_VERDICT,
        ))
    return report
def run_symbolic_pass(demo_broken: bool = False) -> CheckReport:
    """Certify every routing family symbolically and cross-check.

    Three stages: (1) certify each registered configuration's path
    grammar; (2) certify the Table-2-scale parameterisations (symbolic
    only -- their concrete CDGs are astronomically large) against the
    wall-clock budget; (3) run the soundness harness, which compares each
    finite configuration's concrete certificate (the one the cdg pass
    reads) with its symbolic verdict and demands agreement.
    """
    report = CheckReport(pass_name="symbolic")
    configurations = _registry(demo_broken)
    for configuration in configurations:
        certification = certify_grammar(
            configuration.name, configuration.lowering.grammar()
        )
        report.note(certification.summary())
        report.extend(verdict(
            configuration.name, configuration.expect_deadlock_free,
            certification.ok, certification.cycle_description,
            SYMBOLIC_VERDICT,
        ))
    for scale in symbolic_scale_configurations():
        start = time.perf_counter()
        certification = certify_grammar(scale.name, scale.grammar())
        elapsed = time.perf_counter() - start
        _note_certification(report, scale, certification, elapsed)
        report.extend(verdict(
            scale.name, scale.expect_deadlock_free, certification.ok,
            certification.cycle_description, SYMBOLIC_VERDICT,
        ))
        if certification.ok and elapsed > SCALE_BUDGET_SECONDS:
            report.add(
                "SYM004", Severity.ERROR, scale.name,
                f"symbolic certification took {elapsed:.1f}s; the budget "
                f"for Table-2 scale is {SCALE_BUDGET_SECONDS:.0f}s",
            )
    for check in soundness_harness(
        configurations if demo_broken
        else [*configurations, broken_configuration()]
    ):
        report.note(check.summary())
        if not check.agrees:
            report.add(
                "SYM005", Severity.ERROR, check.name,
                "symbolic and concrete verdicts disagree "
                f"({check.verdicts(', ')}); the grammar's abstraction no "
                "longer matches the routes",
            )
    return report


def run_faults_pass() -> CheckReport:
    """Fault-parametric certification of degraded families (``FLT0xx``).

    Two stages.  Stage 1 certifies each
    :func:`~repro.check.registry.degraded_family_configurations` entry:
    the fault-parametric grammar is composed (healthy route classes ∪
    detour classes, local segments widened for relay faults), every
    class is checked against the assignment's VC budget (``FLT002``),
    the Table-2 parameterisations are held to the sub-second wall-clock
    budget (``FLT005``), and its class-level dependency graph is judged
    (``FLT001`` on an unexpected cycle; negative controls must be
    *refuted*, ``FLT003`` INFO evidence, ``FLT004`` when one rots).

    Stage 2 anchors soundness: every enumerable degraded configuration
    is certified both symbolically and concretely (table-level CDG on
    the detour-recompiled tables) and the verdicts must agree
    (``FLT006``); the agreed verdict is judged the same way, printing
    *both* counterexample cycles.
    """
    report = CheckReport(pass_name="faults")
    for family in degraded_family_configurations():
        # The FLT005 budget covers composing, certifying and the VC check.
        start = time.perf_counter()
        grammar = family.grammar()
        certification = certify_grammar(family.name, grammar)
        violations = vc_budget_violations(grammar)
        elapsed = time.perf_counter() - start
        _note_certification(report, family, certification, elapsed)
        for violation in violations:
            report.add(
                "FLT002", Severity.ERROR, family.name,
                f"detour class exceeds the VC budget: {violation}",
            )
        if family.num_terminals is not None and (
            elapsed > FAULT_SCALE_BUDGET_SECONDS
        ):
            report.add(
                "FLT005", Severity.ERROR, family.name,
                f"degraded-family certification took {elapsed:.2f}s; the "
                f"budget at Table-2 scale is "
                f"{FAULT_SCALE_BUDGET_SECONDS:.0f}s",
            )
        report.extend(verdict(
            family.name, family.expect_deadlock_free, certification.ok,
            certification.cycle_description, FAMILY_VERDICT,
        ))
    for configuration in degraded_crosscheck_configurations():
        # A fresh lowering per scenario, dropped with its tables after
        # it -- except one the tables pass certifies too (the registry
        # builds it once per process).
        lowering = configuration.family()
        tables = certify_degraded(configuration.name, lowering)
        check = cross_check(configuration.name, lowering, tables)
        report.note(check.summary())
        if not check.agrees:
            report.add(
                "FLT006", Severity.ERROR, configuration.name,
                "symbolic and concrete verdicts disagree "
                f"({check.verdicts(', ')}); the degraded grammar's "
                "abstraction no longer matches the detour-recompiled tables",
            )
            continue
        expected, safe = configuration.expect_deadlock_free, check.symbolic.ok
        if expected and safe:
            # Certified clean both ways: surface any non-cycle concrete
            # findings (reachability, round trip, ...).
            report.extend(tables.findings)
        report.extend(verdict(
            configuration.name, expected, safe,
            "symbolic counterexample:\n"
            + (check.symbolic.cycle_description or "")
            + "\nconcrete table-level counterexample:\n"
            + (tables.cycle_description or ""),
            DEGRADED_VERDICT,
        ))
    return report


def run_invariants_pass() -> CheckReport:
    """Audit every registered topology instance."""
    report = CheckReport(pass_name="invariants")
    for name, build in default_topology_audits():
        topology = build()
        findings = audit_topology(topology)
        report.extend(findings)
        errors = sum(1 for f in findings if f.severity == Severity.ERROR)
        report.note(f"{name}: {'ok' if not errors else f'{errors} errors'}")
    return report


def run_lint_pass() -> CheckReport:
    """Run the repo-specific AST lint."""
    report = CheckReport(pass_name="lint")
    findings = lint_sources()
    report.extend(findings)
    report.note(f"{len(findings)} finding(s)")
    return report


def run_sanitize_pass(fixture: str) -> CheckReport:
    """Re-simulate a golden fixture under the conservation sanitizer.

    ``fixture`` is a path to a fixture JSON or a bare name resolved
    against ``tests/golden/`` (``families/<name>`` for an extension
    family's runs).  Either kind runs as one batch through
    :class:`~repro.network.parallel.SweepExecutor`, on the topology
    :func:`~repro.topology.base.build` makes of the fixture.  The run
    fails on any conservation violation (the sanitizer's findings are
    surfaced directly) and on any divergence from the fixture's pinned
    results -- sanitizing must be behaviour-preserving.
    """
    from ..network.config import SimulationConfig
    from ..network.parallel import PointSpec, ServiceError, SweepExecutor
    from ..settings import ENV_VARS, Settings
    from ..topology.base import build
    from .sanitizer import SanitizerError

    report = CheckReport(pass_name="sanitize")
    path = pathlib.Path(fixture)
    if not path.is_file():
        path = pathlib.Path("tests/golden") / f"{fixture}.json"
    if not path.is_file():
        report.add(
            "SAN000", Severity.ERROR, fixture,
            "fixture not found (pass a JSON path or the stem of a file "
            "under tests/golden/)",
        )
        return report
    data = json.loads(path.read_text())
    config = SimulationConfig(**data["config"])
    settings = dataclasses.replace(Settings.from_env(), sanitize=True)
    if "runs" in data:
        # An extension family's fixture: its class name, its arguments
        # and a list of runs.
        topology = build({"family": data["topology"], **data["kwargs"]})
        runs = data["runs"]
    else:
        topology = build({"family": "Dragonfly", "params": data["topology"]})
        runs = [
            {"routing": data["routing"], "pattern": data["pattern"], "load": load}
            for load in data["loads"]
        ]
    specs = [
        PointSpec(run["routing"], run["pattern"], config.with_load(run["load"]))
        for run in runs
    ]
    try:
        results = [
            result.to_dict()
            for result in SweepExecutor(settings=settings).run_points(topology, specs)
        ]
    except (SanitizerError, ServiceError) as error:
        # The sweep runner reports a failed point as ServiceError
        # chained to what the point raised.
        cause = error.__cause__ if isinstance(error, ServiceError) else error
        if not isinstance(cause, SanitizerError):
            raise
        report.extend(cause.findings)
        return report
    if results != data["points"]:
        report.add(
            "SAN006", Severity.ERROR, str(path),
            "sanitized re-run diverged from the pinned fixture results; "
            "the sanitizer must be behaviour-preserving",
        )
    else:
        report.note(
            f"{path.stem}: {len(results)} point(s) re-simulated under "
            f"{ENV_VARS['sanitize']}=1; zero violations, bit-identical results"
        )
    return report


def run_passes(
    passes: Sequence[str],
    demo_broken: bool = False,
    export_tables: Optional[str] = None,
) -> List[CheckReport]:
    runners: Dict[str, Callable[[], CheckReport]] = {
        "cdg": lambda: run_cdg_pass(demo_broken=demo_broken),
        "symbolic": lambda: run_symbolic_pass(demo_broken=demo_broken),
        "tables": lambda: run_tables_pass(
            demo_broken=demo_broken, export_dir=export_tables
        ),
        "faults": run_faults_pass,
        "invariants": run_invariants_pass,
        "lint": run_lint_pass,
    }
    return [runners[name]() for name in passes]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="static deadlock-freedom certifier (concrete and "
        "symbolic), topology invariant linter and code lint for the "
        "dragonfly reproduction",
    )
    parser.add_argument(
        "passes", nargs="*", metavar="pass",
        help=f"passes to run, from {{{', '.join(PASSES)}}} (default: all)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list registered CDG configurations, symbolic scale "
        "parameterisations and topology audits, then exit",
    )
    parser.add_argument(
        "--export-tables", metavar="DIR", default=None,
        help="with the tables pass: export every compiled table set as "
        "versioned JSON into DIR",
    )
    parser.add_argument(
        "--sanitize-fixture", metavar="FIXTURE", default=None,
        help="additionally re-simulate a golden fixture (path or stem "
        "under tests/golden/) with REPRO_SANITIZE=1 and fail on any "
        "conservation violation or result divergence",
    )
    parser.add_argument(
        "--demo-broken", action="store_true",
        help="also certify the deliberately broken collapsed-2vc assignment "
        "to demonstrate counterexample extraction (does not fail the gate)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="show per-configuration notes and INFO findings",
    )
    args = parser.parse_args(argv)

    if args.list:
        print("CDG configurations:")
        for configuration in all_configurations():
            try:
                lowering = configuration.family()
                budget = f"{lowering.family}, {lowering.grammar().num_vcs} VCs"
            except Exception:
                print(
                    f"registry entry {configuration.name!r}: family() cannot "
                    "be constructed",
                    file=sys.stderr,
                )
                raise
            print(f"  {configuration.name} [{budget}]  "
                  f"({configuration.description})")
        for heading, entries in (
            ("Fault-degraded table configurations", degraded_table_configurations()),
            ("Degraded families (symbolic, fault-parametric)",
             degraded_family_configurations()),
            ("Degraded cross-check configurations", degraded_crosscheck_configurations()),
            ("Symbolic scale parameterisations", symbolic_scale_configurations()),
        ):
            print(f"{heading}:")
            for entry in entries:
                print(f"  {entry.name}  ({entry.description})")
        print("Topology audits:")
        for name, _ in default_topology_audits():
            print(f"  {name}")
        return 0

    passes = args.passes or list(PASSES)
    unknown = [name for name in passes if name not in PASSES]
    if unknown:
        parser.error(
            f"unknown pass(es) {', '.join(unknown)}; choose from {', '.join(PASSES)}"
        )
    if args.export_tables is not None:
        if "tables" not in passes:
            parser.error("--export-tables needs the tables pass")
        if pathlib.Path(args.export_tables).is_file():
            parser.error(f"--export-tables {args.export_tables}: is a file, not a directory")
    reports = run_passes(
        passes, demo_broken=args.demo_broken, export_tables=args.export_tables
    )
    if args.sanitize_fixture is not None:
        reports.append(run_sanitize_pass(args.sanitize_fixture))
    for report in reports:
        print(report.format(verbose=args.verbose))
    code = combined_exit_code(reports)
    print("repro.check:", "all passes clean" if code == 0 else "FAILED")
    return code


if __name__ == "__main__":
    sys.exit(main())
