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

With no arguments all six run.  ``--sanitize-fixture NAME`` additionally
re-simulates a golden fixture under ``REPRO_SANITIZE=1`` and fails on any
conservation violation or output divergence.  See ``--help`` for
selection flags and ``docs/static-analysis.md`` for the full story.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from .invariants import audit_topology, default_topology_audits
from .lint import lint_sources
from .registry import (
    all_configurations,
    broken_configuration,
    degraded_crosscheck_configurations,
    degraded_family_configurations,
    degraded_table_configurations,
    symbolic_scale_configurations,
)
from .report import CheckReport, Severity, combined_exit_code
from .symbolic import (
    certify_grammar,
    degraded_cross_check,
    soundness_harness,
    vc_budget_violations,
)
from .tables import run_tables_pass

PASSES = ("cdg", "symbolic", "tables", "faults", "invariants", "lint")

#: Wall-clock budget for certifying one Table-2-scale parameterisation.
SCALE_BUDGET_SECONDS = 5.0

#: Wall-clock budget for certifying one *degraded* Table-2 family: the
#: acceptance bar of the fault-parametric certifier is well under a
#: second per parameterisation.
FAULT_SCALE_BUDGET_SECONDS = 1.0


def run_cdg_pass(demo_broken: bool = False) -> CheckReport:
    """Certify every registered configuration (plus the negative demo)."""
    report = CheckReport(pass_name="cdg")
    configurations = list(all_configurations())
    if demo_broken:
        configurations.append(broken_configuration())
    for configuration in configurations:
        certification = configuration.certification
        report.note(certification.summary())
        if certification.ok == configuration.expect_deadlock_free:
            if not certification.ok:
                # Negative control behaved as documented: show the cycle
                # as evidence but do not fail the gate.
                report.add(
                    "CDG002", Severity.INFO, configuration.name,
                    "expected counterexample found:\n"
                    + (certification.cycle_description or ""),
                )
            continue
        if certification.ok:
            report.add(
                "CDG003", Severity.ERROR, configuration.name,
                "configuration documented as deadlocking was certified "
                "acyclic; negative control has rotted",
            )
        else:
            report.add(
                "CDG001", Severity.ERROR, configuration.name,
                "channel-dependency graph is CYCLIC; counterexample "
                "deadlock cycle:\n" + (certification.cycle_description or ""),
            )
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
    configurations = list(all_configurations())
    if demo_broken:
        configurations.append(broken_configuration())
    for configuration in configurations:
        certification = certify_grammar(
            configuration.name, configuration.lowering.grammar()
        )
        report.note(certification.summary())
        if certification.ok == configuration.expect_deadlock_free:
            if not certification.ok:
                report.add(
                    "SYM002", Severity.INFO, configuration.name,
                    "expected symbolic counterexample found:\n"
                    + (certification.cycle_description or ""),
                )
            continue
        if certification.ok:
            report.add(
                "SYM003", Severity.ERROR, configuration.name,
                "grammar documented as deadlocking was certified acyclic; "
                "negative control has rotted",
            )
        else:
            report.add(
                "SYM001", Severity.ERROR, configuration.name,
                "class-level dependency graph is CYCLIC; symbolic "
                "counterexample:\n"
                + (certification.cycle_description or ""),
            )
    for scale in symbolic_scale_configurations():
        start = time.perf_counter()
        certification = certify_grammar(scale.name, scale.grammar())
        elapsed = time.perf_counter() - start
        report.note(
            f"{certification.summary()} "
            f"[N={scale.num_terminals:,} terminals, {elapsed:.3f}s]"
        )
        if not certification.ok:
            report.add(
                "SYM001", Severity.ERROR, scale.name,
                "class-level dependency graph is CYCLIC; symbolic "
                "counterexample:\n"
                + (certification.cycle_description or ""),
            )
        elif elapsed > SCALE_BUDGET_SECONDS:
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
                f"(symbolic={'free' if check.symbolic.ok else 'cyclic'}, "
                f"concrete={'free' if check.concrete.ok else 'cyclic'}); "
                "the grammar's abstraction no longer matches the routes",
            )
    return report


def run_faults_pass() -> CheckReport:
    """Fault-parametric certification of degraded families (``FLT0xx``).

    Two stages.  Stage 1 certifies each registered
    :class:`~repro.check.registry.DegradedFamilyConfiguration`: the
    fault-parametric grammar is composed (healthy route classes ∪ detour
    classes, local segments widened for relay faults), its class-level
    dependency graph is proved acyclic (``FLT001`` on an unexpected
    cycle), every class is checked against the assignment's VC budget
    (``FLT002``), and the Table-2 parameterisations are held to the
    sub-second wall-clock budget (``FLT005``).  Negative controls must
    be *refuted* (``FLT003`` INFO evidence; ``FLT004`` when one rots).

    Stage 2 anchors soundness: every enumerable degraded configuration
    is certified both symbolically and concretely (table-level CDG on
    the detour-recompiled tables) and the verdicts must agree
    (``FLT006``); the refuted negative control prints *both*
    counterexample cycles.
    """
    report = CheckReport(pass_name="faults")
    for family in degraded_family_configurations():
        start = time.perf_counter()
        grammar = family.degraded().compose()
        certification = certify_grammar(family.name, grammar)
        violations = vc_budget_violations(grammar)
        elapsed = time.perf_counter() - start
        scale = (
            f" [N={family.num_terminals:,} terminals, {elapsed:.3f}s]"
            if family.num_terminals is not None else ""
        )
        report.note(f"{certification.summary()}{scale}")
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
        if certification.ok == family.expect_deadlock_free:
            if not certification.ok:
                report.add(
                    "FLT003", Severity.INFO, family.name,
                    "expected symbolic counterexample found:\n"
                    + (certification.cycle_description or ""),
                )
            continue
        if certification.ok:
            report.add(
                "FLT004", Severity.ERROR, family.name,
                "degraded family documented as deadlocking was certified "
                "acyclic; negative control has rotted",
            )
        else:
            report.add(
                "FLT001", Severity.ERROR, family.name,
                "degraded class-level dependency graph is CYCLIC; symbolic "
                "counterexample:\n"
                + (certification.cycle_description or ""),
            )
    for configuration in degraded_crosscheck_configurations():
        check = degraded_cross_check(configuration.name, configuration.build())
        report.note(check.summary())
        if not check.agrees:
            report.add(
                "FLT006", Severity.ERROR, configuration.name,
                "symbolic and concrete verdicts disagree "
                f"(symbolic={'free' if check.symbolic.ok else 'cyclic'}, "
                "concrete-tables="
                f"{'cyclic' if check.concrete.cyclic else 'free'}); the "
                "degraded grammar's abstraction no longer matches the "
                "detour-recompiled tables",
            )
            continue
        safe = check.symbolic.ok
        if safe == configuration.expect_deadlock_free:
            if not safe:
                report.add(
                    "FLT003", Severity.INFO, configuration.name,
                    "expected counterexample found by BOTH verifiers.\n"
                    "symbolic counterexample:\n"
                    + (check.symbolic.cycle_description or "")
                    + "\nconcrete table-level counterexample:\n"
                    + (check.concrete.cycle_description or ""),
                )
            else:
                # Certified clean both ways: surface any non-cycle
                # concrete findings (reachability, round trip, ...).
                report.extend(check.concrete.findings)
            continue
        if safe:
            report.add(
                "FLT004", Severity.ERROR, configuration.name,
                "degraded configuration documented as deadlocking was "
                "certified clean by both verifiers; negative control has "
                "rotted",
            )
        else:
            report.add(
                "FLT001", Severity.ERROR, configuration.name,
                "degraded configuration is CYCLIC (both verifiers agree); "
                "symbolic counterexample:\n"
                + (check.symbolic.cycle_description or "")
                + "\nconcrete table-level counterexample:\n"
                + (check.concrete.cycle_description or ""),
            )
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


def run_lint_pass(root: Optional[str] = None) -> CheckReport:
    """Run the repo-specific AST lint."""
    report = CheckReport(pass_name="lint")
    findings = lint_sources(root)
    report.extend(findings)
    report.note(f"{len(findings)} finding(s)")
    return report


def run_sanitize_pass(fixture: str) -> CheckReport:
    """Re-simulate a golden fixture under the conservation sanitizer.

    ``fixture`` is a path to a fixture JSON or a bare name resolved
    against ``tests/golden/`` (``families/<name>`` for an extension
    family's runs).  The run fails on any conservation violation (the
    sanitizer's findings are surfaced directly) and on any divergence
    from the fixture's pinned results -- sanitizing must be
    behaviour-preserving.
    """
    from ..core.params import DragonflyParams
    from ..network.config import SimulationConfig
    from ..network.parallel import ServiceError, SweepExecutor
    from ..network.simulator import Simulator
    from ..network.sweep import load_sweep
    from ..network.traffic import make_pattern
    from ..routing.ugal import make_routing
    from ..settings import ENV_VARS, Settings
    from ..topology.dragonfly import Dragonfly
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
    try:
        if "runs" in data:
            # An extension family: each run on the scalar engine, on the
            # topology its routing drives, with the fixture's pattern seed.
            results: List[Dict[str, Any]] = []
            for run in data["runs"]:
                routing = make_routing(run["routing"])
                topology = routing.topology_type(**data["kwargs"])
                pattern = make_pattern(run["pattern"], topology, seed=config.seed + 17)
                results.append(Simulator(
                    topology, routing, pattern, config.with_load(run["load"]),
                    settings,
                ).run().to_dict())
        else:
            points = load_sweep(
                Dragonfly(DragonflyParams(**data["topology"])), data["routing"],
                data["pattern"], data["loads"], config,
                executor=SweepExecutor(settings=settings),
            )
            results = [point.result.to_dict() for point in points]
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
    lint_root: Optional[str] = None,
    export_tables: Optional[str] = None,
) -> List[CheckReport]:
    reports = []
    for name in passes:
        if name == "cdg":
            reports.append(run_cdg_pass(demo_broken=demo_broken))
        elif name == "symbolic":
            reports.append(run_symbolic_pass(demo_broken=demo_broken))
        elif name == "tables":
            reports.append(run_tables_pass(
                demo_broken=demo_broken, export_dir=export_tables
            ))
        elif name == "faults":
            reports.append(run_faults_pass())
        elif name == "invariants":
            reports.append(run_invariants_pass())
        elif name == "lint":
            reports.append(run_lint_pass(root=lint_root))
        else:
            raise ValueError(f"unknown pass {name!r}")
    return reports


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
        "--symbolic", action="store_true",
        help="run only the symbolic family-level certification pass "
        "(shorthand for the 'symbolic' positional)",
    )
    parser.add_argument(
        "--tables", action="store_true",
        help="run only the forwarding-table certification pass "
        "(shorthand for the 'tables' positional)",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="run only the fault-parametric degraded-family certification "
        "pass (shorthand for the 'faults' positional)",
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
        "--lint-root", default=None,
        help="directory to lint instead of the installed repro package",
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
        print("Fault-degraded table configurations:")
        for degraded in degraded_table_configurations():
            print(f"  {degraded.name}  ({degraded.description})")
        print("Degraded families (symbolic, fault-parametric):")
        for family in degraded_family_configurations():
            print(f"  {family.name}  ({family.description})")
        print("Degraded cross-check configurations:")
        for crosscheck in degraded_crosscheck_configurations():
            print(f"  {crosscheck.name}  ({crosscheck.description})")
        print("Symbolic scale parameterisations:")
        for scale in symbolic_scale_configurations():
            print(f"  {scale.name}  ({scale.description})")
        print("Topology audits:")
        for name, _ in default_topology_audits():
            print(f"  {name}")
        return 0

    shorthands = (
        ("--symbolic", args.symbolic),
        ("--tables", args.tables),
        ("--faults", args.faults),
    )
    for flag, shorthand in shorthands:
        if shorthand and args.passes:
            parser.error(f"{flag} cannot be combined with positional passes")
    selected = [flag for flag, shorthand in shorthands if shorthand]
    if len(selected) > 1:
        parser.error(
            f"{' and '.join(selected)} select different single passes"
        )
    if args.symbolic:
        passes = ["symbolic"]
    elif args.tables:
        passes = ["tables"]
    elif args.faults:
        passes = ["faults"]
    else:
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
        passes, demo_broken=args.demo_broken, lint_root=args.lint_root,
        export_tables=args.export_tables,
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
