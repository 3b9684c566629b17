"""One verdict rule, every certifying pass.

Each pass judges a certificate against what its configuration documents
through :func:`repro.check.report.verdict`.  Stub configurations and
certificates drive every pass through the rule's four outcomes -- clean,
expected refutation, rotted negative control, unexpected cycle -- and
each finding's code, severity, subject and exact message are pinned.
The error texts never appear in the pinned reports of ``test_cdg.py``,
where every configuration behaves as documented.
"""

from types import SimpleNamespace

import pytest

from repro.check import tables as tables_module
from repro.check.__main__ import (
    run_cdg_pass,
    run_faults_pass,
    run_symbolic_pass,
)
from repro.check.cdg import Certification
from repro.check.registry import GrammarConfiguration
from repro.check.report import Finding, Severity
from repro.check.symbolic import CrossCheck, SymbolicCertification
from repro.check.tables import TableCertification, run_tables_pass
from repro.routing.grammar import PathGrammar

ERROR, INFO = Severity.ERROR, Severity.INFO
CYCLE = "  packet holding buffer A waits for buffer B"
SUBJECT = "stub/config"

#: (documented deadlock-free, certified deadlock-free) of each outcome.
OUTCOMES = {
    "clean": (True, True),
    "expected-refutation": (False, False),
    "rotted-control": (False, True),
    "unexpected-cycle": (True, False),
}


def outcomes(expected_findings):
    """Parametrize over the four outcomes with their expected findings,
    each a :class:`Finding` or a ``(code, severity, message)`` about
    :data:`SUBJECT`."""
    return pytest.mark.parametrize(
        "expect, certified, findings",
        [
            (*OUTCOMES[name], [
                row if isinstance(row, Finding) else Finding(row[0], row[1], SUBJECT, row[2])
                for row in expected_findings[name]
            ])
            for name in OUTCOMES
        ],
        ids=list(OUTCOMES),
    )


def stub_registry(monkeypatch, module, configurations, **others):
    """Make ``module``'s registry readers return the stubs only."""
    monkeypatch.setattr(f"{module}.all_configurations", lambda: configurations)
    for name, value in others.items():
        monkeypatch.setattr(f"{module}.{name}", lambda value=value: value)


def symbolic_stub(certified, name=SUBJECT, cycle=CYCLE):
    return SymbolicCertification(
        name, certified, 1, 1, 1, cycle_description=None if certified else cycle
    )


def table_stub(certified, findings=()):
    return TableCertification(
        SUBJECT, findings=list(findings), cycle_description=None if certified else CYCLE
    )


@outcomes({
    "clean": [],
    "expected-refutation": [
        ("CDG002", INFO, "expected counterexample found:\n" + CYCLE),
    ],
    "rotted-control": [(
        "CDG003", ERROR,
        "configuration documented as deadlocking was certified acyclic; "
        "negative control has rotted",
    )],
    "unexpected-cycle": [(
        "CDG001", ERROR,
        "channel-dependency graph is CYCLIC; counterexample deadlock cycle:\n" + CYCLE,
    )],
})
def test_cdg_pass(monkeypatch, expect, certified, findings):
    certification = Certification(
        SUBJECT, certified, 1, 1, 1, cycle_description=None if certified else CYCLE
    )
    stub = SimpleNamespace(
        name=SUBJECT, expect_deadlock_free=expect, certification=certification
    )
    stub_registry(monkeypatch, "repro.check.__main__", [stub])
    report = run_cdg_pass()
    assert report.findings == findings


SYMBOLIC = {
    "clean": [],
    "expected-refutation": [
        ("SYM002", INFO, "expected symbolic counterexample found:\n" + CYCLE),
    ],
    "rotted-control": [(
        "SYM003", ERROR,
        "grammar documented as deadlocking was certified acyclic; "
        "negative control has rotted",
    )],
    "unexpected-cycle": [(
        "SYM001", ERROR,
        "class-level dependency graph is CYCLIC; symbolic counterexample:\n" + CYCLE,
    )],
}


@pytest.mark.parametrize("stage", ["registry", "scale"])
@outcomes(SYMBOLIC)
def test_symbolic_pass(monkeypatch, stage, expect, certified, findings):
    monkeypatch.setattr(
        "repro.check.__main__.certify_grammar",
        lambda name, grammar: symbolic_stub(certified, name),
    )
    monkeypatch.setattr("repro.check.__main__.soundness_harness", lambda _: [])
    configurations, scale = [], []
    if stage == "registry":
        configurations.append(SimpleNamespace(
            name=SUBJECT, expect_deadlock_free=expect,
            lowering=SimpleNamespace(grammar=lambda: None),
        ))
    else:
        scale.append(GrammarConfiguration(
            SUBJECT, "stub", lambda: None, expect, num_terminals=1_000
        ))
    stub_registry(
        monkeypatch, "repro.check.__main__", configurations,
        symbolic_scale_configurations=scale,
    )
    report = run_symbolic_pass()
    assert report.findings == findings


#: A non-cycle finding of the table certificate: reported with the
#: verdict when the tables are documented deadlock-free, dropped with
#: the expected findings of a negative control.
UNREACHABLE = Finding("TBL002", ERROR, SUBJECT, "1 pair(s) have no surviving table route")


@outcomes({
    "clean": [UNREACHABLE],
    "expected-refutation": [
        ("TBL006", INFO, "expected table-level counterexample found:\n" + CYCLE),
    ],
    "rotted-control": [(
        "TBL007", ERROR,
        "tables documented as deadlocking were certified acyclic; "
        "negative control has rotted",
    )],
    "unexpected-cycle": [UNREACHABLE, (
        "TBL001", ERROR,
        "table-level channel-dependency graph is CYCLIC; counterexample deadlock "
        "cycle:\n" + CYCLE,
    )],
})
def test_tables_pass(monkeypatch, expect, certified, findings):
    stub = SimpleNamespace(
        name=SUBJECT, expect_deadlock_free=expect, lowering=None, certification=None
    )
    stub_registry(
        monkeypatch, "repro.check.registry", [stub], degraded_table_configurations=[]
    )
    monkeypatch.setattr(
        tables_module, "certify_tables",
        lambda name, lowering, executor=None: table_stub(certified, [UNREACHABLE]),
    )
    assert run_tables_pass().findings == findings


@outcomes({
    "clean": [],
    "expected-refutation": [
        ("FLT003", INFO, "expected symbolic counterexample found:\n" + CYCLE),
    ],
    "rotted-control": [(
        "FLT004", ERROR,
        "degraded family documented as deadlocking was certified acyclic; "
        "negative control has rotted",
    )],
    "unexpected-cycle": [(
        "FLT001", ERROR,
        "degraded class-level dependency graph is CYCLIC; symbolic "
        "counterexample:\n" + CYCLE,
    )],
})
def test_faults_pass_families(monkeypatch, expect, certified, findings):
    grammar = PathGrammar(name="stub", num_vcs=1, route_classes=())
    family = GrammarConfiguration(SUBJECT, "stub", lambda: grammar, expect)
    monkeypatch.setattr(
        "repro.check.__main__.certify_grammar",
        lambda name, _grammar: symbolic_stub(certified, name),
    )
    stub_registry(
        monkeypatch, "repro.check.__main__", [],
        degraded_family_configurations=[family],
        degraded_crosscheck_configurations=[],
    )
    report = run_faults_pass()
    assert report.findings == findings


#: A non-cycle finding of the concrete table certificate.
ROUND_TRIP = Finding(
    "TBL004", ERROR, SUBJECT, "export -> import round trip is not structurally identical"
)
BOTH_CYCLES = (
    "symbolic counterexample:\n  class cycle\n"
    "concrete table-level counterexample:\n" + CYCLE
)


@outcomes({
    "clean": [ROUND_TRIP],
    "expected-refutation": [(
        "FLT003", INFO,
        "expected counterexample found by BOTH verifiers.\n" + BOTH_CYCLES,
    )],
    "rotted-control": [(
        "FLT004", ERROR,
        "degraded configuration documented as deadlocking was certified clean "
        "by both verifiers; negative control has rotted",
    )],
    "unexpected-cycle": [(
        "FLT001", ERROR,
        "degraded configuration is CYCLIC (both verifiers agree); " + BOTH_CYCLES,
    )],
})
def test_faults_pass_cross_checks(monkeypatch, expect, certified, findings):
    stub = SimpleNamespace(name=SUBJECT, expect_deadlock_free=expect, family=lambda: None)
    concrete = table_stub(certified, [ROUND_TRIP])
    monkeypatch.setattr(
        "repro.check.__main__.certify_tables", lambda name, lowering: concrete
    )
    monkeypatch.setattr(
        "repro.check.__main__.cross_check",
        lambda name, lowering, table_certificate: CrossCheck(
            name,
            symbolic_stub(certified, cycle="  class cycle"),
            table_certificate,
        ),
    )
    stub_registry(
        monkeypatch, "repro.check.__main__", [],
        degraded_family_configurations=[],
        degraded_crosscheck_configurations=[stub],
    )
    report = run_faults_pass()
    assert report.notes == [
        f"{SUBJECT}: symbolic={'free' if certified else 'cyclic'} "
        f"concrete-tables={'free' if certified else 'cyclic'} -> agree"
    ]
    assert report.findings == findings
