"""The table verifier certifies good tables and refutes sabotaged ones.

The acceptance-critical negative control lives here: a seeded table
edit that merges two VC classes (the canonical assignment's final local
VC folded onto the global VC) must be refuted with a printed
counterexample cycle, exactly as a bad controller push would be.
"""

import hashlib
import re

import pytest

from repro.check import registry
from repro.check import tables as tables_module
from repro.check.registry import degraded_table_configurations
from repro.check.tables import (
    certify_tables,
    export_filename,
    run_tables_pass,
)
from repro.core.params import DragonflyParams
from repro.routing import vc_assignment as vcs
from repro.routing.paths import dragonfly_path_grammar
from repro.routing.tables import ClosLowering, DragonflyLowering, TableEntry
from repro.topology.dragonfly import Dragonfly
from repro.topology.folded_clos import FoldedClos


@pytest.fixture(scope="module")
def tiny():
    return Dragonfly(DragonflyParams(p=1, a=2, h=1))


class TestCertifyHealthy:
    def test_tiny_dragonfly_certifies(self, tiny):
        lowering = DragonflyLowering(tiny, vcs.CANONICAL, include_nonminimal=True)
        cert = certify_tables("tiny", lowering)
        assert cert.ok, [f.format() for f in cert.findings]
        assert cert.num_entries > 0
        assert cert.num_pairs == tiny.fabric.num_routers * tiny.num_terminals
        assert "certified" in cert.summary()

    def test_clos_routes_are_certified_once_each(self):
        """Up*/down* routes start at leaf *routers*: a leaf's ``down``
        terminals share every route, so enumerating by source terminal
        certified (and counted) each one ``down`` times."""
        clos = FoldedClos(num_terminals=8, radix=4)
        cert = certify_tables("clos", ClosLowering(clos))
        assert cert.ok, [f.format() for f in cert.findings]
        assert cert.num_cases == 88
        assert cert.num_pairs == clos.switches_per_level * clos.num_terminals
        assert "88 routes over 32 pairs" in cert.summary()

    def test_degraded_scenario_certifies(self):
        degraded = degraded_table_configurations()
        assert degraded, "expected at least one fault scenario"
        cert = certify_tables(degraded[0].name, degraded[0].build())
        assert cert.ok, [f.format() for f in cert.findings]
        assert cert.tables is not None
        assert cert.tables.meta["detours"]


class TestCollapsedAssignmentRefuted:
    def test_collapsed_vcs_yield_cycle_with_provenance(self):
        topology = Dragonfly(DragonflyParams.paper_example_72())
        lowering = DragonflyLowering(
            topology, vcs.COLLAPSED_TWO_VC, include_nonminimal=True
        )
        cert = certify_tables("collapsed", lowering)
        assert cert.cyclic
        assert not cert.ok
        assert cert.cycle_description is not None
        assert "table provenance" in cert.cycle_description
        assert cert.summary().startswith("collapsed: REFUTED")


class _VcMergingLowering(DragonflyLowering):
    """A sabotaged lowering: every final-local VC is folded onto the
    global VC after compilation -- the canonical 3-VC ladder collapses
    to the known-deadlocking 2-VC one, via table edit alone."""

    def compile(self):
        tables = super().compile()
        merged = self.assignment.minimal_first_vc  # fold fv onto mf
        for router in list(tables.routers):
            for key in list(tables.routers[router]):
                slots = tables.routers[router][key]
                for via, entry in list(slots.items()):
                    if entry.out_vc == self.assignment.final_local_vc:
                        slots[via] = TableEntry(
                            out_port=entry.out_port,
                            out_vc=merged,
                            next_vc=entry.next_vc,
                            via=entry.via,
                        )
        return tables


class _EntryDeletingLowering(DragonflyLowering):
    """One table entry deleted: the smallest key at the smallest router."""

    def compile(self):
        tables = super().compile()
        router = min(tables.routers)
        key = min(tables.routers[router])
        self.deleted = (router, key)
        del tables.routers[router][key]
        return tables


class _MinimalGrammarLowering(DragonflyLowering):
    """Valiant routes still enumerated and compiled, but the published
    grammar drops the non-minimal route class."""

    def grammar(self):
        return dragonfly_path_grammar(self.assignment, include_nonminimal=False)


class _TupleMetaLowering(DragonflyLowering):
    """Compile provenance holding a tuple, which JSON turns into a list:
    the imported tables no longer equal the exported ones."""

    def compile(self):
        tables = super().compile()
        tables.meta["provenance"] = ("compiler", 1)
        return tables


class _LinkSwappingLowering(DragonflyLowering):
    """One via-tagged entry repointed onto its sibling link's global
    port at that link's gateway router.  Routes from that router now
    leave over the other link: each walk is another enumerated route's
    walk, so the tables diverge from the executor without adding a
    single dependency."""

    def compile(self):
        tables = super().compile()
        fabric = self.topology.fabric
        for router in sorted(tables.routers):
            for key in sorted(tables.routers[router]):
                slots = tables.routers[router][key]
                by_kind = {
                    fabric.out_channel(router, e.out_port).kind.value: e
                    for e in slots.values()
                }
                if len(slots) == 2 and set(by_kind) == {"local", "global"}:
                    local, hop = by_kind["local"], by_kind["global"]
                    slots[local.via] = TableEntry(
                        hop.out_port, hop.out_vc, hop.next_vc, via=local.via
                    )
                    return tables
        raise AssertionError("no gateway router with two candidate links")


def _certify_memoised_and_fresh(lowering_type, params):
    """Certify a sabotaged family twice: through a registry entry whose
    lowering already walked and memoised its routes (as the cdg pass
    leaves it), and as a fresh lowering that walks on first use.  The
    two must report exactly the same findings, in the same order."""
    def family():
        return lowering_type(Dragonfly(params), vcs.CANONICAL, include_nonminimal=True)

    configuration = registry.CheckConfiguration(
        name="sabotaged", description="sabotaged tables", family=family
    )
    assert len(configuration.lowering.walks) == configuration.certification.num_routes
    memoised = certify_tables(
        "sabotaged", configuration.lowering, configuration.certification
    )
    fresh = certify_tables("sabotaged", family())
    assert [(f.code, f.message) for f in memoised.findings] == [
        (f.code, f.message) for f in fresh.findings
    ]
    assert memoised.cycle_description == fresh.cycle_description
    return memoised, configuration.lowering


NONMAX = DragonflyParams(p=1, a=2, h=2, num_groups=3)


class TestEveryTableCodeThroughStoredWalks:
    def test_deleted_entry_is_a_walk_failure_naming_route_and_key(self):
        cert, lowering = _certify_memoised_and_fresh(
            _EntryDeletingLowering, DragonflyParams(p=1, a=2, h=1)
        )
        router, key = lowering.deleted
        codes = [f.code for f in cert.findings]
        assert set(codes) == {"TBL002"}, codes
        for finding in cert.findings:
            assert re.fullmatch(
                rf"table walk failed: \w+ r\d+->t\d+.*: router {router} has "
                rf"no entry for key \({key[0]}, {key[1]}, {key[2]}\) in .*",
                finding.message,
            ), finding.message

    def test_dropped_grammar_class_is_a_grammar_violation(self):
        cert, _ = _certify_memoised_and_fresh(_MinimalGrammarLowering, NONMAX)
        codes = [f.code for f in cert.findings]
        assert set(codes) == {"TBL003"}, codes
        assert cert.findings[0].message.startswith("grammar violation: val r")
        assert "further grammar violations suppressed" in cert.findings[-1].message

    def test_corrupted_round_trip_is_reported(self):
        cert, _ = _certify_memoised_and_fresh(_TupleMetaLowering, NONMAX)
        assert [(f.code, f.message) for f in cert.findings] == [(
            "TBL004", "export -> import round trip is not structurally identical"
        )]

    def test_divergence_without_a_cycle(self):
        cert, _ = _certify_memoised_and_fresh(_LinkSwappingLowering, NONMAX)
        codes = [f.code for f in cert.findings]
        assert set(codes) == {"TBL005"}, codes
        assert "tables walked" in cert.findings[0].message
        assert not cert.cyclic


#: SHA-256 of the ``_VcMergingLowering`` refutation, recorded before the
#: tables pass compared table walks with stored executor walks: its
#: table CDG is now rebuilt from those stored walks plus the divergent
#: table walks, and must name the same cycle with the same provenance.
MERGED_CYCLE_SHA256 = "1d515da5782e803a340802322cdbc4a2e2d33520bfd10a98fedd54b6a43ee274"
MERGED_FINDINGS_SHA256 = "80858409c9ad5f2137e322cbcdb5f39edb721c751fc7a50d730846160c6c3300"


class TestSeededTableEditRefuted:
    def test_merging_vc_classes_is_refuted_with_cycle(self):
        topology = Dragonfly(DragonflyParams.paper_example_72())
        lowering = _VcMergingLowering(
            topology, vcs.CANONICAL, include_nonminimal=True
        )
        cert = certify_tables("sabotaged", lowering)
        assert not cert.ok
        assert cert.cyclic, [f.format() for f in cert.findings]
        # The printed counterexample names concrete buffers and the
        # table entries that program them.
        assert "VC" in (cert.cycle_description or "")
        assert "table provenance" in (cert.cycle_description or "")
        digest = hashlib.sha256(cert.cycle_description.encode()).hexdigest()
        assert digest == MERGED_CYCLE_SHA256
        findings = "\n".join(f.code + f.message for f in cert.findings)
        assert hashlib.sha256(findings.encode()).hexdigest() == MERGED_FINDINGS_SHA256

    def test_memoised_and_fresh_lowerings_refute_alike(self):
        _certify_memoised_and_fresh(
            _VcMergingLowering, DragonflyParams(p=1, a=2, h=1)
        )

    def test_clean_executor_certificate_is_not_reused_for_edited_tables(self):
        """The edit diverges the table walks from the executor (TBL005),
        so the clean executor certificate must not vouch for them: the
        tables are refuted with their own cycle, as without it."""
        topology = Dragonfly(DragonflyParams.paper_example_72())
        lowering = _VcMergingLowering(
            topology, vcs.CANONICAL, include_nonminimal=True
        )
        executor = registry.default_configurations()[0].certification
        assert executor.ok
        cert = certify_tables("sabotaged", lowering, executor)
        alone = certify_tables("sabotaged", lowering)
        assert {"TBL001", "TBL005"} <= {f.code for f in cert.findings}
        assert cert.cycle_description == alone.cycle_description
        assert [f.message for f in cert.findings] == [
            f.message for f in alone.findings
        ]


class TestExecutorCertificateReuse:
    def test_agreeing_walks_reuse_the_certificate(self, monkeypatch):
        """collapsed-2vc's tables walk exactly as its executor: the
        memoised certificate is the table CDG's, with the same cycle and
        provenance the table pass printed when it built its own."""
        broken = registry.broken_configuration()
        alone = certify_tables(broken.name, broken.family())
        executor = broken.certification
        built = []
        monkeypatch.setattr(
            tables_module, "certify", lambda *args: built.append(args[0])
        )
        cert = certify_tables(broken.name, broken.family(), executor)
        assert built == []
        assert cert.cyclic
        assert cert.cycle_description == alone.cycle_description
        assert [f.message for f in cert.findings] == [
            f.message for f in alone.findings
        ]


class TestRunTablesPass:
    def test_default_registry_gates_green(self):
        report = run_tables_pass()
        assert report.ok, report.format(verbose=True)
        assert any("certified" in note for note in report.notes)
        assert any("dragonfly-degraded" in note for note in report.notes)

    def test_demo_broken_reports_info_counterexample(self):
        report = run_tables_pass(demo_broken=True)
        assert report.ok, report.format(verbose=True)
        tbl006 = [f for f in report.findings if f.code == "TBL006"]
        assert len(tbl006) == 1
        assert "counterexample" in tbl006[0].message

    def test_rotted_negative_control_fails_gate(self, monkeypatch, tiny):
        from repro.check import registry

        healthy = registry.CheckConfiguration(
            name="rotted-control",
            description="documented as deadlocking but actually fine",
            family=lambda: DragonflyLowering(
                tiny, vcs.CANONICAL, include_nonminimal=True
            ),
            expect_deadlock_free=False,
        )
        monkeypatch.setattr(registry, "broken_configuration", lambda: healthy)
        report = run_tables_pass(demo_broken=True)
        assert not report.ok
        assert any(f.code == "TBL007" for f in report.findings)

    def test_export_writes_versioned_json(self, tmp_path):
        report = run_tables_pass(export_dir=str(tmp_path))
        assert report.ok
        exported = sorted(tmp_path.glob("*.json"))
        assert len(exported) >= 11  # 10 registry configs + 1 degraded
        from repro.routing.tables import ForwardingTables

        tables = ForwardingTables.load(str(exported[0]))
        assert tables.num_entries() > 0


class TestExportFilename:
    def test_sanitises_registry_names(self):
        name = "dragonfly/MIN+VAL+UGAL@figure7-3vc"
        assert export_filename(name) == "dragonfly_MIN_VAL_UGAL_figure7-3vc.json"

    def test_no_leading_or_trailing_separators(self):
        assert export_filename("//weird name//") == "weird_name.json"
