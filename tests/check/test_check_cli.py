"""Tests for the ``python -m repro.check`` command-line gate."""

import dataclasses
import json
import pathlib

import pytest

from repro.check.__main__ import (
    PASSES,
    main,
    run_cdg_pass,
    run_sanitize_pass,
    run_symbolic_pass,
)
from repro.check.registry import broken_configuration
from repro.check.report import (
    CheckReport,
    Finding,
    Severity,
    combined_exit_code,
)
from repro.core.params import DragonflyParams
from repro.routing import vc_assignment as vcs
from repro.routing.paths import dragonfly_path_grammar
from repro.routing.tables import DragonflyLowering
from repro.topology.dragonfly import Dragonfly

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "golden"


class TestExitCodes:
    def test_lint_and_invariants_pass_on_shipped_tree(self, capsys):
        assert main(["lint", "invariants"]) == 0
        out = capsys.readouterr().out
        assert "[lint] ok" in out
        assert "[invariants] ok" in out
        assert "all passes clean" in out

    def test_unknown_pass_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cdg", "nonsense"])
        assert excinfo.value.code == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_list_shows_configurations(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "dragonfly/MIN+VAL+UGAL@figure7-3vc" in out
        assert "dragonfly-paper72" in out

    def test_list_shows_vc_budgets_and_scale_parameterisations(
        self, capsys
    ):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "torus/DOR+VAL@dateline-4vc [torus, 4 VCs]" in out
        assert "Symbolic scale parameterisations:" in out
        assert "dragonfly-balanced-h24" in out

    def test_list_names_the_entry_whose_family_cannot_be_built(
        self, monkeypatch, capsys
    ):
        """``--list`` constructs every family, so CI catches a registry
        entry that cannot be built -- by name, not by traceback."""

        def unbuildable():
            raise ValueError("no such topology")

        bad = dataclasses.replace(
            broken_configuration(), name="bad/entry", family=unbuildable
        )
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [bad]
        )
        with pytest.raises(ValueError, match="no such topology"):
            main(["--list"])
        assert "'bad/entry'" in capsys.readouterr().err

    def test_symbolic_pass_runs_alone_by_name(self, capsys):
        assert main(["symbolic"]) == 0
        out = capsys.readouterr().out
        assert "[symbolic] ok" in out
        assert "[cdg]" not in out
        assert "[lint]" not in out

    def test_export_tables_onto_a_file_is_a_usage_error_before_any_pass(
        self, monkeypatch, tmp_path, capsys
    ):
        target = tmp_path / "tables.json"
        target.write_text("{}")

        def must_not_run(**_kwargs):
            raise AssertionError("the tables pass ran")

        monkeypatch.setattr(
            "repro.check.__main__.run_tables_pass", must_not_run
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["tables", "--export-tables", str(target)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if "error:" in line]
        assert len(error_lines) == 1, err
        assert str(target) in error_lines[0]
        assert "Traceback" not in err
        assert target.read_text() == "{}"

    def test_export_tables_without_the_tables_pass_is_a_usage_error(
        self, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["cdg", "--export-tables", str(tmp_path / "out")])
        assert excinfo.value.code == 2
        assert "--export-tables" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExitCodeAudit:
    """An ERROR in *any* pass must reach the process exit code -- this
    is the contract CI relies on."""

    @pytest.mark.parametrize("pass_name", PASSES)
    def test_error_in_any_pass_fails_the_gate(
        self, monkeypatch, capsys, pass_name
    ):
        def dirty(**_kwargs):
            report = CheckReport(pass_name=pass_name)
            report.add(
                "X999", Severity.ERROR, "somewhere", "planted failure"
            )
            return report

        monkeypatch.setattr(
            f"repro.check.__main__.run_{pass_name}_pass", dirty
        )
        assert main([pass_name]) == 1
        out = capsys.readouterr().out
        assert "X999" in out
        assert "FAILED" in out

    @pytest.mark.parametrize("pass_name", PASSES)
    def test_clean_pass_exits_zero(self, monkeypatch, capsys, pass_name):
        monkeypatch.setattr(
            f"repro.check.__main__.run_{pass_name}_pass",
            lambda **_kwargs: CheckReport(pass_name=pass_name),
        )
        assert main([pass_name]) == 0
        assert "all passes clean" in capsys.readouterr().out

    def test_failing_sanitize_fixture_fails_the_gate(
        self, monkeypatch, capsys
    ):
        """--sanitize-fixture findings join the combined exit code even
        when every static pass is clean."""
        monkeypatch.setattr(
            "repro.check.__main__.run_lint_pass",
            lambda **_kwargs: CheckReport(pass_name="lint"),
        )
        assert main(["lint", "--sanitize-fixture", "no_such_fixture"]) == 1
        out = capsys.readouterr().out
        assert "SAN000" in out
        assert "FAILED" in out


class TestCdgGate:
    def test_broken_assignment_fails_the_gate_with_counterexample(
        self, monkeypatch, capsys
    ):
        """A configuration that *claims* deadlock freedom but has a
        cyclic CDG must exit nonzero and print the cycle."""
        lying = dataclasses.replace(
            broken_configuration(), expect_deadlock_free=True
        )
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [lying]
        )
        assert main(["cdg"]) == 1
        out = capsys.readouterr().out
        assert "CDG001" in out
        assert "CYCLIC" in out or "counterexample" in out
        assert "waits for" in out
        assert "FAILED" in out

    def test_demo_broken_reports_cycle_without_failing(self, monkeypatch, capsys):
        """The documented negative control is evidence, not a failure."""
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: []
        )
        assert main(["cdg", "--demo-broken", "-v"]) == 0
        out = capsys.readouterr().out
        assert "CDG002" in out
        assert "expected counterexample" in out

    def test_rotted_negative_control_is_an_error(self, monkeypatch):
        """If the negative control certifies clean, the demo has rotted
        and the gate must say so."""
        # A config that IS deadlock-free while claiming to deadlock.
        from repro.check.registry import default_configurations

        good = default_configurations()[0]
        rotted = dataclasses.replace(good, expect_deadlock_free=False)
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [rotted]
        )
        report = run_cdg_pass()
        assert not report.ok
        assert any(f.code == "CDG003" for f in report.errors)


class TestSymbolicGate:
    def test_lying_grammar_fails_with_symbolic_counterexample(
        self, monkeypatch, capsys
    ):
        """A configuration claiming deadlock freedom whose grammar is
        cyclic must exit nonzero and print the class cycle."""
        lying = dataclasses.replace(
            broken_configuration(), expect_deadlock_free=True
        )
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [lying]
        )
        assert main(["symbolic"]) == 1
        out = capsys.readouterr().out
        assert "SYM001" in out
        assert "waits for" in out
        assert "FAILED" in out

    def test_demo_broken_reports_symbolic_cycle_without_failing(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: []
        )
        assert main(["symbolic", "--demo-broken", "-v"]) == 0
        out = capsys.readouterr().out
        assert "SYM002" in out
        assert "expected symbolic counterexample" in out

    def test_rotted_negative_control_is_sym003(self, monkeypatch):
        from repro.check.registry import default_configurations

        rotted = dataclasses.replace(
            default_configurations()[0], expect_deadlock_free=False
        )
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [rotted]
        )
        report = run_symbolic_pass()
        assert not report.ok
        assert any(f.code == "SYM003" for f in report.errors)

    def test_drifted_grammar_is_caught_by_the_harness(self, monkeypatch):
        """A grammar that no longer matches its routes (here: the
        collapsed grammar attached to a deadlock-free configuration)
        trips both the certification (SYM001) and the symbolic-vs-
        concrete cross-check (SYM005)."""
        from repro.check.registry import default_configurations

        class Drifted(DragonflyLowering):
            def grammar(self):
                return dragonfly_path_grammar(vcs.COLLAPSED_TWO_VC)

        drifted = dataclasses.replace(
            default_configurations()[0],
            family=lambda: Drifted(
                Dragonfly(DragonflyParams.paper_example_72()),
                vcs.CANONICAL,
                include_nonminimal=True,
            ),
        )
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [drifted]
        )
        report = run_symbolic_pass()
        assert not report.ok
        codes = {f.code for f in report.errors}
        assert "SYM001" in codes
        assert "SYM005" in codes

    def test_blown_scale_budget_is_sym004(self, monkeypatch):
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: []
        )
        monkeypatch.setattr(
            "repro.check.__main__.SCALE_BUDGET_SECONDS", 0.0
        )
        report = run_symbolic_pass()
        assert any(f.code == "SYM004" for f in report.errors)


class TestSanitizeFixture:
    def test_missing_fixture_is_san000(self):
        report = run_sanitize_pass("no_such_fixture")
        assert not report.ok
        assert any(f.code == "SAN000" for f in report.errors)

    def test_fixture_resolved_by_path_reruns_clean(self):
        report = run_sanitize_pass(str(GOLDEN_DIR / "min_uniform.json"))
        assert report.ok, report.format(verbose=True)
        assert any("bit-identical" in note for note in report.notes)

    def test_divergence_from_pinned_results_is_san006(self, tmp_path):
        fixture = json.loads(
            (GOLDEN_DIR / "min_uniform.json").read_text()
        )
        fixture["points"][0]["total_cycles"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(fixture))
        report = run_sanitize_pass(str(tampered))
        assert not report.ok
        assert any(f.code == "SAN006" for f in report.errors)


class TestReportPlumbing:
    def test_combined_exit_code(self):
        clean = CheckReport(pass_name="a")
        dirty = CheckReport(
            pass_name="b",
            findings=[Finding("X001", Severity.ERROR, "somewhere", "boom")],
        )
        assert combined_exit_code([clean]) == 0
        assert combined_exit_code([clean, dirty]) == 1

    def test_warnings_do_not_gate(self):
        report = CheckReport(
            pass_name="w",
            findings=[Finding("X002", Severity.WARNING, "somewhere", "eh")],
        )
        assert report.ok
        assert combined_exit_code([report]) == 0
        assert "warning" in report.format()

    def test_verbose_format_includes_notes_and_infos(self):
        report = CheckReport(pass_name="v")
        report.note("analysed 3 things")
        report.add("X003", Severity.INFO, "somewhere", "fyi")
        assert "analysed 3 things" in report.format(verbose=True)
        assert "fyi" in report.format(verbose=True)
        assert "fyi" not in report.format(verbose=False)
