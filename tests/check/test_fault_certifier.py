"""Tests for the fault-parametric certifier: degraded grammar
composition, VC budgets, the symbolic-vs-concrete cross-check, and the
``faults`` pass of ``python -m repro.check``."""

import dataclasses
import time

import pytest

from repro.check import registry
from repro.check.__main__ import main, run_faults_pass, run_passes
from repro.check.registry import (
    degraded_crosscheck_configurations,
    degraded_family_configurations,
)
from repro.check.symbolic import (
    certify_grammar,
    cross_check,
    vc_budget_violations,
)
from repro.check.tables import certify_tables
from repro.core.params import TopologyError
from repro.routing import vc_assignment as vcs
from repro.routing.grammar import (
    RELAY_ORDER,
    ChannelClass,
    DegradedPathGrammar,
    PathGrammar,
    RouteClass,
    Segment,
)
from repro.routing.paths import (
    degraded_dragonfly_grammar,
    dragonfly_path_grammar,
)
from repro.routing.tables import DegradedDragonflyLowering
from repro.topology.faults import (
    ALL_FAULT_CLASSES,
    DEAD_LOCAL_LINK,
    DEAD_ROUTER,
    SEVERED_GROUP_PAIR,
)


class TestDegradedGrammarComposition:
    def test_no_relay_fault_leaves_segments_unwidened(self):
        composed = degraded_dragonfly_grammar(
            vcs.CANONICAL, (SEVERED_GROUP_PAIR,)
        ).compose()
        assert composed.name.endswith("+faults[severed-group-pair]")
        assert not any(
            segment.multi_hop
            for route_class in composed.route_classes
            for segment in route_class.segments
        )

    def test_relay_fault_widens_single_hop_local_segments(self):
        composed = degraded_dragonfly_grammar(
            vcs.CANONICAL, (DEAD_LOCAL_LINK,)
        ).compose()
        locals_ = [
            segment
            for route_class in composed.route_classes
            for segment in route_class.segments
            if segment.cls.kind == "local"
        ]
        assert locals_
        assert all(segment.multi_hop for segment in locals_)
        assert all(segment.order == RELAY_ORDER for segment in locals_)
        globals_ = [
            segment
            for route_class in composed.route_classes
            for segment in route_class.segments
            if segment.cls.kind == "global"
        ]
        assert not any(segment.multi_hop for segment in globals_)

    def test_widening_preserves_optionality(self):
        healthy = dragonfly_path_grammar(
            vcs.CANONICAL, include_nonminimal=False
        )
        composed = DegradedPathGrammar(
            healthy, (DEAD_ROUTER,)
        ).compose()
        for before, after in zip(
            healthy.route_classes, composed.route_classes
        ):
            for old, new in zip(before.segments, after.segments):
                assert new.optional == old.optional

    def test_already_multi_hop_segment_keeps_its_own_order(self):
        walk = Segment(
            ChannelClass("local", 0), multi_hop=True, order="dor dimension"
        )
        healthy = PathGrammar(
            name="synthetic", num_vcs=2,
            route_classes=(RouteClass("walk", (walk,)),),
        )
        composed = DegradedPathGrammar(healthy, (DEAD_LOCAL_LINK,)).compose()
        assert composed.route_classes[0].segments[0].order == "dor dimension"

    def test_empty_fault_classes_compose_to_the_healthy_grammar(self):
        degraded = degraded_dragonfly_grammar(vcs.CANONICAL, ())
        composed = degraded.compose()
        assert composed.name.endswith("+faults[none]")
        assert composed.route_classes == degraded.healthy.route_classes


class TestDegradedDragonflyGrammar:
    def test_healthy_base_is_minimal_only(self):
        degraded = degraded_dragonfly_grammar(vcs.CANONICAL)
        names = [rc.name for rc in degraded.healthy.route_classes]
        assert "valiant" not in names
        assert [rc.name for rc in degraded.detour_classes] == ["fault-detour"]

    def test_detour_rides_the_nonminimal_vc_ladder(self):
        degraded = degraded_dragonfly_grammar(vcs.CANONICAL)
        detour = degraded.detour_classes[0]
        global_vcs = [
            segment.cls.vc for segment in detour.segments
            if segment.cls.kind == "global"
        ]
        assert global_vcs == [
            vcs.CANONICAL.nonminimal_first_vc, vcs.CANONICAL.intermediate_vc,
        ]

    def test_severed_pair_requires_nonminimal_ladder(self):
        with pytest.raises(TopologyError, match="no non-minimal VC ladder"):
            degraded_dragonfly_grammar(
                vcs.MINIMAL_TWO_VC, (SEVERED_GROUP_PAIR,)
            )

    def test_relay_only_faults_work_without_nonminimal_ladder(self):
        degraded = degraded_dragonfly_grammar(
            vcs.MINIMAL_TWO_VC, (DEAD_LOCAL_LINK, DEAD_ROUTER)
        )
        assert degraded.detour_classes == ()
        assert certify_grammar("relay-only", degraded.compose()).ok

    def test_non_fault_class_rejected(self):
        with pytest.raises(TypeError, match="not a FaultClass"):
            degraded_dragonfly_grammar(
                vcs.CANONICAL, ("severed-group-pair",)
            )


class TestVcBudget:
    def test_canonical_degraded_grammar_fits_the_budget(self):
        grammar = degraded_dragonfly_grammar(vcs.CANONICAL).compose()
        assert vc_budget_violations(grammar) == []

    def test_overflowing_class_is_reported_by_name(self):
        grammar = PathGrammar(
            name="synthetic", num_vcs=3,
            route_classes=(RouteClass(
                "greedy", (Segment(ChannelClass("global", 5)),)
            ),),
        )
        violations = vc_budget_violations(grammar)
        assert len(violations) == 1
        assert "global@VC5" in violations[0]
        assert "VCs 0..2" in violations[0]


class TestFamilyCertification:
    def test_canonical_degraded_family_is_deadlock_free(self):
        grammar = degraded_dragonfly_grammar(
            vcs.CANONICAL, ALL_FAULT_CLASSES
        ).compose()
        certification = certify_grammar("degraded", grammar)
        assert certification.ok
        # Relay widening adds witnessed local self-edges, not failures.
        assert certification.witnessed

    def test_vc_reuse_family_is_refuted(self):
        grammar = degraded_dragonfly_grammar(
            vcs.DETOUR_VC_REUSE, (SEVERED_GROUP_PAIR,)
        ).compose()
        certification = certify_grammar("vc-reuse", grammar)
        assert not certification.ok
        assert "waits for" in certification.cycle_description

    def test_table2_parameterisations_registered_and_fast(self):
        scale = [
            family for family in degraded_family_configurations()
            if family.num_terminals is not None
        ]
        assert {family.num_terminals for family in scale} == {
            262_656, 1_328_256,
        }
        for family in scale:
            start = time.perf_counter()
            certification = certify_grammar(family.name, family.grammar())
            elapsed = time.perf_counter() - start
            assert certification.ok
            assert elapsed < 1.0


def table_cross_check(configuration):
    lowering = configuration.family()
    return cross_check(
        configuration.name, lowering, certify_tables(configuration.name, lowering)
    )


class TestDegradedCrossCheck:
    def test_every_enumerable_configuration_agrees(self):
        for configuration in degraded_crosscheck_configurations():
            check = table_cross_check(configuration)
            assert check.agrees, check.summary()
            assert check.symbolic.ok == configuration.expect_deadlock_free

    def test_negative_control_refuted_by_both_with_cycles(self):
        negative = next(
            configuration
            for configuration in degraded_crosscheck_configurations()
            if not configuration.expect_deadlock_free
        )
        check = table_cross_check(negative)
        assert not check.symbolic.ok
        assert check.concrete.cyclic
        assert "waits for" in check.symbolic.cycle_description
        # The concrete counterexample is provenance-annotated: it names
        # the table entries (and the detour legs' via-tags) that program
        # each channel of the cycle.
        assert check.concrete.cycle_description
        assert "programmed at router" in check.concrete.cycle_description
        assert "via ('link'" in check.concrete.cycle_description
        assert "DISAGREE" not in check.summary()


class TestFaultsPass:
    def test_shipped_tree_gates_green_with_negative_evidence(self):
        report = run_faults_pass()
        assert report.ok, report.format(verbose=True)
        infos = [f for f in report.findings if f.code == "FLT003"]
        # One refuted family, one refuted cross-check configuration.
        assert len(infos) == 2
        assert any("BOTH verifiers" in f.message for f in infos)
        assert any("N=262,656" in note for note in report.notes)
        assert any("N=1,328,256" in note for note in report.notes)

    def test_mixed_scenario_is_compiled_once_for_both_passes(self, monkeypatch):
        """The tables and faults passes both certify the paper-72
        mixed-fault scenario: one lowering, compiled and certified once."""
        registry._paper_mixed.cache_clear()
        compiled = []
        compile_tables = DegradedDragonflyLowering.compile

        def spy(lowering):
            compiled.append(lowering)
            return compile_tables(lowering)

        monkeypatch.setattr(DegradedDragonflyLowering, "compile", spy)
        reports = run_passes(["tables", "faults"])
        assert all(report.ok for report in reports)
        mixed = registry._paper_mixed()
        assert sum(lowering is mixed for lowering in compiled) == 1

    def test_rotted_family_negative_control_is_flt004(self, monkeypatch):
        rotted = [
            dataclasses.replace(family, expect_deadlock_free=False)
            if family.expect_deadlock_free else family
            for family in degraded_family_configurations()
        ]
        monkeypatch.setattr(
            "repro.check.__main__.degraded_family_configurations",
            lambda: rotted[:1],
        )
        monkeypatch.setattr(
            "repro.check.__main__.degraded_crosscheck_configurations",
            lambda: [],
        )
        report = run_faults_pass()
        assert any(f.code == "FLT004" for f in report.errors)

    def test_unexpected_family_cycle_is_flt001(self, monkeypatch):
        lying = [
            dataclasses.replace(family, expect_deadlock_free=True)
            for family in degraded_family_configurations()
            if not family.expect_deadlock_free
        ]
        monkeypatch.setattr(
            "repro.check.__main__.degraded_family_configurations",
            lambda: lying,
        )
        monkeypatch.setattr(
            "repro.check.__main__.degraded_crosscheck_configurations",
            lambda: [],
        )
        report = run_faults_pass()
        errors = [f for f in report.errors if f.code == "FLT001"]
        assert errors
        assert "waits for" in errors[0].message

    def test_vc_budget_overflow_is_flt002(self, monkeypatch):
        greedy = PathGrammar(
            name="greedy", num_vcs=2,
            route_classes=(RouteClass(
                "greedy", (Segment(ChannelClass("global", 7)),)
            ),),
        )
        family = dataclasses.replace(
            degraded_family_configurations()[0],
            grammar=lambda: DegradedPathGrammar(greedy, ()).compose(),
        )
        monkeypatch.setattr(
            "repro.check.__main__.degraded_family_configurations",
            lambda: [family],
        )
        monkeypatch.setattr(
            "repro.check.__main__.degraded_crosscheck_configurations",
            lambda: [],
        )
        report = run_faults_pass()
        errors = [f for f in report.errors if f.code == "FLT002"]
        assert errors
        assert "global@VC7" in errors[0].message

    def test_blown_scale_budget_is_flt005(self, monkeypatch):
        monkeypatch.setattr(
            "repro.check.__main__.FAULT_SCALE_BUDGET_SECONDS", 0.0
        )
        monkeypatch.setattr(
            "repro.check.__main__.degraded_crosscheck_configurations",
            lambda: [],
        )
        report = run_faults_pass()
        assert any(f.code == "FLT005" for f in report.errors)

    def test_verifier_disagreement_is_flt006(self, monkeypatch):
        """A degraded grammar that no longer matches the recompiled
        tables must trip the cross-check, exactly like SYM005."""
        def drifted(name, lowering, concrete):
            check = cross_check(name, lowering, concrete)
            return dataclasses.replace(
                check,
                symbolic=dataclasses.replace(
                    check.symbolic, ok=not check.symbolic.ok
                ),
            )

        monkeypatch.setattr(
            "repro.check.__main__.degraded_family_configurations",
            lambda: [],
        )
        monkeypatch.setattr(
            "repro.check.__main__.cross_check", drifted
        )
        report = run_faults_pass()
        errors = [f for f in report.errors if f.code == "FLT006"]
        assert len(errors) == len(degraded_crosscheck_configurations())
        assert "no longer matches" in errors[0].message


class TestFaultsCli:
    def test_faults_pass_runs_alone_by_name(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "[faults] ok" in out
        assert "[cdg]" not in out
        assert "[lint]" not in out

    def test_verbose_output_prints_both_counterexamples(self, capsys):
        assert main(["faults", "-v"]) == 0
        out = capsys.readouterr().out
        assert "FLT003" in out
        assert "symbolic counterexample:" in out
        assert "concrete table-level counterexample:" in out
        assert "deadlock-free for the whole family" in out

    def test_list_shows_degraded_sections(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "Degraded families (symbolic, fault-parametric):" in out
        assert "dragonfly-degraded-family@figure7-3vc" in out
        assert "Degraded cross-check configurations:" in out
        assert "detour-vc-reuse (negative control)" in out
