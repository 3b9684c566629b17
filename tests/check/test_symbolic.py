"""Tests for the symbolic channel-class deadlock certifier.

The symbolic pass certifies whole routing *families* from their path
grammars.  Soundness (symbolic-acyclic implies concrete-acyclic) is an
argument, not a test; what the suite pins is (a) the class-graph
construction rules, (b) that every shipped grammar certifies the way the
registry documents, (c) that the negative controls are refuted
*symbolically* with readable counterexamples, (d) scale and speed, and
(e) calibration: the symbolic verdict agrees with the concrete
enumerator on every instance small enough to enumerate.
"""

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.cdg import certify
from repro.check.registry import (
    broken_configuration,
    default_configurations,
    symbolic_scale_configurations,
)
from repro.check.symbolic import (
    certify_grammar,
    class_dependency_graph,
    cross_check,
    find_symbolic_counterexample,
    soundness_harness,
)
from repro.core.params import DragonflyParams
from repro.routing import vc_assignment as vcs
from repro.routing.fb_paths import fb_path_grammar
from repro.routing.grammar import ChannelClass, PathGrammar, RouteClass, Segment
from repro.routing.paths import dragonfly_path_grammar
from repro.routing.tables import DragonflyLowering
from repro.routing.torus_routing import torus_path_grammar
from repro.routing.variant_paths import variant_path_grammar
from repro.topology.dragonfly import Dragonfly


def grammar_of(*route_classes):
    return PathGrammar(name="test", num_vcs=4, route_classes=route_classes)


A = ChannelClass("local", 0)
B = ChannelClass("local", 1)
C = ChannelClass("global", 0)


class TestClassGraphConstruction:
    """The dependency rules of docs/static-analysis.md, on hand-built
    grammars small enough to check edge by edge."""

    def test_adjacent_stages_depend(self):
        graph = class_dependency_graph(grammar_of(
            RouteClass("r", (Segment(A), Segment(B), Segment(C))),
        ))
        assert B in graph[A]
        assert C in graph[B]
        # B is mandatory, so a route can never hold A while requesting C.
        assert C not in graph[A]

    def test_optional_stage_is_skippable(self):
        graph = class_dependency_graph(grammar_of(
            RouteClass("r", (Segment(A), Segment(B, optional=True), Segment(C))),
        ))
        assert B in graph[A]
        assert C in graph[A]
        assert C in graph[B]

    def test_unwitnessed_multi_hop_is_refuted_as_self_cycle(self):
        certification = certify_grammar("walk", grammar_of(
            RouteClass("r", (Segment(A, multi_hop=True),)),
        ))
        assert not certification.ok
        assert certification.cycle == (A,)
        assert "revisits stage 0" in certification.cycle_description

    def test_order_witness_discharges_the_self_cycle(self):
        certification = certify_grammar("dor", grammar_of(
            RouteClass("r", (Segment(A, multi_hop=True, order="dim index"),)),
        ))
        assert certification.ok
        assert any("dim index" in note for note in certification.witnessed)

    def test_conflicting_orders_discard_the_witness(self):
        """Two route classes walking the same class along different
        orders could disagree about dependency direction: refuted."""
        certification = certify_grammar("conflict", grammar_of(
            RouteClass("r1", (Segment(A, multi_hop=True, order="rows"),)),
            RouteClass("r2", (Segment(A, multi_hop=True, order="columns"),)),
        ))
        assert not certification.ok

    def test_class_revisited_across_skippable_stage_is_cyclic(self):
        """A revisit spans two separate visits -- no single-walk order
        can witness it, even if every occurrence is single-hop."""
        certification = certify_grammar("revisit", grammar_of(
            RouteClass("r", (Segment(A), Segment(B, optional=True), Segment(A))),
        ))
        assert not certification.ok
        assert A in certification.cycle

    def test_two_class_cycle_is_found_across_route_classes(self):
        certification = certify_grammar("pair", grammar_of(
            RouteClass("ab", (Segment(A), Segment(B))),
            RouteClass("ba", (Segment(B), Segment(A))),
        ))
        assert not certification.ok
        assert set(certification.cycle) == {A, B}
        assert certification.cycle_description.count("waits for") == 2

    def test_find_counterexample_ignores_witnessed_self_edges_only(self):
        graph = class_dependency_graph(grammar_of(
            RouteClass("r", (
                Segment(A, multi_hop=True, order="dim index"),
                Segment(B),
            )),
        ))
        assert find_symbolic_counterexample(graph) is None


class TestDragonflyFamily:
    def test_canonical_assignment_certifies_whole_family(self):
        certification = certify_grammar(
            "dragonfly", dragonfly_path_grammar(vcs.CANONICAL)
        )
        assert certification.ok
        # Five classes regardless of (a, p, h, g): local/global on the
        # minimal VC, local/global on the Valiant VC, final local.
        assert certification.num_classes == 5
        assert certification.num_route_classes == 3
        assert "deadlock-free" in certification.summary()
        assert "whole family" in certification.summary()

    def test_minimal_only_two_vcs_certify(self):
        certification = certify_grammar(
            "min-2vc",
            dragonfly_path_grammar(vcs.MINIMAL_TWO_VC, include_nonminimal=False),
        )
        assert certification.ok
        assert certification.num_route_classes == 2

    def test_minimal_assignment_suppresses_nonminimal_routes(self):
        forced = dragonfly_path_grammar(
            vcs.MINIMAL_TWO_VC, include_nonminimal=True
        )
        assert len(forced.route_classes) == 2

    def test_collapsed_assignment_is_refuted_symbolically(self):
        certification = certify_grammar(
            "collapsed", dragonfly_path_grammar(vcs.COLLAPSED_TWO_VC)
        )
        assert not certification.ok
        description = certification.cycle_description
        assert "waits for" in description
        # The cycle is closed by the minimal route class re-entering
        # local@VC1 in the destination group after the global hop.
        assert "local@VC1" in description
        assert "global@VC1" in description
        assert "route class" in description

    def test_squashing_any_vc_out_of_canonical_is_refuted(self):
        """Dropping to 2 VCs by clamping (the generic way to break the
        Figure 7 assignment) must always be caught."""
        grammar = dragonfly_path_grammar(vcs.CANONICAL)
        squashed = PathGrammar(
            name="canonical-squashed",
            num_vcs=2,
            route_classes=tuple(
                RouteClass(rc.name, tuple(
                    dataclasses.replace(
                        segment,
                        cls=dataclasses.replace(
                            segment.cls, vc=min(segment.cls.vc, 1)
                        ),
                    )
                    for segment in rc.segments
                ))
                for rc in grammar.route_classes
            ),
        )
        certification = certify_grammar("squashed", squashed)
        assert not certification.ok
        assert "CYCLIC" in certification.summary()


class TestOtherFamilies:
    def test_variant_dor_walk_is_witnessed(self):
        certification = certify_grammar(
            "variant", variant_path_grammar(vcs.CANONICAL)
        )
        assert certification.ok
        assert any("DOR" in note for note in certification.witnessed)

    def test_flattened_butterfly_certifies(self):
        certification = certify_grammar("fb", fb_path_grammar())
        assert certification.ok
        assert certification.witnessed

    @pytest.mark.parametrize("include_nonminimal", [False, True])
    def test_torus_dateline_certifies(self, include_nonminimal):
        certification = certify_grammar(
            "torus", torus_path_grammar(2, include_nonminimal)
        )
        assert certification.ok
        assert any("dateline" in note for note in certification.witnessed)

    def test_torus_without_dateline_split_would_be_refuted(self):
        """The (phase, dim, crossed) roles are load-bearing: merging the
        pre- and post-dateline classes of a dimension closes a ring
        cycle the witness cannot discharge."""
        grammar = torus_path_grammar(2, include_nonminimal=False)
        merged = PathGrammar(
            name="torus-no-dateline-vcs",
            num_vcs=1,
            route_classes=tuple(
                RouteClass(rc.name, tuple(
                    dataclasses.replace(
                        segment,
                        cls=ChannelClass(
                            segment.cls.kind, 0,
                            segment.cls.role.replace("+dateline", ""),
                        ),
                    )
                    for segment in rc.segments
                ))
                for rc in grammar.route_classes
            ),
        )
        assert not certify_grammar("merged", merged).ok


class TestRegisteredGrammars:
    def test_every_default_configuration_has_a_grammar(self):
        for configuration in default_configurations():
            grammar = configuration.family().grammar()
            assert isinstance(grammar, PathGrammar), configuration.name

    def test_every_registered_grammar_matches_its_claim(self):
        for configuration in default_configurations():
            certification = certify_grammar(
                configuration.name, configuration.family().grammar()
            )
            assert certification.ok == configuration.expect_deadlock_free, (
                configuration.name
            )

    def test_grammar_vcs_stay_inside_the_claimed_budget(self):
        for configuration in default_configurations():
            grammar = configuration.family().grammar()
            used = {cls.vc for cls in grammar.classes()}
            assert max(used) < grammar.num_vcs, configuration.name

    def test_broken_configuration_is_refuted(self):
        configuration = broken_configuration()
        certification = certify_grammar(
            configuration.name, configuration.family().grammar()
        )
        assert not certification.ok


class TestScale:
    """The point of the abstraction: Table 2 machines in microseconds."""

    def test_scale_configurations_cover_table2(self):
        terminals = sorted(
            scale.num_terminals for scale in symbolic_scale_configurations()
        )
        assert terminals[0] >= 256_000
        assert terminals[-1] >= 1_000_000

    def test_scale_certification_is_fast(self):
        start = time.perf_counter()
        for scale in symbolic_scale_configurations():
            certification = certify_grammar(scale.name, scale.grammar())
            assert certification.ok, scale.name
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"scale certification took {elapsed:.2f}s"


class TestSoundnessHarness:
    """Calibration: symbolic and concrete verdicts must agree on every
    instance small enough to enumerate (the abstraction is sound by
    construction; agreement shows it is also *tight* on the registered
    grammars)."""

    def test_every_default_configuration_agrees(self):
        checks = soundness_harness()
        assert len(checks) == len(default_configurations()) + 1
        for check in checks:
            assert check.agrees, check.summary()
            assert "agree" in check.summary()

    def test_negative_control_is_cyclic_both_ways(self):
        check = cross_check(broken_configuration())
        assert not check.symbolic.ok
        assert not check.concrete.ok
        assert check.agrees

    def test_disagreement_is_loud_in_the_summary(self):
        check = cross_check(broken_configuration())
        lying = dataclasses.replace(
            check,
            symbolic=dataclasses.replace(check.symbolic, ok=True),
        )
        assert not lying.agrees
        assert "DISAGREE" in lying.summary()

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.integers(1, 2),
        a=st.integers(2, 3),
        h=st.integers(1, 2),
        assignment=st.sampled_from(
            [vcs.CANONICAL, vcs.MINIMAL_TWO_VC, vcs.COLLAPSED_TWO_VC]
        ),
        include_nonminimal=st.booleans(),
    )
    def test_symbolic_agrees_with_concrete_on_random_shapes(
        self, p, a, h, assignment, include_nonminimal
    ):
        """Property form of the harness: for every small dragonfly shape
        and every shipped assignment, the family-level verdict equals
        the instance-level one."""
        topology = Dragonfly(DragonflyParams(p=p, a=a, h=h))
        concrete = certify(
            "concrete",
            topology.fabric,
            DragonflyLowering(topology, assignment, include_nonminimal).traces(),
        )
        symbolic = certify_grammar(
            "symbolic", dragonfly_path_grammar(assignment, include_nonminimal)
        )
        assert symbolic.ok == concrete.ok
