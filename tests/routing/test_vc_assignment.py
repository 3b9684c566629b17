"""Tests for the deadlock-free VC assignment (Figure 7).

The assignment is data; its deadlock verdict is the certifier's, read
from the path grammar the assignment induces on every dragonfly.
"""

import networkx as nx
import pytest

from repro.check.symbolic import certify_grammar, class_dependency_graph
from repro.routing import vc_assignment as vcs
from repro.routing.paths import dragonfly_path_grammar

CANONICAL = vcs.CANONICAL


def stage_vcs(assignment):
    """The VC of every stage of every route class, one list per class."""
    grammar = dragonfly_path_grammar(assignment, include_nonminimal=True)
    return [
        [segment.cls.vc for segment in route_class.segments]
        for route_class in grammar.route_classes
    ]


class TestVcValues:
    def test_minimal_route_uses_two_vcs(self):
        """Minimal routing needs 2 VCs (the paper's claim): VC1 and VC2."""
        used = {
            CANONICAL.local_vc(True, 0),
            CANONICAL.global_vc(True, 0),
            CANONICAL.local_vc(True, 1),
        }
        assert used == {1, 2}

    def test_nonminimal_route_uses_three_vcs(self):
        used = {
            CANONICAL.local_vc(False, 0),
            CANONICAL.global_vc(False, 0),
            CANONICAL.local_vc(False, 1),
            CANONICAL.global_vc(False, 1),
            CANONICAL.local_vc(False, 2),
        }
        assert used == {0, 1, 2}

    def test_first_local_hop_discriminates_minimal(self):
        """UGAL-L_VC's premise: q_m^vc reads VC1, q_nm^vc reads VC0."""
        assert CANONICAL.local_vc(True, 0) == vcs.MINIMAL_FIRST_VC == 1
        assert CANONICAL.local_vc(False, 0) == vcs.NONMINIMAL_FIRST_VC == 0

    def test_vcs_nondecreasing_along_routes(self):
        for values in stage_vcs(CANONICAL):
            assert values == sorted(values)

    def test_num_vcs_required(self):
        all_vcs = {vc for values in stage_vcs(CANONICAL) for vc in values}
        assert len(all_vcs) == vcs.NUM_VCS_REQUIRED == CANONICAL.num_vcs


def as_networkx(graph):
    """The class dependency graph as the reference ``nx.DiGraph``,
    without the self-edges an order witness covers (the certifier does
    not count those as cycles)."""
    reference = nx.DiGraph()
    reference.add_nodes_from(graph)
    reference.add_edges_from(
        (src, dst)
        for src, requests in graph.items()
        for dst, data in requests.items()
        if not (src == dst and data["witnessed"])
    )
    return reference


class TestDeadlockFreedom:
    def test_graph_covers_all_route_stages(self):
        grammar = dragonfly_path_grammar(CANONICAL, include_nonminimal=True)
        graph = class_dependency_graph(grammar)
        for route_class in grammar.route_classes:
            for segment in route_class.segments:
                assert segment.cls in graph

    def test_topological_order_exists(self):
        reference = as_networkx(
            class_dependency_graph(dragonfly_path_grammar(CANONICAL, True))
        )
        order = list(nx.topological_sort(reference))
        position = {node: i for i, node in enumerate(order)}
        for src, dst in reference.edges:
            assert position[src] < position[dst]

    @pytest.mark.parametrize(
        "assignment, deadlock_free",
        [
            (vcs.CANONICAL, True),
            (vcs.MINIMAL_TWO_VC, True),
            (vcs.COLLAPSED_TWO_VC, False),
            (vcs.DETOUR_VC_REUSE, False),
        ],
        ids=lambda value: getattr(value, "name", str(value)),
    )
    def test_certifier_verdict(self, assignment, deadlock_free):
        """The negative controls are cyclic on every dragonfly; the
        canonical and minimal-only assignments are not."""
        grammar = dragonfly_path_grammar(assignment, include_nonminimal=True)
        certification = certify_grammar(assignment.name, grammar)
        assert certification.ok is deadlock_free
        assert (certification.cycle is None) is deadlock_free

    @pytest.mark.parametrize(
        "assignment",
        [vcs.CANONICAL, vcs.MINIMAL_TWO_VC, vcs.COLLAPSED_TWO_VC, vcs.DETOUR_VC_REUSE],
        ids=lambda assignment: assignment.name,
    )
    def test_verdict_matches_networkx(self, assignment):
        """The certifier's cycle search agrees with networkx on the
        same class dependency graph."""
        grammar = dragonfly_path_grammar(assignment, include_nonminimal=True)
        reference = as_networkx(class_dependency_graph(grammar))
        certification = certify_grammar(assignment.name, grammar)
        assert certification.ok == nx.is_directed_acyclic_graph(reference)
