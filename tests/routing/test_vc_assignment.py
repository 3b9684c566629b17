"""Tests for the deadlock-free VC assignment (Figure 7)."""

import networkx as nx
import pytest

from repro.routing import vc_assignment as vcs


def as_networkx(graph):
    """The adjacency dict as the reference ``nx.DiGraph``."""
    reference = nx.DiGraph()
    reference.add_nodes_from(graph)
    reference.add_edges_from((src, dst) for src, requests in graph.items() for dst in requests)
    return reference


class TestVcValues:
    def test_minimal_route_uses_two_vcs(self):
        """Minimal routing needs 2 VCs (the paper's claim): VC1 and VC2."""
        used = {
            vcs.local_vc(True, 0),
            vcs.global_vc(True, 0),
            vcs.local_vc(True, 1),
        }
        assert used == {1, 2}

    def test_nonminimal_route_uses_three_vcs(self):
        used = {
            vcs.local_vc(False, 0),
            vcs.global_vc(False, 0),
            vcs.local_vc(False, 1),
            vcs.global_vc(False, 1),
            vcs.local_vc(False, 2),
        }
        assert used == {0, 1, 2}

    def test_first_local_hop_discriminates_minimal(self):
        """UGAL-L_VC's premise: q_m^vc reads VC1, q_nm^vc reads VC0."""
        assert vcs.local_vc(True, 0) == vcs.MINIMAL_FIRST_VC == 1
        assert vcs.local_vc(False, 0) == vcs.NONMINIMAL_FIRST_VC == 0

    def test_vcs_nondecreasing_along_routes(self):
        for sequence in vcs.vc_sequences():
            values = [vc for _, vc in sequence]
            assert values == sorted(values)

    def test_num_vcs_required(self):
        all_vcs = {vc for seq in vcs.vc_sequences() for _, vc in seq}
        assert len(all_vcs) == vcs.NUM_VCS_REQUIRED


class TestDeadlockFreedom:
    def test_dependency_graph_acyclic(self):
        assert vcs.is_deadlock_free()

    def test_graph_covers_all_route_stages(self):
        graph = vcs.channel_dependency_graph()
        for sequence in vcs.vc_sequences():
            for node in sequence:
                assert node in graph

    def test_topological_order_exists(self):
        graph = as_networkx(vcs.channel_dependency_graph())
        order = list(nx.topological_sort(graph))
        position = {node: i for i, node in enumerate(order)}
        for src, dst in graph.edges:
            assert position[src] < position[dst]

    @pytest.mark.parametrize(
        "assignment",
        [vcs.CANONICAL, vcs.MINIMAL_TWO_VC, vcs.COLLAPSED_TWO_VC, vcs.DETOUR_VC_REUSE],
        ids=lambda assignment: assignment.name,
    )
    def test_verdict_matches_networkx(self, assignment):
        reference = as_networkx(assignment.channel_dependency_graph())
        assert assignment.is_deadlock_free() == nx.is_directed_acyclic_graph(reference)

    def test_negative_controls_are_cyclic(self):
        assert not vcs.COLLAPSED_TWO_VC.is_deadlock_free()
        assert not vcs.DETOUR_VC_REUSE.is_deadlock_free()
