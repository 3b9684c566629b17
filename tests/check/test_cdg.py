"""Tests for the channel-dependency-graph deadlock-freedom certifier."""

import networkx as nx
import pytest

from repro.check.cdg import (
    cdg_from_traces,
    certify,
    describe_cycle,
    find_counterexample,
    max_vc_used,
)
from repro.check.registry import (
    all_configurations,
    broken_configuration,
    default_configurations,
    register,
    _EXTRA,
)
from repro.routing import vc_assignment as vcs
from repro.routing.tables import DragonflyLowering


def dragonfly_traces(topology, assignment, include_nonminimal=True):
    """Every admissible dragonfly route, from the single enumerator."""
    return DragonflyLowering(topology, assignment, include_nonminimal).traces()


class TestCanonicalAssignment:
    """Positive certification: the paper's Figure 7 assignment is safe."""

    def test_tiny_dragonfly_is_deadlock_free(self, tiny_dragonfly):
        traces = list(dragonfly_traces(tiny_dragonfly, vcs.CANONICAL))
        certification = certify("tiny", tiny_dragonfly.fabric, traces)
        assert certification.ok
        assert certification.cycle is None
        assert certification.cycle_description is None
        assert certification.num_routes == len(traces)
        assert certification.num_edges > 0

    def test_paper72_dragonfly_is_deadlock_free(self, paper72_dragonfly):
        certification = certify(
            "paper72",
            paper72_dragonfly.fabric,
            dragonfly_traces(paper72_dragonfly, vcs.CANONICAL),
        )
        assert certification.ok
        # Every source router x destination terminal is covered at least
        # once (non-minimal variants add more).
        assert certification.num_routes >= (
            paper72_dragonfly.fabric.num_routers
            * paper72_dragonfly.num_terminals
        )

    def test_traces_respect_the_claimed_vc_budget(self, paper72_dragonfly):
        traces = list(dragonfly_traces(paper72_dragonfly, vcs.CANONICAL))
        assert max_vc_used(traces) < vcs.CANONICAL.num_vcs


class TestMinimalTwoVc:
    """Minimal-only routing needs just 2 VCs (Section 4.4)."""

    def test_minimal_only_two_vcs_suffice(self, paper72_dragonfly):
        traces = list(dragonfly_traces(
            paper72_dragonfly, vcs.MINIMAL_TWO_VC, include_nonminimal=False
        ))
        certification = certify("min-2vc", paper72_dragonfly.fabric, traces)
        assert certification.ok
        assert max_vc_used(traces) < 2

    def test_nonminimal_suppressed_by_assignment(self, paper72_dragonfly):
        """An assignment that documents minimal-only never emits Valiant
        routes even when the enumerator is asked for them."""
        forced = list(dragonfly_traces(
            paper72_dragonfly, vcs.MINIMAL_TWO_VC, include_nonminimal=True
        ))
        minimal = list(dragonfly_traces(
            paper72_dragonfly, vcs.MINIMAL_TWO_VC, include_nonminimal=False
        ))
        assert len(forced) == len(minimal)


class TestCollapsedAssignmentCounterexample:
    """Negative certification: collapsing to 2 VCs with non-minimal
    routing must produce a *reported* cycle, not a crash."""

    @pytest.fixture(scope="class")
    def collapsed(self, paper72_dragonfly):
        return certify(
            "collapsed",
            paper72_dragonfly.fabric,
            dragonfly_traces(paper72_dragonfly, vcs.COLLAPSED_TWO_VC),
        )

    def test_certification_fails(self, collapsed):
        assert not collapsed.ok

    def test_counterexample_cycle_is_concrete(self, collapsed, paper72_dragonfly):
        assert collapsed.cycle, "a failing proof must carry its cycle"
        fabric = paper72_dragonfly.fabric
        for channel_index, vc in collapsed.cycle:
            assert 0 <= channel_index < len(fabric.channels)
            assert 0 <= vc < vcs.COLLAPSED_TWO_VC.num_vcs
        # Consecutive cycle entries must be physically adjacent: the
        # holding channel ends where the requested channel begins.
        for i, (channel_index, _) in enumerate(collapsed.cycle):
            nxt_index, _ = collapsed.cycle[(i + 1) % len(collapsed.cycle)]
            holding = fabric.channels[channel_index]
            requested = fabric.channels[nxt_index]
            assert holding.dst.router == requested.src.router

    def test_counterexample_is_rendered(self, collapsed):
        assert collapsed.cycle_description
        assert "waits for" in collapsed.cycle_description
        assert "CYCLIC" in collapsed.summary()

    def test_broken_registry_entry_matches(self, collapsed):
        configuration = broken_configuration()
        assert not configuration.expect_deadlock_free
        family = configuration.family()
        assert not certify(
            configuration.name, family.topology.fabric, family.traces()
        ).ok


class TestCdgConstruction:
    def test_ejection_hop_holds_no_buffer(self, tiny_dragonfly):
        """Terminal ports must not appear in the CDG: ejection consumes
        no network buffer and would otherwise fake dependencies."""
        graph, _ = cdg_from_traces(
            tiny_dragonfly.fabric,
            dragonfly_traces(tiny_dragonfly, vcs.CANONICAL),
        )
        for channel_index, _ in graph.nodes:
            channel = tiny_dragonfly.fabric.channels[channel_index]
            assert not tiny_dragonfly.fabric.is_terminal_port(
                channel.src.router, channel.src.port
            )

    def test_find_counterexample_on_hand_built_cycle(self):
        graph = nx.DiGraph()
        graph.add_edge((0, 0), (1, 0))
        graph.add_edge((1, 0), (2, 0))
        graph.add_edge((2, 0), (0, 0))
        cycle = find_counterexample(graph)
        assert cycle is not None
        assert sorted(cycle) == [(0, 0), (1, 0), (2, 0)]

    def test_find_counterexample_none_on_dag(self):
        graph = nx.DiGraph()
        graph.add_edge((0, 0), (1, 0))
        graph.add_edge((1, 0), (2, 1))
        assert find_counterexample(graph) is None

    def test_describe_cycle_names_every_buffer(self, tiny_dragonfly):
        fabric = tiny_dragonfly.fabric
        cycle = [(0, 0), (1, 1)]
        text = describe_cycle(fabric, cycle)
        assert text.count("waits for") == 2
        assert "VC0" in text and "VC1" in text


class TestRegistry:
    def test_default_configurations_all_certify(self):
        for configuration in default_configurations():
            family = configuration.family()
            traces = list(family.traces())
            certification = certify(
                configuration.name, family.topology.fabric, traces
            )
            assert certification.ok == configuration.expect_deadlock_free, (
                configuration.name
            )
            assert max_vc_used(traces) < family.grammar().num_vcs, (
                f"{configuration.name} exceeds its claimed VC budget"
            )

    def test_register_extends_all_configurations(self):
        baseline = len(all_configurations())
        register(broken_configuration())
        try:
            assert len(all_configurations()) == baseline + 1
        finally:
            _EXTRA.clear()
