"""Tests for the channel-dependency-graph deadlock-freedom certifier."""

import dataclasses
import hashlib
import re
import sys
from array import array

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_vc_used
from repro.check import registry
from repro.check.__main__ import main, run_cdg_pass, run_passes
from repro.check.cdg import (
    Certification,
    cdg_from_traces,
    certify,
    describe_cycle,
    find_counterexample,
    first_cycle,
)
from repro.check.registry import (
    all_configurations,
    broken_configuration,
    default_configurations,
)
from repro.core.params import DragonflyParams, TopologyError
from repro.routing import vc_assignment as vcs
from repro.routing.tables import DragonflyLowering, Lowering
from repro.topology.dragonfly import Dragonfly


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
        for channel_index, _ in graph:
            channel = tiny_dragonfly.fabric.channels[channel_index]
            assert not tiny_dragonfly.fabric.is_terminal_port(
                channel.src.router, channel.src.port
            )

    def test_find_counterexample_on_hand_built_cycle(self):
        graph = {(0, 0): {(1, 0): None}, (1, 0): {(2, 0): None}, (2, 0): {(0, 0): None}}
        cycle = find_counterexample(graph)
        assert cycle is not None
        assert sorted(cycle) == [(0, 0), (1, 0), (2, 0)]

    def test_find_counterexample_none_on_dag(self):
        graph = {(0, 0): {(1, 0): None}, (1, 0): {(2, 1): None}, (2, 1): {}}
        assert find_counterexample(graph) is None

    def test_self_loop_is_a_cycle(self):
        assert find_counterexample({(4, 1): {(4, 1): None}}) == [(4, 1)]

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


# ----------------------------------------------------------------------
# The stdlib builder against the networkx builder it replaced
# ----------------------------------------------------------------------
def reference_cdg(fabric, traces):
    """The networkx CDG builder ``certify`` used before it went stdlib,
    kept verbatim as the oracle: one ``add_node``/``add_edge`` per hop."""
    graph = nx.DiGraph()
    num_routes = 0
    for trace in traces:
        num_routes += 1
        previous = None
        for router, port, vc in trace:
            channel = fabric.out_channel(router, port)
            if channel is None:
                break
            node = (channel.index, vc)
            graph.add_node(node)
            if previous is not None:
                graph.add_edge(previous, node)
            previous = node
    return graph, num_routes


ORACLE_FABRIC = Dragonfly(DragonflyParams(p=1, a=2, h=1)).fabric
#: Every (router, port) of the oracle fabric, terminal ports included
#: (a terminal-port hop ends a trace's buffers, like an ejection).
ORACLE_PORTS = [
    (router, port)
    for router in range(ORACLE_FABRIC.num_routers)
    for port in ORACLE_FABRIC.ports(router)
]
#: Buffer order of a network hop; None for a terminal port.
BUFFER = {
    (router, port): getattr(ORACLE_FABRIC.out_channel(router, port), "index", None)
    for router, port in ORACLE_PORTS
}
NETWORK_PORTS = [rp for rp in ORACLE_PORTS if BUFFER[rp] is not None]
HOPS = st.tuples(st.sampled_from(ORACLE_PORTS), st.integers(0, 3)).map(
    lambda pair: (*pair[0], pair[1])
)
FREE_TRACES = st.lists(st.lists(HOPS, max_size=6), max_size=12)


def _monotone(traces):
    """Each trace's network hops in strictly increasing buffer order: no
    route can close a cycle."""
    def key(hop):
        return BUFFER[hop[:2]], hop[2]

    return [
        sorted({key(h): h for h in trace if BUFFER[h[:2]] is not None}.values(), key=key)
        for trace in traces
    ]


def _with_self_loop(drawn):
    """The trace set plus one route that requests the buffer it holds."""
    traces, index, vc = drawn
    hop = (*NETWORK_PORTS[index % len(NETWORK_PORTS)], vc)
    return [*traces, [hop, hop, *traces[index % len(traces)]]]


TRACE_SETS = st.one_of(
    FREE_TRACES.map(_monotone),
    FREE_TRACES,
    st.tuples(
        FREE_TRACES.filter(bool), st.integers(0, 100), st.integers(0, 3)
    ).map(_with_self_loop),
)


class TestReferenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(traces=TRACE_SETS)
    def test_certify_matches_the_networkx_builder(self, traces):
        reference, num_routes = reference_cdg(ORACLE_FABRIC, traces)
        try:
            expected = [
                edge[0]
                for edge in nx.find_cycle(reference, orientation="original")
            ]
        except nx.NetworkXNoCycle:
            expected = None
        certification = certify("oracle", ORACLE_FABRIC, traces)
        assert certification.ok == (expected is None)
        assert certification.num_routes == num_routes
        assert certification.num_nodes == reference.number_of_nodes()
        assert certification.num_edges == reference.number_of_edges()
        assert certification.cycle == expected

    @settings(max_examples=300, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=24),
        isolated=st.lists(st.integers(0, 7), max_size=4),
    )
    def test_first_cycle_matches_networkx_find_cycle(self, edges, isolated):
        """Any digraph, nodes and edges in any insertion order (isolated
        nodes first, a source first seen as a target included)."""
        graph = {node: {} for node in isolated}
        for src, dst in edges:
            graph.setdefault(src, {})[dst] = None
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        reference.add_edges_from((src, dst) for src in graph for dst in graph[src])
        try:
            expected = [edge[0] for edge in nx.find_cycle(reference, orientation="original")]
        except nx.NetworkXNoCycle:
            expected = None
        assert first_cycle(graph) == expected
        assert find_counterexample(graph) == expected


# ----------------------------------------------------------------------
# One certification per configuration per process
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_registry():
    """Registry objects with empty memos (other tests warm the shared
    ones); cleared again afterwards, so later tests never read a memo
    filled under this test's monkeypatches."""
    registry.default_configurations.cache_clear()
    registry.broken_configuration.cache_clear()
    yield
    registry.default_configurations.cache_clear()
    registry.broken_configuration.cache_clear()


def _route_count(configuration):
    return sum(1 for _ in configuration.family().routes())


def _count_executor_walks(monkeypatch):
    """Record every route walked through a family's executor."""
    walked = []
    original = Lowering.trace

    def counting(self, src_router, dst_terminal, plan):
        walked.append(self.family)
        return original(self, src_router, dst_terminal, plan)

    monkeypatch.setattr(Lowering, "trace", counting)
    return walked


class TestCertificationMemo:
    def test_cdg_then_symbolic_walk_each_configuration_once(
        self, monkeypatch, fresh_registry
    ):
        certified = []
        original = Lowering.traces

        def counting(self):
            certified.append(type(self).__name__)
            return original(self)

        configurations = all_configurations()
        routes = sum(map(_route_count, configurations))
        control = _route_count(broken_configuration())
        monkeypatch.setattr(Lowering, "traces", counting)
        walked = _count_executor_walks(monkeypatch)
        run_passes(["cdg"])
        assert len(certified) == len(configurations)
        assert len(walked) == routes
        # The soundness harness adds only the negative control, which
        # the cdg pass (without --demo-broken) did not certify.
        run_passes(["symbolic"])
        assert len(certified) == len(configurations) + 1
        assert len(walked) == routes + control
        # The tables pass compares its table walks with the stored
        # executor walks: not one route is walked through an executor
        # again.
        run_passes(["cdg", "symbolic", "tables"])
        assert len(certified) == len(configurations) + 1
        assert len(walked) == routes + control

    def test_tables_alone_walks_each_route_once(
        self, monkeypatch, fresh_registry
    ):
        configurations = all_configurations()
        routes = sum(map(_route_count, configurations))
        walked = _count_executor_walks(monkeypatch)
        run_passes(["tables"])
        assert len(walked) == routes

    def test_memo_holds_the_lowering_and_its_compact_walks(self):
        configuration = default_configurations()[0]
        assert configuration.name.startswith("dragonfly/")  # paper-72
        certification = configuration.certification
        assert isinstance(certification, Certification)
        fields = {f.name for f in dataclasses.fields(configuration)}
        assert set(vars(configuration)) - fields == {"lowering", "certification"}
        assert configuration.certification is certification
        walks = configuration.lowering.walks
        assert configuration.lowering.walks is walks
        assert len(walks) == certification.num_routes == 18720
        # No per-route Python object: two flat id arrays, plus one tuple
        # per distinct hop (a few per channel, not a few per route).
        assert not hasattr(walks, "__dict__")
        assert isinstance(walks.ids, array) and isinstance(walks.ends, array)
        assert len(walks.ids) == walks.ends[-1]
        assert len(walks.hops) == len(set(walks.hops)) < len(walks) // 10
        size = sum(map(sys.getsizeof, (walks, walks.ids, walks.ends, walks.hops)))
        size += sum(map(sys.getsizeof, walks.hops))
        assert size <= 1 << 20

    def test_a_failed_executor_walk_is_not_memoised(self, monkeypatch):
        lowering = DragonflyLowering(
            Dragonfly(DragonflyParams(p=1, a=2, h=1)), vcs.CANONICAL, True
        )
        original = Lowering.trace
        failures = [1]

        def failing_once(self, src_router, dst_terminal, plan):
            if failures and dst_terminal == 1:
                failures.pop()
                raise TopologyError(f"route to terminal {dst_terminal} looped")
            return original(self, src_router, dst_terminal, plan)

        monkeypatch.setattr(Lowering, "trace", failing_once)
        with pytest.raises(TopologyError, match="terminal 1"):
            list(lowering.traces())
        monkeypatch.setattr(Lowering, "trace", original)
        walked = _count_executor_walks(monkeypatch)
        routes = sum(1 for _ in lowering.routes())
        # Nothing of the failed pass was kept: every route walks again,
        # once, and is kept from then on.
        assert len(lowering.walks) == routes
        assert len(list(lowering.traces())) == routes
        assert len(walked) == routes

    def test_drifted_family_under_a_registry_name_is_certified_on_its_own(
        self, monkeypatch, capsys
    ):
        registered = default_configurations()[0]
        assert registered.certification.ok
        impostor = dataclasses.replace(
            registered, family=broken_configuration().family
        )
        assert impostor.name == registered.name
        assert not impostor.certification.ok
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [impostor]
        )
        assert main(["cdg"]) == 1
        assert "CDG001" in capsys.readouterr().out

    def test_rotted_control_under_a_registry_name_is_certified_on_its_own(
        self, monkeypatch
    ):
        registered = default_configurations()[0]
        assert registered.certification.ok
        rotted = dataclasses.replace(registered, expect_deadlock_free=False)
        calls = []
        original = registry.certify

        def counting(name, fabric, traces):
            calls.append(name)
            return original(name, fabric, traces)

        monkeypatch.setattr(registry, "certify", counting)
        monkeypatch.setattr(
            "repro.check.__main__.all_configurations", lambda: [rotted]
        )
        report = run_cdg_pass()
        assert any(f.code == "CDG003" for f in report.errors)
        assert calls == [registered.name]
        assert rotted.certification is not registered.certification
        assert rotted.certification == registered.certification


# ----------------------------------------------------------------------
# The report text, pinned against the networkx-built certifier
# ----------------------------------------------------------------------
#: SHA-256 of the two reports below as printed before the CDG went
#: stdlib, counterexample cycles included.  The Table-2 scale notes
#: carry a wall-clock reading (``0.000s]``), replaced by ``<t>s]``
#: before hashing.
PINNED_REPORTS = {
    ("-v",): "cfac32834473a3c591564377c1146cdda47288c6533912db901e36524592dc9f",
    ("cdg", "symbolic", "tables", "faults", "--demo-broken", "-v"): (
        "e14e219e6956aaf97539507f775d1546bcd93b756aaba352c4276dd2e30ad71e"
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_REPORTS), ids=" ".join)
def test_report_text_is_pinned(argv, capsys):
    assert main(list(argv)) == 0
    out = re.sub(r"\d+\.\d{3}s\]", "<t>s]", capsys.readouterr().out)
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_REPORTS[argv]
