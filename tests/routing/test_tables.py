"""Unit coverage of the forwarding-table compiler and executor.

The exhaustive table-vs-algorithmic equivalence lives in the property
suite (``test_table_property.py``) and the verifier tests; here we pin
the table container's contracts (conflict detection, via selection,
serialisation) and the fault model's behaviour.
"""

import pytest

from repro.core.params import DragonflyParams, TopologyError
from repro.routing import vc_assignment as vcs
from repro.network.packet import RoutePlan
from repro.routing.tables import (
    ClosLowering,
    DegradedDragonflyLowering,
    DragonflyLowering,
    FbLowering,
    ForwardingTables,
    Leg,
    TableCompileError,
    TableEntry,
    TableRoutes,
    TableRouteError,
    TorusLowering,
    compile_dragonfly_tables,
    table_walk_route,
)
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly
from repro.topology.faults import NO_FAULTS, FaultSet
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.torus import Torus


@pytest.fixture(scope="module")
def tiny():
    return Dragonfly(DragonflyParams(p=1, a=2, h=1))


@pytest.fixture(scope="module")
def paper72():
    return Dragonfly(DragonflyParams.paper_example_72())


class TestForwardingTablesContainer:
    def make(self, num_vcs=3):
        return ForwardingTables("t", "dragonfly", num_vcs, num_routers=4)

    def test_duplicate_adds_collapse(self):
        tables = self.make()
        entry = TableEntry(out_port=1, out_vc=0)
        tables.add(0, (0, 1, 0), entry)
        tables.add(0, (0, 1, 0), TableEntry(out_port=1, out_vc=0))
        assert tables.num_entries() == 1

    def test_conflicting_entry_raises(self):
        tables = self.make()
        tables.add(0, (0, 1, 0), TableEntry(out_port=1, out_vc=0))
        with pytest.raises(TableCompileError, match="conflicting"):
            tables.add(0, (0, 1, 0), TableEntry(out_port=2, out_vc=0))

    def test_vc_budget_enforced_on_out_vc_and_next_vc(self):
        tables = self.make(num_vcs=2)
        with pytest.raises(TableCompileError, match="VC budget"):
            tables.add(0, (0, 1, 0), TableEntry(out_port=1, out_vc=2))
        with pytest.raises(TableCompileError, match="VC budget"):
            tables.add(0, (0, 1, 0), TableEntry(out_port=1, out_vc=0, next_vc=5))

    def test_missing_key_raises_route_error(self):
        with pytest.raises(TableRouteError, match="no entry"):
            self.make().lookup(0, (0, 1, 0))

    def test_multi_candidate_needs_via(self):
        tables = self.make()
        tables.add(0, (1, 2, 0), TableEntry(out_port=3, out_vc=0, via=("link", 0, 3)))
        tables.add(0, (1, 2, 0), TableEntry(out_port=4, out_vc=0, via=("link", 0, 4)))
        with pytest.raises(TableRouteError, match="candidates"):
            tables.lookup(0, (1, 2, 0))
        entry = tables.lookup(0, (1, 2, 0), {("link", 0, 4)})
        assert entry.out_port == 4

    def test_single_candidate_resolves_without_via(self):
        tables = self.make()
        tables.add(0, (1, 2, 0), TableEntry(out_port=3, out_vc=1, via=("link", 0, 3)))
        assert tables.lookup(0, (1, 2, 0)).out_port == 3

    def test_add_and_replace_drop_the_resolved_candidates(self):
        tables = self.make()
        first = TableEntry(out_port=4, out_vc=0, via=("link", 0, 4))
        tables.add(0, (1, 2, 0), first)
        assert tables.candidates(0, (1, 2, 0)) == (first,)
        second = TableEntry(out_port=3, out_vc=0, via=("link", 0, 3))
        tables.add(0, (1, 2, 0), second)
        assert tables.candidates(0, (1, 2, 0)) == (second, first)  # via order
        repaired = TableEntry(out_port=5, out_vc=0, via=("link", 0, 3))
        tables.replace(0, (1, 2, 0), repaired)
        assert tables.candidates(0, (1, 2, 0)) == (repaired, first)
        assert tables.lookup(0, (1, 2, 0), {("link", 0, 3)}) == repaired

    def test_next_vc_threads_to_next_router(self):
        entry = TableEntry(out_port=1, out_vc=1, next_vc=0)
        assert entry.in_vc_at_next == 0
        assert TableEntry(out_port=1, out_vc=1).in_vc_at_next == 1


class TestSerialisation:
    def test_round_trip_is_exact(self, tiny, tmp_path):
        tables = compile_dragonfly_tables(tiny)
        path = tmp_path / "tables.json"
        tables.dump(str(path))
        restored = ForwardingTables.load(str(path))
        assert restored == tables
        assert restored.to_json_dict() == tables.to_json_dict()

    def test_unsupported_schema_version_rejected(self, tiny):
        data = compile_dragonfly_tables(tiny).to_json_dict()
        data["schema_version"] = 999
        with pytest.raises(TableCompileError, match="schema version"):
            ForwardingTables.from_json_dict(data)

    def test_walks_identical_after_round_trip(self, tiny):
        lowering = DragonflyLowering(tiny, vcs.CANONICAL, include_nonminimal=True)
        tables = lowering.compile()
        restored = ForwardingTables.from_json_dict(tables.to_json_dict())
        for case in lowering.cases():
            original = table_walk_route(
                tiny, tables, case.src_router, case.dst_terminal, case.legs
            )
            assert original == table_walk_route(
                tiny, restored, case.src_router, case.dst_terminal, case.legs
            )


class TestTableWalk:
    def test_walk_matches_algorithmic_trace(self, tiny):
        lowering = DragonflyLowering(tiny, vcs.CANONICAL, include_nonminimal=True)
        tables = lowering.compile()
        cases = list(lowering.cases())
        assert cases
        for case in cases:
            walk = table_walk_route(
                tiny, tables, case.src_router, case.dst_terminal, case.legs
            )
            assert tuple(walk) == case.algorithmic, case.label

    def test_unreachable_leg_raises(self, tiny):
        tables = compile_dragonfly_tables(tiny)
        bogus = (Leg(target_group=0, target_router=1, entry_vc=99),)
        with pytest.raises(TableRouteError):
            table_walk_route(tiny, tables, 0, 1, bogus)


class TestFaultModel:
    def test_validate_rejects_unwired_link(self, tiny):
        faults = FaultSet.of(links=[(0, 5)])
        with pytest.raises(TopologyError, match="no cable is wired"):
            faults.validate(tiny)

    def test_validate_rejects_out_of_range_router(self, tiny):
        with pytest.raises(TopologyError, match="routers 0..5"):
            FaultSet.of(routers=[99]).validate(tiny)

    def test_dead_terminals_follow_dead_routers(self, paper72):
        faults = FaultSet.of(routers=[35])
        assert faults.dead_terminals(paper72) == [70, 71]

    def test_link_dead_covers_router_faults(self):
        faults = FaultSet.of(links=[(2, 3)], routers=[7])
        assert faults.link_dead(2, 3)
        assert faults.link_dead(3, 2)
        assert faults.link_dead(7, 0)
        assert not faults.link_dead(0, 1)

    def test_describe_and_bool(self):
        assert not NO_FAULTS
        faults = FaultSet.of(links=[(3, 2)], routers=[7])
        assert bool(faults)
        assert faults.describe() == "link 2<->3, router 7"


class TestDegradedCompilation:
    def faults(self, topology):
        link = topology.group_links(0, 1)[0]
        return FaultSet.of(
            links=[(link.src_router, link.dst_router), (2, 3)],
            routers=[35],
        )

    def test_degraded_requires_minimal_base(self, paper72):
        with pytest.raises(TableCompileError, match="minimal"):
            compile_dragonfly_tables(
                paper72, include_nonminimal=True, faults=self.faults(paper72)
            )

    def test_degraded_requires_nonminimal_vcs_for_detours(self, paper72):
        with pytest.raises(TableCompileError):
            compile_dragonfly_tables(
                paper72,
                vcs.MINIMAL_TWO_VC,
                include_nonminimal=False,
                faults=self.faults(paper72),
            )

    def test_detours_recorded_and_all_cases_walk(self, paper72):
        lowering = DegradedDragonflyLowering(paper72, self.faults(paper72))
        tables = lowering.compile()
        detours = tables.meta["detours"]
        # Groups 0<->1 lost their only cable; group 8 lost two cables
        # with router 35.
        assert "0->1" in detours and "1->0" in detours
        cases = list(lowering.cases())
        assert cases
        for case in cases:
            walk = table_walk_route(
                paper72, tables, case.src_router, case.dst_terminal, case.legs
            )
            assert walk[-1][0] == paper72.terminal_router(case.dst_terminal)

    def test_no_entries_at_dead_routers(self, paper72):
        tables = DegradedDragonflyLowering(paper72, self.faults(paper72)).compile()
        assert all(router != 35 for router, _, _ in tables.entries())

    def test_healthy_compile_unchanged_by_no_faults(self, tiny):
        assert compile_dragonfly_tables(tiny, faults=NO_FAULTS) == (
            compile_dragonfly_tables(tiny)
        )


def _simulated_walk(routes, src_router, dst_terminal, plan):
    """Drive ``TableRoutes.next_hop`` the way the engine does, from
    progress 0 to the ejection hop."""
    trace, router, progress = [], src_router, 0
    while True:
        port, vc, progress = routes.next_hop(router, plan, progress, dst_terminal)
        trace.append((router, port, vc))
        channel = routes.topology.fabric.out_channel(router, port)
        if channel is None:
            return trace
        router = channel.dst.router


class TestTableRouting:
    """The simulator's table executor walks exactly the certifier's
    table walks, on every admissible route."""

    @pytest.mark.parametrize("lowering", [
        lambda: DragonflyLowering(
            Dragonfly(DragonflyParams(p=1, a=2, h=2, num_groups=3)),
            vcs.CANONICAL, include_nonminimal=True,
        ),
        lambda: make_routing("TBL-MIN/gc2").lowering(
            Dragonfly(DragonflyParams(p=1, a=3, h=2, num_groups=5))
        ),
        lambda: FbLowering(FlattenedButterfly(dims=(3, 3), concentration=1)),
        lambda: TorusLowering(Torus(dims=(3, 4), concentration=1), True),
        lambda: ClosLowering(FoldedClos(num_terminals=16, radix=4)),
    ], ids=["dragonfly-nonmax", "degraded-gc2", "fb", "torus", "clos"])
    def test_next_hop_walks_the_certified_table_walks(self, lowering):
        lowering = lowering()
        routes = TableRoutes(lowering)
        terminal_router = lowering.topology.terminal_router
        for _label, src_router, dst_terminal, plan in lowering.routes():
            legs = lowering.legs(plan, terminal_router(dst_terminal))
            walk = routes.walker.walk(src_router, dst_terminal, legs)
            assert _simulated_walk(routes, src_router, dst_terminal, plan) == walk
            port, hops = routes.plan_hops(
                src_router, terminal_router(dst_terminal), plan
            )
            assert hops == len(walk) - 1
            assert port == (walk[0][1] if hops else -1)

    def test_plan_hops_refuses_a_routing_loop(self, paper72):
        tables = compile_dragonfly_tables(paper72, include_nonminimal=False)
        # Routers 0 and 1 forward router 3's final-VC key to each other.
        key = (0, 3, vcs.CANONICAL.final_local_vc)
        for router, other in ((0, 1), (1, 0)):
            tables.replace(router, key, TableEntry(paper72.local_port(router, other), key[2]))
        routes = TableRoutes(
            DragonflyLowering(paper72, vcs.CANONICAL, include_nonminimal=False),
            tables,
        )
        with pytest.raises(TableRouteError, match="routing loop"):
            routes.plan_hops(0, 3, RoutePlan(minimal=True))
