"""Unit coverage of the forwarding-table compiler and executor.

The exhaustive table-vs-algorithmic equivalence lives in the property
suite (``test_table_property.py``) and the verifier tests; here we pin
the table container's contracts (conflict detection, via selection,
serialisation) and the fault model's behaviour.
"""

import random

import pytest

from oracles import dead_terminals
from repro.core.params import DragonflyParams, TopologyError
from repro.routing import vc_assignment as vcs
from repro.network.packet import RoutePlan
from repro.routing.tables import (
    DegradedDragonflyLowering,
    DragonflyLowering,
    ForwardingTables,
    Leg,
    TableCompileError,
    TableEntry,
    TableDrivenRouting,
    TableRoutes,
    TableRouteError,
    TableWalker,
    compile_dragonfly_tables,
    compile_fb_tables,
    fault_view,
    link_tag,
)
from repro.routing.ugal import make_routing
from repro.network.config import SimulationConfig
from repro.network.sweep import run_point
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.faults import NO_FAULTS, FaultSet


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
        walker = TableWalker(tiny, tables)
        restored_walker = TableWalker(tiny, restored)
        for case in lowering.cases():
            original = walker.walk(case.src_router, case.dst_terminal, case.legs)
            assert original == restored_walker.walk(
                case.src_router, case.dst_terminal, case.legs
            )


class TestTableWalk:
    def test_walk_matches_algorithmic_trace(self, tiny):
        lowering = DragonflyLowering(tiny, vcs.CANONICAL, include_nonminimal=True)
        tables = lowering.compile()
        cases = list(lowering.cases())
        assert cases
        walker = TableWalker(tiny, tables)
        for case in cases:
            walk = walker.walk(case.src_router, case.dst_terminal, case.legs)
            assert tuple(walk) == case.algorithmic, case.label

    def test_unreachable_leg_raises(self, tiny):
        tables = compile_dragonfly_tables(tiny)
        bogus = (Leg(target_group=0, target_router=1, entry_vc=99),)
        with pytest.raises(TableRouteError):
            TableWalker(tiny, tables).walk(0, 1, bogus)


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
        assert dead_terminals(faults, paper72) == [70, 71]

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
        walker = TableWalker(paper72, tables)
        for case in cases:
            walk = walker.walk(case.src_router, case.dst_terminal, case.legs)
            assert walk[-1][0] == paper72.terminal_router(case.dst_terminal)

    def test_fault_view_is_worked_out_once(self, paper72):
        """One view per (topology, fault set): every pair's surviving
        links in ``group_links`` order, and the detour of the severed
        pair."""
        faults = self.faults(paper72)
        view = fault_view(paper72, faults)
        assert fault_view(paper72, self.faults(paper72)) is view
        assert DegradedDragonflyLowering(paper72, faults).view is view
        for (src_group, dest_group), links in view.links.items():
            assert links == [
                link for link in paper72.group_links(src_group, dest_group)
                if not faults.link_dead(link.src_router, link.dst_router)
            ]
        mid_group, first, second = view.detour(0, 1)
        assert first in view.links[0, mid_group]
        assert second in view.links[mid_group, 1]

    def test_fault_view_keeps_the_link_order(self):
        """With four links per group pair, one of them dead, the
        survivors keep ``group_links`` order (the picker's tie-break)."""
        topology = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=3))
        dead = topology.group_links(0, 1)[1]
        view = fault_view(topology, FaultSet.of(
            links=[(dead.src_router, dead.dst_router)]
        ))
        assert len(view.links[0, 1]) == 3
        assert view.links[0, 1] == [
            link for link in topology.group_links(0, 1) if link != dead
        ]
        assert view.links[1, 2] == topology.group_links(1, 2)

    def test_plans_and_compile_read_the_view(self):
        """After the view is built, no packet, route or table entry asks
        the topology for its links again."""
        topology = Dragonfly(DragonflyParams.paper_example_72())
        lowering = DegradedDragonflyLowering(topology, self.faults(topology))
        view = lowering.view
        topology.group_links = None
        rng = random.Random(3)
        plans = [
            lowering.plan(rng, src_router, dst_router)
            for src_router in range(35)
            for dst_router in range(35)
        ]
        assert any(plan.gc2 is not None for plan in plans)
        assert lowering.compile().meta["detours"]["0->1"]["mid_group"] == (
            view.detour(0, 1)[0]
        )
        assert sum(1 for _ in lowering.routes()) > 0

    def test_degraded_lowering_refuses_an_executor_walk(self, paper72):
        """The healthy executor would cross the dead 2<->3 cable; the
        degraded lowering's routes are table walks only."""
        lowering = DegradedDragonflyLowering(paper72, self.faults(paper72))
        _label, src_router, dst_terminal, plan = next(iter(lowering.routes()))
        with pytest.raises(TableRouteError, match="no executor walk"):
            lowering.trace(src_router, dst_terminal, plan)
        with pytest.raises(TableRouteError, match="no executor walk"):
            lowering.walks

    def test_route_labels_name_the_surviving_link_and_the_detour_group(
        self, paper72
    ):
        """Degraded routes carry the healthy label format: a minimal
        route names its surviving global link, a detour its mid group."""
        lowering = DegradedDragonflyLowering(paper72, self.faults(paper72))
        routes = {label: plan for label, _src, _dst, plan in lowering.routes()}
        (link,) = paper72.group_links(0, 2)
        assert not lowering.faults.link_dead(link.src_router, link.dst_router)
        assert routes["min r0->t16 via 6@0"] == RoutePlan(minimal=True, gc1=link)
        detour = lowering.compile().meta["detours"]["0->1"]
        assert detour["mid_group"] == 2
        plan = routes["detour r0->t8 mid g2"]
        assert not plan.minimal
        assert [list(link_tag(plan.gc1)), list(link_tag(plan.gc2))] == [
            detour["first"], detour["second"],
        ]

    @pytest.mark.parametrize(
        "links, message",
        [
            ([(0, 2), (1, 4)], "groups 1 and 0 are disconnected even via detours"),
            ([(0, 1)], "no surviving local relay"),
        ],
        ids=["severed-group", "dead-local-link"],
    )
    def test_disconnection_is_a_named_compile_error(self, tiny, links, message):
        """Group 0 of the tiny dragonfly loses both global cables, or
        its two routers their only local cable."""
        lowering = DegradedDragonflyLowering(tiny, FaultSet.of(links=links))
        with pytest.raises(TableCompileError, match=message):
            lowering.compile()

    def test_no_entries_at_dead_routers(self, paper72):
        tables = DegradedDragonflyLowering(paper72, self.faults(paper72)).compile()
        assert all(router != 35 for router, _, _ in tables.entries())

    def test_healthy_compile_unchanged_by_no_faults(self, tiny):
        assert compile_dragonfly_tables(tiny, faults=NO_FAULTS) == (
            compile_dragonfly_tables(tiny)
        )


class TestTableRouting:
    """The simulator's table executor; its hop memo is checked against
    the certified walks in ``test_hop_memo.py``."""

    def test_candidate_refuses_a_routing_loop(self, paper72):
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
            routes.candidate(RoutePlan(minimal=True), 0, 3)

    @pytest.mark.parametrize("tables, params, match", [
        ("dragonfly", DragonflyParams(2, 4, 2, 5), "compiled for 36 routers"),
        ("dragonfly", DragonflyParams(3, 4, 2, 9), "does not have"),
        ("flattened-butterfly", DragonflyParams(2, 4, 2, 9), "flattened-butterfly tables"),
    ], ids=["router-count", "global-links", "family"])
    def test_tables_of_another_topology_are_refused(self, tables, params, match):
        """Tables compiled for the paper's 72-terminal dragonfly do not
        run on another 36-router dragonfly, nor FB tables on it."""
        if tables == "dragonfly":
            tables = compile_dragonfly_tables(Dragonfly(DragonflyParams(2, 4, 2, 9)))
        else:
            tables = compile_fb_tables(FlattenedButterfly(dims=(6, 6), concentration=1))
        routing = TableDrivenRouting(make_routing("MIN"), tables)
        config = SimulationConfig(
            load=0.2, warmup_cycles=200, measure_cycles=200,
            drain_max_cycles=1000, seed=1,
        )
        with pytest.raises(ValueError, match=match):
            run_point(Dragonfly(params), routing, "uniform_random", config)
