"""Tests for the fault model: class projection, canonical degradations,
and validation diagnostics (which must name the offending element)."""

import pytest

from oracles import dead_terminals
from repro.core.params import DragonflyParams, TopologyError
from repro.topology.dragonfly import Dragonfly
from repro.topology.faults import (
    ALL_FAULT_CLASSES,
    DEAD_LOCAL_LINK,
    DEAD_ROUTER,
    NO_FAULTS,
    SEVERED_GROUP_PAIR,
    FaultClass,
    FaultSet,
    canonical_global_faults,
)


@pytest.fixture(scope="module")
def paper72():
    return Dragonfly(DragonflyParams.paper_example_72())


class TestFaultClass:
    def test_canonical_classes(self):
        assert [cls.kind for cls in ALL_FAULT_CLASSES] == [
            "severed-group-pair", "dead-local-link", "dead-router",
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class kind"):
            FaultClass("flooded-machine-room")

    def test_describe(self):
        assert SEVERED_GROUP_PAIR.describe() == "severed-group-pair"


class TestFaultClassProjection:
    def test_no_faults_projects_to_nothing(self, paper72):
        assert NO_FAULTS.fault_classes(paper72) == ()

    def test_single_dead_cable_does_not_sever_pair_with_spares(self):
        # Non-maximal dragonfly: g=5 < a*h+1=9 wires two cables per
        # group pair, so killing one leaves the pair connected.
        topology = Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=5))
        links = topology.group_links(0, 1)
        assert len(links) > 1
        faults = FaultSet.of(links=[(links[0].src_router, links[0].dst_router)])
        assert faults.fault_classes(topology) == ()

    def test_severed_pair_detected(self, paper72):
        links = paper72.group_links(0, 1)
        faults = FaultSet.of(
            links=[(link.src_router, link.dst_router) for link in links]
        )
        assert faults.fault_classes(paper72) == (SEVERED_GROUP_PAIR,)

    def test_router_death_can_sever_a_pair(self, paper72):
        # Kill the group-0 endpoints of every 0<->1 cable: the pair is
        # severed by router faults alone (plus dead-router, of course).
        links = paper72.group_links(0, 1)
        faults = FaultSet.of(routers={link.src_router for link in links})
        classes = faults.fault_classes(paper72)
        assert SEVERED_GROUP_PAIR in classes
        assert DEAD_ROUTER in classes

    def test_local_link_classified(self, paper72):
        faults = FaultSet.of(links=[(2, 3)])  # same group (a=4)
        assert faults.fault_classes(paper72) == (DEAD_LOCAL_LINK,)

    def test_mixed_fault_set_projects_all_classes(self, paper72):
        links = paper72.group_links(0, 1)
        faults = FaultSet.of(
            links=[(link.src_router, link.dst_router) for link in links]
            + [(8, 9)],
            routers=[35],
        )
        assert faults.fault_classes(paper72) == ALL_FAULT_CLASSES


class TestCanonicalGlobalFaults:
    def test_zero_count_is_healthy(self, paper72):
        assert not canonical_global_faults(paper72, 0)

    def test_count_k_severs_k_disjoint_pairs(self, paper72):
        faults = canonical_global_faults(paper72, 3)
        assert faults.fault_classes(paper72) == (SEVERED_GROUP_PAIR,)
        for k in range(3):
            for link in paper72.group_links(2 * k, 2 * k + 1):
                assert faults.link_dead(link.src_router, link.dst_router)
        # Disjoint pairs: other groups keep every cable.
        survivor = paper72.group_links(6, 7)[0]
        assert not faults.link_dead(survivor.src_router, survivor.dst_router)

    def test_faults_are_valid_and_kill_no_terminals(self, paper72):
        faults = canonical_global_faults(paper72, 2)
        faults.validate(paper72)
        assert dead_terminals(faults, paper72) == []

    def test_negative_count_rejected(self, paper72):
        with pytest.raises(TopologyError, match="negative"):
            canonical_global_faults(paper72, -1)

    def test_too_many_pairs_rejected(self, paper72):
        # paper-72 has g=9 groups -> at most 4 disjoint pairs.
        with pytest.raises(TopologyError, match="only 9 groups"):
            canonical_global_faults(paper72, 5)

    @pytest.mark.parametrize("count", range(5))
    def test_degraded_fabric_stays_connected(self, paper72, count):
        faults = canonical_global_faults(paper72, count)
        reached, frontier = {0}, [0]
        while frontier:
            router = frontier.pop()
            for neighbor in paper72.fabric.neighbors(router):
                if neighbor not in reached and not faults.link_dead(router, neighbor):
                    reached.add(neighbor)
                    frontier.append(neighbor)
        assert len(reached) == paper72.fabric.num_routers

    @pytest.mark.parametrize("count", range(1, 5))
    def test_each_severed_pair_keeps_g_minus_2_detours(self, paper72, count):
        faults = canonical_global_faults(paper72, count)
        wired = {
            (i, j)
            for i in range(paper72.g)
            for j in range(paper72.g)
            if i != j
            and any(
                not faults.link_dead(link.src_router, link.dst_router)
                for link in paper72.group_links(i, j)
            )
        }
        for k in range(count):
            src, dst = 2 * k, 2 * k + 1
            assert (src, dst) not in wired
            detours = [
                mid for mid in range(paper72.g)
                if (src, mid) in wired and (mid, dst) in wired
            ]
            assert len(detours) == paper72.g - 2


class TestValidationMessages:
    """Errors must name the offending link/router and the fabric bound."""

    def test_router_out_of_range_named(self, paper72):
        with pytest.raises(TopologyError) as excinfo:
            FaultSet.of(routers=[99]).validate(paper72)
        message = str(excinfo.value)
        assert "router fault 99" in message
        assert "routers 0..35" in message

    def test_link_endpoint_out_of_range_named(self, paper72):
        with pytest.raises(TopologyError) as excinfo:
            FaultSet.of(links=[(3, 400)]).validate(paper72)
        message = str(excinfo.value)
        assert "link fault 3<->400" in message
        assert "router 400 does not exist" in message
        assert "routers 0..35" in message

    def test_unwired_pair_named(self, paper72):
        # Routers 0 and 5 exist but sit in different groups with no
        # direct cable between them.
        with pytest.raises(TopologyError) as excinfo:
            FaultSet.of(links=[(0, 5)]).validate(paper72)
        message = str(excinfo.value)
        assert "link fault 0<->5" in message
        assert "no cable is wired between routers 0 and 5" in message
        assert "would degrade nothing" in message

    def test_valid_fault_set_passes(self, paper72):
        link = paper72.group_links(0, 1)[0]
        FaultSet.of(
            links=[(link.src_router, link.dst_router)], routers=[7]
        ).validate(paper72)
