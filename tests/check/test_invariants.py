"""Tests for the topology invariant linter."""

import dataclasses

from repro.check.invariants import (
    audit_dragonfly,
    audit_fabric,
    audit_topology,
    default_topology_audits,
)
from repro.check.report import Severity
from repro.core.params import DragonflyParams
from repro.topology.dragonfly import Dragonfly
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly


def errors(findings):
    return [f for f in findings if f.severity == Severity.ERROR]


def codes(findings):
    return {f.code for f in findings}


class TestShippedTopologiesAreClean:
    def test_every_registered_audit_passes(self):
        for name, build in default_topology_audits():
            findings = audit_topology(build())
            assert not errors(findings), (name, [f.format() for f in findings])

    def test_paper72_fixture_is_clean(self, paper72_dragonfly):
        assert not errors(audit_dragonfly(paper72_dragonfly))


class TestBalanceRule:
    def test_balanced_config_has_no_top003(self, paper72_dragonfly):
        assert "TOP003" not in codes(audit_dragonfly(paper72_dragonfly))

    def test_unbalanced_config_warns_but_does_not_gate(self):
        # a=2, 2p=2, 2h=4: global-channel starved, a legal configuration
        # the paper would call unbalanced.
        topology = Dragonfly(DragonflyParams(p=1, a=2, h=2, num_groups=3))
        findings = audit_dragonfly(topology)
        top003 = [f for f in findings if f.code == "TOP003"]
        assert top003, "unbalanced configuration must be flagged"
        assert all(f.severity < Severity.ERROR for f in top003)
        assert not errors(findings)

    def test_overprovisioned_config_is_only_informational(self):
        # a=4 >= 2h=2 and p=2 >= h=1: overprovisioned, not broken.
        topology = Dragonfly(DragonflyParams(p=2, a=4, h=1))
        top003 = [f for f in audit_dragonfly(topology) if f.code == "TOP003"]
        assert top003
        assert all(f.severity == Severity.INFO for f in top003)


class TestFabricTampering:
    """audit_fabric must catch structural corruption of the channel list."""

    def _fresh(self):
        return Dragonfly(DragonflyParams(p=1, a=2, h=1))

    def test_asymmetric_latency_is_detected(self):
        topology = self._fresh()
        fabric = topology.fabric
        victim = fabric.channels[0]
        fabric.channels[0] = dataclasses.replace(
            victim, latency=victim.latency + 7
        )
        findings = audit_fabric(fabric, "tampered")
        assert "TOP005" in codes(errors(findings))

    def test_odd_channel_count_is_detected(self):
        topology = self._fresh()
        fabric = topology.fabric
        fabric.channels.pop()
        findings = audit_fabric(fabric, "tampered")
        assert "TOP005" in codes(errors(findings))

    def test_clean_fabric_has_no_findings(self, tiny_dragonfly):
        assert not audit_fabric(tiny_dragonfly.fabric, "clean")


class TestVariantGlobalWiring:
    """The Figure 6 variant shares the dragonfly's global wiring, so it
    is audited by the same distribution rules (TOP005/TOP006)."""

    def _variant(self):
        return FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2), h=2, num_groups=5)

    def test_variant_wiring_is_clean(self):
        findings = audit_topology(self._variant())
        assert not codes(findings) & {"TOP005", "TOP006"}

    def test_corrupted_link_index_is_top005(self):
        variant = self._variant()
        variant._group_links[(1, 3)].pop()
        findings = [f for f in errors(audit_topology(variant)) if f.code == "TOP005"]
        assert len(findings) == 1
        assert "group pair (1,3)" in findings[0].message


class TestDispatch:
    def test_unknown_topology_raises(self):
        try:
            audit_topology(object())
        except TypeError as error:
            assert "no invariant audit" in str(error)
        else:
            raise AssertionError("expected TypeError")
