"""Tests for the UGAL decision logic using controllable congestion views."""

import random

import pytest

from repro.core.params import DragonflyParams
from repro.routing.base import ZeroCongestion
from repro.routing.paths import next_hop
from repro.routing.ugal import (
    UgalG,
    UgalL,
    UgalLCr,
    UgalLVc,
    UgalLVcH,
    make_routing,
)
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


class FakeView:
    """Congestion view with per-(router, port[, vc]) programmable values."""

    def __init__(self, port_occupancy=None, vc_occupancy=None):
        self.port_occupancy = port_occupancy or {}
        self.vc_occupancy = vc_occupancy or {}

    def output_occupancy(self, router, out_port):
        return self.port_occupancy.get((router, out_port), 0)

    def output_vc_occupancy(self, router, out_port, vc):
        return self.vc_occupancy.get((router, out_port, vc), 0)


class TestFactory:
    @pytest.mark.parametrize("name", [
        "MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR",
        "TBL-MIN", "TBL-MIN/gc1", "TBL-MIN/gc3", "TBL-MIN/gc10",
        "FB-MIN", "FB-VAL", "FB-UGAL-L",
        "VAR-MIN", "VAR-VAL", "VAR-UGAL-L",
        "TORUS-DOR", "TORUS-VAL",
        "CLOS-RAND", "CLOS-DET",
    ])
    def test_all_names_resolve(self, name):
        """Every accepted name is the routing's own name, so manifests
        and caches key one computation by one spelling."""
        algorithm = make_routing(name)
        assert algorithm.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_routing("UGAL-X")

    @pytest.mark.parametrize("name", [
        "TBL-MIN/gc0", "TBL-MIN/gc007", "TBL-MIN/gc\u0663", "TBL-MIN/gc",
        "TBL-MIN/gc-1", "TBL-MIN/gc 2",
        "FB-UGAL-G", "VAR-UGAL-G", "TORUS-UGAL", "CLOS-UGAL", "fb-min",
    ])
    def test_other_spellings_rejected(self, name):
        with pytest.raises(ValueError, match="unknown routing algorithm"):
            make_routing(name)

    def test_only_cr_needs_credit_delay(self):
        assert make_routing("UGAL-L_CR").needs_credit_delay
        for name in ("MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VC", "UGAL-L_VCH"):
            assert not make_routing(name).needs_credit_delay


class TestUncongestedDecisions:
    """With empty queues every UGAL variant routes minimally."""

    @pytest.mark.parametrize("cls", [UgalL, UgalG, UgalLVc, UgalLVcH, UgalLCr])
    def test_minimal_when_idle(self, df, cls):
        algorithm = cls()
        rng = random.Random(1)
        for dst in (30, 50, 71):
            plan = algorithm.decide(ZeroCongestion(), df, rng, 0, dst)
            assert plan.minimal

    @pytest.mark.parametrize("cls", [UgalL, UgalG, UgalLVc, UgalLVcH, UgalLCr])
    def test_intra_group_always_minimal(self, df, cls):
        algorithm = cls()
        rng = random.Random(2)
        plan = algorithm.decide(ZeroCongestion(), df, rng, 0, 7)
        assert plan.minimal
        assert plan.gc1 is None


class TestUgalLDecision:
    def test_routes_nonminimally_when_minimal_port_congested(self, df):
        rng = random.Random(3)
        algorithm = UgalL()
        dst = 71
        min_port, _ = next_hop(
            df, 0, algorithm.decide(ZeroCongestion(), df, rng, 0, dst), 0, dst
        )
        view = FakeView(port_occupancy={(0, min_port): 1000})
        nonminimal_seen = False
        for _ in range(30):
            plan = algorithm.decide(view, df, rng, 0, dst)
            if not plan.minimal:
                nonminimal_seen = True
        assert nonminimal_seen

    def test_stays_minimal_when_congestion_elsewhere(self, df):
        """Occupancy on an unrelated router must not affect UGAL-L."""
        rng = random.Random(4)
        algorithm = UgalL()
        remote_router = 20
        view = FakeView(
            port_occupancy={(remote_router, port): 1000 for port in range(7)}
        )
        for _ in range(20):
            assert algorithm.decide(view, df, rng, 0, 71).minimal


class TestUgalGDecision:
    def test_reads_remote_global_channel(self, df):
        """UGAL-G reacts to congestion at the *remote* router owning the
        minimal global channel -- the information UGAL-L cannot see."""
        rng = random.Random(5)
        algorithm = UgalG()
        dst = 71
        dst_group = df.group_of(df.terminal_router(dst))
        occupancy = {}
        for link in df.group_links(0, dst_group):
            occupancy[(link.src_router, link.src_port)] = 1000
        view = FakeView(port_occupancy=occupancy)
        nonminimal_seen = False
        for _ in range(30):
            if not algorithm.decide(view, df, rng, 0, dst).minimal:
                nonminimal_seen = True
        assert nonminimal_seen

    def test_hop_count_weighting(self, df):
        """q_m*H_m <= q_nm*H_nm: with *equal* occupancy everywhere the
        shorter minimal path always wins (H_m < H_nm)."""
        rng = random.Random(6)
        algorithm = UgalG()
        dst = 71
        occupancy = {
            (router, port): 5
            for router in range(df.fabric.num_routers)
            for port in range(df.params.radix)
        }
        view = FakeView(port_occupancy=occupancy)
        for _ in range(30):
            assert algorithm.decide(view, df, rng, 0, dst).minimal

    def test_strict_rule_flips_on_any_imbalance(self, df):
        """The paper's rule has no minimal bias: q_m = 1 vs q_nm = 0
        already routes non-minimally (footnote 8, applied verbatim)."""
        rng = random.Random(60)
        algorithm = UgalG()
        dst = 71
        dst_group = df.group_of(df.terminal_router(dst))
        occupancy = {
            (link.src_router, link.src_port): 1
            for link in df.group_links(0, dst_group)
        }
        view = FakeView(port_occupancy=occupancy)
        assert any(
            not algorithm.decide(view, df, rng, 0, dst).minimal
            for _ in range(30)
        )


class TestVcDiscrimination:
    def test_vc_variant_reads_only_its_vc(self, df):
        """Congestion on VC0 (non-minimal traffic) of the shared port must
        not make UGAL-L_VC abandon the minimal route."""
        rng = random.Random(7)
        algorithm = UgalLVc()
        dst = 71
        plan = algorithm.decide(ZeroCongestion(), df, rng, 0, dst)
        min_port, min_vc = next_hop(df, 0, plan, 0, dst)
        assert min_vc == 1
        view = FakeView(vc_occupancy={(0, min_port, 0): 1000})
        for _ in range(20):
            assert algorithm.decide(view, df, rng, 0, dst).minimal

    def test_vc_variant_flips_on_minimal_vc(self, df):
        rng = random.Random(8)
        algorithm = UgalLVc()
        dst = 71
        plan = algorithm.decide(ZeroCongestion(), df, rng, 0, dst)
        min_port, _ = next_hop(df, 0, plan, 0, dst)
        view = FakeView(vc_occupancy={(0, min_port, 1): 1000})
        nonminimal_seen = any(
            not algorithm.decide(view, df, rng, 0, dst).minimal for _ in range(30)
        )
        assert nonminimal_seen

    def test_hybrid_uses_port_occupancy_when_ports_differ(self, df):
        """When candidates use different first-hop ports, UGAL-L_VCH
        compares whole ports (like UGAL-L), not single VCs."""
        rng = random.Random(9)
        hybrid = UgalLVcH()
        dst = 71
        plan = hybrid.decide(ZeroCongestion(), df, rng, 0, dst)
        min_port, _ = next_hop(df, 0, plan, 0, dst)
        # Port congested but VC1 empty: plain VC reading would stay
        # minimal; the hybrid must consider the whole port when the
        # sampled non-minimal path uses a different port.
        view = FakeView(port_occupancy={(0, min_port): 1000})
        nonminimal_seen = any(
            not hybrid.decide(view, df, rng, 0, dst).minimal for _ in range(50)
        )
        assert nonminimal_seen
