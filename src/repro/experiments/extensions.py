"""Extension experiments beyond the paper's figures.

These exercise capabilities the paper mentions but does not evaluate:

* ``ext_power`` -- the closing claim of Section 5 that the dragonfly's
  cost reduction "also translates to reduction of power";
* ``ext_fb_routing`` -- the comparison topology *simulated* (DOR /
  Valiant / UGAL-L on a flattened butterfly), showing that adaptive
  routing with local information is unproblematic when the congested
  channel sits on the source router -- the contrast that motivates the
  paper's indirect-adaptive-routing mechanisms;
* ``ext_tapering`` -- bandwidth tapering (Section 3.2): global cable
  count and cost as inter-group bandwidth is reduced.
"""

from __future__ import annotations

import math
from typing import Dict

from ..cost.model import CostConfig
from ..cost.power import power_comparison
from ..core.params import DragonflyParams
from ..network.config import SimulationConfig
from ..network.backend import make_simulator
from ..network.traffic import make_pattern
from ..routing.ugal import make_routing
from ..topology.base import ChannelKind
from ..topology.dragonfly import Dragonfly
from ..topology.flattened_butterfly import FlattenedButterfly
from .base import Experiment, ExperimentResult, experiment_executor, register


@register
class PowerComparison(Experiment):
    """W/node across topologies, using Table 1 energy-per-bit figures."""

    id = "ext_power"
    title = "Network power per node vs size (extension)"
    paper_claim = (
        "Section 5 (closing): the dragonfly's network cost reduction "
        "also translates to a power reduction"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        sizes = (512, 4096, 16384, 65536) if quick else (
            512, 1024, 2048, 4096, 8192, 16384, 32768, 65536
        )
        comparison = power_comparison(sizes)
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=[
                "N",
                "dragonfly_w",
                "flattened_butterfly_w",
                "folded_clos_w",
                "torus_3d_w",
                "df_vs_clos",
                "df_vs_torus",
            ],
        )
        for i, n in enumerate(sizes):
            dragonfly = comparison["dragonfly"][i].watts_per_node
            butterfly = comparison["flattened_butterfly"][i].watts_per_node
            clos = comparison["folded_clos"][i].watts_per_node
            torus = comparison["torus_3d"][i].watts_per_node
            result.rows.append(
                {
                    "N": n,
                    "dragonfly_w": dragonfly,
                    "flattened_butterfly_w": butterfly,
                    "folded_clos_w": clos,
                    "torus_3d_w": torus,
                    "df_vs_clos": 1 - dragonfly / clos,
                    "df_vs_torus": 1 - dragonfly / torus,
                }
            )
        return result


@register
class FlattenedButterflyRouting(Experiment):
    """MIN/VAL/UGAL-L simulated on the flattened butterfly."""

    id = "ext_fb_routing"
    title = "Routing on the flattened butterfly (extension)"
    paper_claim = (
        "implied contrast to Section 4.3: on the FB the congested "
        "channel is local to the source router, so UGAL with local "
        "queues adapts without the dragonfly's indirect-information "
        "pathologies"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        dims = (4, 4) if quick else (8, 8)
        topology = FlattenedButterfly(dims=dims, concentration=dims[0])
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=["pattern", "load", "FB-MIN", "FB-VAL", "FB-UGAL-L"],
        )
        windows = dict(
            warmup_cycles=800 if quick else 1500,
            measure_cycles=800 if quick else 1500,
            drain_max_cycles=12_000,
        )
        for pattern_name, loads in (
            ("uniform_random", (0.2, 0.5, 0.8)),
            ("fb_adversarial", (0.1, 0.2, 0.35, 0.45)),
        ):
            for load in loads:
                row: Dict[str, object] = {"pattern": pattern_name, "load": load}
                for name in ("FB-MIN", "FB-VAL", "FB-UGAL-L"):
                    config = SimulationConfig(load=load, **windows)
                    pattern = make_pattern(pattern_name, topology, seed=31)
                    run = make_simulator(
                        topology, make_routing(name), pattern, config,
                        settings=experiment_executor().settings,
                    ).run()
                    row[name] = math.inf if run.saturated else run.avg_latency
                result.rows.append(row)
        result.notes.append(
            f"FB dims {dims}, concentration {dims[0]}; DOR adversarial "
            f"bound: 1/c = {1 / dims[0]:.3f}"
        )
        return result


@register
class BandwidthTapering(Experiment):
    """Global cable count and cost under bandwidth tapering."""

    id = "ext_tapering"
    title = "Bandwidth tapering of inter-group channels (extension)"
    paper_claim = (
        "Section 3.2: if uniform inter-group bandwidth is not needed, "
        "removing inter-group channels reduces (global cable) cost"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        params = DragonflyParams(p=2, a=4, h=2, num_groups=5)
        full_share = (params.a * params.h) // (params.g - 1)
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=[
                "channels_per_pair",
                "global_cables",
                "bisection_channels",
                "relative_global_cost",
            ],
        )
        baseline_cables = None
        for cap in range(full_share, 0, -1):
            topology = Dragonfly(params, max_channels_per_pair=cap)
            cables = topology.fabric.num_cables(ChannelKind.GLOBAL)
            if baseline_cables is None:
                baseline_cables = cables
            from ..analysis.bisection import dragonfly_group_bisection

            result.rows.append(
                {
                    "channels_per_pair": cap,
                    "global_cables": cables,
                    "bisection_channels": dragonfly_group_bisection(topology),
                    "relative_global_cost": cables / baseline_cables,
                }
            )
        return result


@register
class GroupVariantComparison(Experiment):
    """Figure 6(b) simulated: the cube-group dragonfly vs Figure 5."""

    id = "ext_group_variants"
    title = "Group variants simulated (Figure 6b vs Figure 5)"
    paper_claim = (
        "Section 3.2: a higher-dimensional intra-group network raises "
        "k' (16 -> 32 on the same k=7 router) and with it the scale and "
        "the MIN worst-case bound moves from 1/8 to 1/16"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        from ..topology.group_variants import FlattenedButterflyGroupDragonfly

        canonical = Dragonfly(DragonflyParams.paper_example_72())
        cube = FlattenedButterflyGroupDragonfly(p=2, group_dims=(2, 2, 2), h=2)
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=[
                "topology", "k", "k_eff", "N", "groups",
                "min_wc_accepted", "ugal_wc_latency",
            ],
        )
        windows = dict(
            warmup_cycles=400 if quick else 1000,
            measure_cycles=400 if quick else 1000,
        )

        def simulate(topology, routing, load, drain):
            config = SimulationConfig(
                load=load, drain_max_cycles=drain, **windows
            )
            pattern = make_pattern("worst_case", topology, seed=21)
            return make_simulator(
                topology, routing, pattern, config,
                settings=experiment_executor().settings,
            ).run()

        for name, topology, minimal, ugal, min_load in (
            ("figure5_complete_group", canonical, "MIN", "UGAL-L", 0.3),
            ("figure6b_cube_group", cube, "VAR-MIN", "VAR-UGAL-L", 0.2),
        ):
            min_run = simulate(topology, make_routing(minimal), min_load, 800)
            ugal_run = simulate(topology, make_routing(ugal), 0.1, 8000)
            result.rows.append(
                {
                    "topology": name,
                    "k": topology.radix,
                    "k_eff": topology.effective_radix,
                    "N": topology.num_terminals,
                    "groups": topology.g,
                    "min_wc_accepted": min_run.accepted_load,
                    "ugal_wc_latency": ugal_run.avg_latency,
                }
            )
        result.notes.append(
            "min_wc_accepted should approach 1/(a*h): 0.125 for figure 5, "
            "0.0625 for the cube variant"
        )
        return result


@register
class CostSensitivity(Experiment):
    """Robustness of the Figure 19 conclusions to cost calibration."""

    id = "ext_cost_sensitivity"
    title = "Cost-model sensitivity analysis (extension)"
    paper_claim = (
        "implied by Section 5: the topology ranking is technology-driven "
        "structure, not calibration -- it must survive variation of the "
        "crossover length, cabinet pitch and router price"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        import dataclasses

        from ..cost.model import cost_comparison
        from ..cost.packaging import PackagingConfig

        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=["scenario", "df_vs_fb_64k", "df_vs_clos_16k", "df_vs_torus_16k"],
        )
        base = CostConfig()
        scenarios = {
            "baseline": base,
            "crossover_5m": dataclasses.replace(base, crossover_m=5.0),
            "crossover_12m": dataclasses.replace(base, crossover_m=12.0),
            "router_2x": dataclasses.replace(
                base, router_cost_per_gbps=2 * base.router_cost_per_gbps
            ),
            "router_half": dataclasses.replace(
                base, router_cost_per_gbps=base.router_cost_per_gbps / 2
            ),
            "pitch_2x": dataclasses.replace(
                base,
                packaging=PackagingConfig(
                    cabinet_pitch_m=2 * base.packaging.cabinet_pitch_m
                ),
            ),
        }
        sizes = (16384, 65536)
        for name, config in scenarios.items():
            comparison = cost_comparison(sizes, config)
            df16 = comparison["dragonfly"][0].dollars_per_node
            df64 = comparison["dragonfly"][1].dollars_per_node
            fb64 = comparison["flattened_butterfly"][1].dollars_per_node
            clos16 = comparison["folded_clos"][0].dollars_per_node
            torus16 = comparison["torus_3d"][0].dollars_per_node
            result.rows.append(
                {
                    "scenario": name,
                    "df_vs_fb_64k": 1 - df64 / fb64,
                    "df_vs_clos_16k": 1 - df16 / clos16,
                    "df_vs_torus_16k": 1 - df16 / torus16,
                }
            )
        return result


@register
class FourTopologySimulation(Experiment):
    """All four Figure 19 topologies driven by the same simulator."""

    id = "ext_four_topologies"
    title = "Four topologies simulated under benign and adversarial load"
    paper_claim = (
        "substrate completeness: the dragonfly's comparisons rest on how "
        "each topology routes -- here every one of them runs through the "
        "same cycle-accurate engine"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        from ..topology.folded_clos import FoldedClos
        from ..topology.torus import Torus

        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=[
                "topology", "routing", "pattern", "load",
                "latency", "accepted",
            ],
        )
        windows = dict(
            warmup_cycles=500 if quick else 1200,
            measure_cycles=500 if quick else 1200,
            drain_max_cycles=10_000,
        )
        dragonfly = Dragonfly(DragonflyParams.paper_example_72())
        butterfly = FlattenedButterfly(dims=(4, 4), concentration=4)
        clos = FoldedClos(num_terminals=64, radix=8)
        # Concentration 2 keeps the small torus balanced (a dimension-4
        # ring sustains c*m/8 = 1.0 of injection bandwidth per channel).
        torus = Torus(dims=(4, 4), concentration=2)
        cases = [
            ("dragonfly", dragonfly, make_routing("UGAL-L_CR"),
             [("uniform_random", 0.5), ("worst_case", 0.3)], 3),
            ("flattened_butterfly", butterfly, make_routing("FB-UGAL-L"),
             [("uniform_random", 0.5), ("fb_adversarial", 0.3)], 3),
            ("folded_clos", clos, make_routing("CLOS-RAND"),
             [("uniform_random", 0.5), ("shift", 0.3)], 3),
            ("torus_3d", torus, make_routing("TORUS-VAL"),
             [("uniform_random", 0.3), ("torus_tornado", 0.3)], 4),
        ]
        for name, topology, routing, patterns, vcs in cases:
            for pattern_name, load in patterns:
                config = SimulationConfig(load=load, num_vcs=vcs, **windows)
                pattern = make_pattern(pattern_name, topology, seed=41)
                run = make_simulator(
                    topology, routing, pattern, config,
                    settings=experiment_executor().settings,
                ).run()
                result.rows.append(
                    {
                        "topology": name,
                        "routing": routing.name,
                        "pattern": pattern_name,
                        "load": load,
                        "latency": math.inf if run.saturated else run.avg_latency,
                        "accepted": run.accepted_load,
                    }
                )
        return result


@register
class SaturationTable(Experiment):
    """Measured saturation throughput vs the analytic bounds."""

    id = "ext_saturation_table"
    title = "Saturation throughput: measured vs closed-form bounds"
    paper_claim = (
        "Section 4.2's numbers: MIN caps at 1/(a*h) on WC, VAL at ~50% "
        "everywhere, the UGAL family approaches 50% on WC and full "
        "capacity on UR"
    )

    def run(self, quick: bool = True) -> ExperimentResult:
        from ..analysis.channel_load import (
            min_worst_case_throughput,
            ugal_ideal_worst_case_throughput,
            valiant_uniform_throughput,
            valiant_worst_case_throughput,
        )
        from ..network.sweep import saturation_load
        from ..network.config import SimulationConfig as Config

        topology = Dragonfly(DragonflyParams.paper_example_72())
        config = Config(
            load=0.1,
            warmup_cycles=400 if quick else 1000,
            measure_cycles=400 if quick else 1000,
            drain_max_cycles=4000 if quick else 10_000,
        )
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=["routing", "pattern", "measured", "analytic_bound"],
        )
        params = topology.params
        cases = [
            ("MIN", "worst_case", min_worst_case_throughput(params), 60.0),
            ("VAL", "uniform_random", valiant_uniform_throughput(params), 60.0),
            ("VAL", "worst_case", valiant_worst_case_throughput(params), 60.0),
            ("UGAL-G", "worst_case",
             ugal_ideal_worst_case_throughput(params), 60.0),
            ("UGAL-L_VCH", "worst_case",
             ugal_ideal_worst_case_throughput(params), 120.0),
        ]
        executor = experiment_executor()
        for routing_name, pattern_name, bound, latency_limit in cases:
            measured = saturation_load(
                topology, routing_name, pattern_name, config,
                low=0.02, high=0.6 if pattern_name == "worst_case" else 1.0,
                tolerance=0.03, latency_limit=latency_limit,
                executor=executor,
            )
            result.rows.append(
                {
                    "routing": routing_name,
                    "pattern": pattern_name,
                    "measured": measured,
                    "analytic_bound": bound,
                }
            )
        return result
