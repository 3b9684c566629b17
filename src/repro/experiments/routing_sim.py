"""Simulation experiments: the routing figures (8, 9, 10, 11, 12, 14, 16).

Each figure is a declaration: the *blocks* of its grid (routings x one
pattern x a load list, at one buffer depth) and a ``rows`` function that
tabulates the finished points.  :class:`SimulatedFigure` turns the
blocks into sweep manifests and the manifests into one batch of points,
so ``python -m repro.experiments fig08`` runs exactly the grid ``python
-m repro.serve submit fig08`` submits.  Latency entries are ``inf`` when
a run failed to drain its tagged packets (operating beyond saturation).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..network.stats import SimulationResult
from ..service.manifest import SweepManifest
from ..topology.dragonfly import Dragonfly
from .base import (
    Experiment,
    ExperimentResult,
    experiment_config,
    experiment_executor,
    experiment_topology,
    load_registry,
    register,
    uniform_loads,
    worst_case_loads,
)

#: Finished points keyed ``(routing, pattern, buffer depth, load)``, in
#: batch order: block by block, then routing, then load.
Points = Dict[Tuple[str, str, int, float], SimulationResult]


@dataclass(frozen=True)
class Block:
    """One rectangle of a figure's grid, at one buffer depth."""

    routings: Tuple[str, ...]
    pattern: str
    quick_loads: Tuple[float, ...]
    full_loads: Tuple[float, ...]
    depth: int = 16


#: The (quick, full) load lists the figures share.
_UNIFORM = (tuple(uniform_loads(True)), tuple(uniform_loads(False)))
_WORST = (tuple(worst_case_loads(True)), tuple(worst_case_loads(False)))
_MID = ((0.1, 0.2, 0.3, 0.4), (0.1, 0.2, 0.3, 0.4, 0.5))


def _latency(result: SimulationResult) -> float:
    return math.inf if result.saturated else result.avg_latency


class SimulatedFigure(Experiment):
    """A figure regenerated by simulating its declared blocks."""

    #: Column names of the figure's table.
    columns: Tuple[str, ...] = ()
    #: The simulation grid; one sweep manifest per block.
    blocks: Tuple[Block, ...] = ()

    def manifests(
        self, quick: bool = True, loads: Optional[Sequence[float]] = None
    ) -> List[SweepManifest]:
        """The figure's grid as sweep manifests, all tagged with its id.

        ``loads`` overrides every block's load list -- used by CI smoke
        runs to submit a cheap slice of a figure.
        """
        topology = experiment_topology(quick).spec()
        manifests = []
        for block in self.blocks:
            block_loads = tuple(loads) if loads is not None else (
                block.quick_loads if quick else block.full_loads
            )
            config = experiment_config(
                quick, load=block_loads[0], vc_buffer_depth=block.depth
            )
            if block.depth >= 256:
                # Deep buffers need a longer warm-up to fill.
                config = dataclasses.replace(
                    config, warmup_cycles=config.warmup_cycles * 5
                )
            manifests.append(
                SweepManifest(
                    figure=self.id,
                    topology=topology,
                    routings=block.routings,
                    patterns=(block.pattern,),
                    loads=block_loads,
                    seeds=(config.seed,),
                    config=config,
                )
            )
        return manifests

    def run(self, quick: bool = True) -> ExperimentResult:
        """Simulate the whole grid as one batch (every point runs
        concurrently when workers are available and hits the result
        cache on re-runs), then tabulate it."""
        topology = experiment_topology(quick)
        manifests = self.manifests(quick)
        specs = [spec for manifest in manifests for spec in manifest.specs()]
        results = experiment_executor().run_points(topology, specs)
        points = {
            (
                spec.routing_name, spec.pattern_name,
                spec.config.vc_buffer_depth, spec.config.load,
            ): result
            for spec, result in zip(specs, results)
        }
        return ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=list(self.columns),
            rows=self.rows(topology, manifests, points),
            notes=self.notes(topology),
        )

    def rows(
        self, topology: Dragonfly, manifests: Sequence[SweepManifest], points: Points
    ) -> List[Dict[str, object]]:
        """Latency table: one row per (block, load), one latency (and
        accepted-load) cell per routing; :attr:`columns` picks the cells."""
        rows: List[Dict[str, object]] = []
        for manifest in manifests:
            pattern, depth = manifest.patterns[0], manifest.config.vc_buffer_depth
            for load in manifest.loads:
                cells: Dict[str, object] = {
                    "pattern": pattern, "buffer_depth": depth, "load": load,
                }
                for name in manifest.routings:
                    run = points[name, pattern, depth, load]
                    cells[name] = _latency(run)
                    cells[f"{name}:accepted"] = run.accepted_load
                rows.append({column: cells[column] for column in self.columns})
        return rows

    def notes(self, topology: Dragonfly) -> List[str]:
        return []


def manifests_for_figure(
    figure: str,
    quick: bool = True,
    loads: Optional[Sequence[float]] = None,
) -> List[SweepManifest]:
    """The sweep manifests behind one of the paper's simulation figures."""
    experiments = [factory() for factory in load_registry().values()]
    presets = {e.id: e for e in experiments if isinstance(e, SimulatedFigure)}
    if figure not in presets:
        raise KeyError(
            f"no sweep preset for {figure!r}; available: "
            f"{' '.join(sorted(presets))} (or submit an explicit --manifest file)"
        )
    return presets[figure].manifests(quick, loads)


@register
class Figure8RoutingComparison(SimulatedFigure):
    """Latency vs load for MIN/VAL/UGAL-L/UGAL-G on UR and WC traffic."""

    id = "fig08"
    title = "Routing algorithm comparison (UR and WC traffic)"
    paper_claim = (
        "UR: MIN ~= UGAL ~= capacity, VAL ~= half capacity; "
        "WC: MIN caps at 1/(ah), VAL/UGAL-G ~= 50%, UGAL-L degraded latency"
    )

    routing_names = ("MIN", "VAL", "UGAL-L", "UGAL-G")
    columns = ("pattern", "load") + routing_names
    blocks = (
        Block(routing_names, "uniform_random", *_UNIFORM),
        Block(routing_names, "worst_case", *_WORST),
    )

    def notes(self, topology: Dragonfly) -> List[str]:
        min_wc_bound = 1.0 / (topology.a * topology.h)
        return [f"analytic MIN worst-case bound: 1/(a*h) = {min_wc_bound:.3f}"]


@register
class Figure9ChannelUtilization(SimulatedFigure):
    """Global channel utilisation under WC at load 0.2: UGAL-L starves
    the non-minimal channels sharing the minimal channel's router."""

    id = "fig09"
    title = "Global channel utilisation (WC traffic, load 0.2)"
    paper_claim = (
        "UGAL-G balances all non-minimal channels; UGAL-L underutilises "
        "the non-minimal channels on the minimal channel's router"
    )

    columns = (
        "routing", "minimal_channel", "same_router_nonminimal", "other_nonminimal",
    )
    blocks = (Block(("UGAL-L", "UGAL-G"), "worst_case", (0.2,), (0.2,)),)

    def rows(self, topology, manifests, points):
        # Classify the global channels leaving group 0 (the WC pattern
        # sends group 0's traffic to group 1).
        min_link = topology.group_links(0, 1)[0]
        all_links = [
            link
            for group in range(1, topology.g)
            for link in topology.group_links(0, group)
        ]
        same_router = [
            link
            for link in all_links
            if link.src_router == min_link.src_router and link != min_link
        ]
        others = [
            link for link in all_links if link.src_router != min_link.src_router
        ]
        rows = []
        for (name, _, _, _), run in points.items():
            util = run.global_channel_utilization()

            def channel_util(link) -> float:
                channel = topology.fabric.out_channel(link.src_router, link.src_port)
                assert channel is not None
                return util.get(channel.index, 0.0)

            rows.append(
                {
                    "routing": name,
                    "minimal_channel": channel_util(min_link),
                    "same_router_nonminimal": (
                        sum(channel_util(link) for link in same_router)
                        / max(1, len(same_router))
                    ),
                    "other_nonminimal": (
                        sum(channel_util(link) for link in others)
                        / max(1, len(others))
                    ),
                }
            )
        return rows


@register
class Figure10VcDiscrimination(SimulatedFigure):
    """UGAL-L_VC vs UGAL-L_VCH vs UGAL-L/UGAL-G on UR and WC."""

    id = "fig10"
    title = "VC-discriminated UGAL variants (UR and WC traffic)"
    paper_claim = (
        "UGAL-L_VC matches UGAL-G on WC but loses ~30% UR throughput; "
        "the hybrid UGAL-L_VCH matches UGAL-G throughput on both"
    )

    routing_names = ("UGAL-L", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-G")
    columns = (
        ("pattern", "load")
        + routing_names
        + tuple(f"{name}:accepted" for name in routing_names)
    )
    blocks = (
        Block(routing_names, "uniform_random", *_UNIFORM),
        Block(routing_names, "worst_case", *_WORST),
    )


@register
class Figure11MinimalPacketLatency(SimulatedFigure):
    """Minimal vs non-minimal packet latency under UGAL-L as buffers grow."""

    id = "fig11"
    title = "UGAL-L per-class latency vs buffer depth (WC traffic)"
    paper_claim = (
        "minimally-routed packets see latency proportional to buffer "
        "depth; non-minimal packets track UGAL-G"
    )

    columns = ("buffer_depth", "load", "minimal", "nonminimal", "average")
    blocks = tuple(
        Block(("UGAL-L",), "worst_case", *_MID, depth=depth) for depth in (16, 256)
    )

    def rows(self, topology, manifests, points):
        return [
            {
                "buffer_depth": depth,
                "load": load,
                "minimal": math.inf if run.saturated else run.avg_minimal_latency,
                "nonminimal": (
                    math.inf if run.saturated else run.avg_nonminimal_latency
                ),
                "average": _latency(run),
            }
            for (_, _, depth, load), run in points.items()
        ]


@register
class Figure12LatencyHistogram(SimulatedFigure):
    """Bimodal latency distribution of UGAL-L at load 0.25."""

    id = "fig12"
    title = "UGAL-L latency histogram (WC traffic, load 0.25)"
    paper_claim = (
        "two distributions: many low-latency non-minimal packets, a tail "
        "of high-latency minimal packets whose latency scales with buffers"
    )

    columns = (
        "buffer_depth", "avg_latency", "bin_start", "fraction",
        "minimal_fraction_in_bin",
    )
    blocks = tuple(
        Block(("UGAL-L",), "worst_case", (0.25,), (0.25,), depth=depth)
        for depth in (16, 256)
    )

    def rows(self, topology, manifests, points):
        rows = []
        for (_, _, depth, _), run in points.items():
            bin_width = 5 if depth == 16 else 25
            total_histogram = dict(run.latency_histogram(bin_width=bin_width))
            minimal_histogram = dict(
                run.latency_histogram(bin_width=bin_width, minimal_only=True)
            )
            for bin_start, fraction in sorted(total_histogram.items()):
                minimal_fraction = minimal_histogram.get(bin_start, 0.0)
                rows.append(
                    {
                        "buffer_depth": depth,
                        "avg_latency": run.avg_latency,
                        "bin_start": bin_start,
                        "fraction": fraction,
                        "minimal_fraction_in_bin": (
                            minimal_fraction / fraction if fraction else 0.0
                        ),
                    }
                )
        return rows


@register
class Figure14BufferDepth(SimulatedFigure):
    """UGAL-L intermediate latency vs buffer depth."""

    id = "fig14"
    title = "UGAL-L latency vs load for buffer depths 4..64 (WC traffic)"
    paper_claim = (
        "shallower buffers give stiffer backpressure and lower "
        "intermediate latency, at some cost in throughput"
    )

    columns = ("buffer_depth", "load", "latency")
    blocks = tuple(
        Block(("UGAL-L",), "worst_case", *_MID, depth=depth)
        for depth in (4, 8, 16, 32, 64)
    )

    def rows(self, topology, manifests, points):
        return [
            {"buffer_depth": depth, "load": load, "latency": _latency(run)}
            for (_, _, depth, load), run in points.items()
        ]


@register
class Figure16CreditRoundTrip(SimulatedFigure):
    """UGAL-L_CR vs UGAL-L_VCH vs UGAL-G, WC and UR, buffers 16 and 256."""

    id = "fig16"
    title = "Credit round-trip latency routing (UGAL-L_CR)"
    paper_claim = (
        "UGAL-L_CR approaches UGAL-G latency, cuts UGAL-L intermediate "
        "latency (35% at 16-flit buffers, ~20x at 256), and is far less "
        "sensitive to buffer depth"
    )

    routing_names = ("UGAL-L_VCH", "UGAL-L_CR", "UGAL-G")
    columns = ("pattern", "buffer_depth", "load") + routing_names
    # Spelled out: a generator in a class body cannot see routing_names.
    blocks = (
        Block(routing_names, "worst_case", *_WORST, depth=16),
        Block(routing_names, "worst_case", *_WORST, depth=256),
        Block(routing_names, "uniform_random", *_UNIFORM, depth=16),
        Block(routing_names, "uniform_random", *_UNIFORM, depth=256),
    )
