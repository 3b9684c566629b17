"""Fault sweep: saturated throughput as global cables die (extension).

The paper argues (Section 2) that a dragonfly stays connected and
routable when global cables fail because minimal routes can detour
through a third group.  This extension experiment quantifies the cost:
it degrades the quick 72-terminal dragonfly by severing 0..3 disjoint
group pairs (:func:`repro.topology.faults.canonical_global_faults`),
recompiles the forwarding tables around the damage, simulates them
(:class:`repro.routing.tables.TableRouting`), and bisects for the
saturated throughput of uniform random traffic on each degraded
fabric.

Every severed pair forces its traffic onto third-group detours that
consume two global channels instead of one, so saturated throughput
decays gracefully -- it must not fall off a cliff, and the fabric must
stay deadlock-free (the ``faults`` pass of ``repro.check`` proves the
detour route classes acyclic for exactly these degradations).
"""

from __future__ import annotations

import dataclasses

from ..network.sweep import saturation_load
from ..topology.faults import canonical_global_faults
from .base import (
    Experiment,
    ExperimentResult,
    experiment_config,
    experiment_executor,
    experiment_topology,
    register,
)


@register
class FaultSweepSaturation(Experiment):
    """Saturated UR throughput vs number of severed group pairs."""

    id = "ext_fault_sweep"
    title = "Saturated throughput vs dead global cables (extension)"
    paper_claim = (
        "global-cable faults are survivable: minimal traffic detours "
        "through a third group at a graceful bandwidth cost, without "
        "deadlock"
    )

    #: One routing per degradation level; ``TBL-MIN/gcK`` severs K
    #: disjoint group pairs before compiling its tables.
    routing_names = ("TBL-MIN", "TBL-MIN/gc1", "TBL-MIN/gc2", "TBL-MIN/gc3")

    def run(self, quick: bool = True) -> ExperimentResult:
        topology = experiment_topology(quick)
        result = ExperimentResult(
            experiment_id=self.id,
            title=self.title,
            paper_claim=self.paper_claim,
            columns=[
                "severed_pairs",
                "dead_cables",
                "routing",
                "saturation_load",
            ],
        )
        # Saturation bisection re-simulates per probe, so keep the
        # measurement window short; the throughput criterion
        # (accepted >= 97% of offered) is robust to short windows.
        config = dataclasses.replace(
            experiment_config(quick, load=0.1),
            warmup_cycles=300 if quick else 1000,
            measure_cycles=300 if quick else 1000,
            drain_max_cycles=6000 if quick else 15_000,
        )
        executor = experiment_executor()
        tolerance = 0.05 if quick else 0.02
        for pairs, name in enumerate(self.routing_names):
            faults = canonical_global_faults(topology, pairs)
            saturation = saturation_load(
                topology,
                name,
                "uniform_random",
                config,
                tolerance=tolerance,
                executor=executor,
            )
            result.rows.append(
                {
                    "severed_pairs": pairs,
                    "dead_cables": len(faults.links),
                    "routing": name,
                    "saturation_load": saturation,
                }
            )
        result.notes.append(
            "each severed pair reroutes its traffic through a third group "
            "(two global hops instead of one); repro.check faults proves "
            "the detour route classes deadlock-free"
        )
        return result
