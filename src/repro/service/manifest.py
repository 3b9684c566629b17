"""Sweep manifests: a figure's simulation grid as data.

A :class:`SweepManifest` is the unit of submission to the sweep
service: it names a figure tag and spans a (routing x pattern x load x
seed) grid over one topology and one base
:class:`~repro.network.config.SimulationConfig`.  The manifest is pure
data (JSON round-trip, stable digest), so a sweep request can be
journaled, resumed, shipped to another host, or compared for identity.

Decomposition into work is deterministic: :meth:`SweepManifest.work_units`
yields one :class:`WorkUnit` per grid point, each carrying the full
auditable cache key of :func:`repro.network.cache.point_key` and its
SHA-256 digest -- the same content address the result store files the
point under, so "is this unit already computed?" is a single store
lookup and two identical submissions share every point.

Figure presets (:func:`manifests_for_figure`) mirror the grids of the
``repro.experiments`` simulation figures; figures that sweep buffer
depth expand into one manifest per depth, all tagged with the same
figure id.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import DragonflyParams
from ..network.cache import key_digest
from ..network.config import SimulationConfig
from ..network.parallel import PointSpec, WorkUnit, work_units
from ..routing.ugal import make_routing
from ..topology.dragonfly import Dragonfly

#: Bump when the manifest layout or its decomposition into units changes.
MANIFEST_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TopologySpec:
    """JSON-able description of the topology a manifest runs on."""

    family: str
    p: int
    a: int
    h: int
    num_groups: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family != "dragonfly":
            raise ValueError(
                f"unsupported topology family {self.family!r}; the sweep "
                "service currently builds 'dragonfly' topologies"
            )
        # Validate the parameter algebra eagerly: a bad spec must fail at
        # submission, not inside a worker process.
        DragonflyParams(p=self.p, a=self.a, h=self.h, num_groups=self.num_groups)

    def build(self) -> Dragonfly:
        """Construct the topology this spec describes."""
        return Dragonfly(
            DragonflyParams(p=self.p, a=self.a, h=self.h, num_groups=self.num_groups)
        )

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TopologySpec":
        return cls(
            family=str(data["family"]),
            p=int(data["p"]),  # type: ignore[arg-type]
            a=int(data["a"]),  # type: ignore[arg-type]
            h=int(data["h"]),  # type: ignore[arg-type]
            num_groups=(
                None if data.get("num_groups") is None
                else int(data["num_groups"])  # type: ignore[arg-type]
            ),
        )

    @classmethod
    def from_topology(cls, topology: Dragonfly) -> "TopologySpec":
        params = topology.params
        return cls(
            family="dragonfly",
            p=params.p,
            a=params.a,
            h=params.h,
            num_groups=params.num_groups,
        )


@dataclass(frozen=True)
class SweepManifest:
    """A sweep request: figure tag + simulation grid, as pure data."""

    #: Figure tag the results are filed under (e.g. ``"fig09"``).
    figure: str
    topology: TopologySpec
    routings: Tuple[str, ...]
    patterns: Tuple[str, ...]
    loads: Tuple[float, ...]
    #: Replication seeds; each grid point runs once per seed.
    seeds: Tuple[int, ...]
    #: Base config; ``load`` and ``seed`` are replaced per unit.
    config: SimulationConfig

    def __post_init__(self) -> None:
        if not self.figure:
            raise ValueError("manifest needs a figure tag")
        for name, values in (
            ("routings", self.routings),
            ("patterns", self.patterns),
            ("loads", self.loads),
            ("seeds", self.seeds),
        ):
            if not values:
                raise ValueError(f"manifest needs at least one entry in {name}")
        for routing in self.routings:
            # The one parser of routing names; its ValueError lists the
            # choices and the TBL-MIN/gcK form.
            make_routing(routing)
        for load in self.loads:
            if not 0.0 < load <= 1.0:
                raise ValueError(f"loads must be in (0, 1], got {load}")

    # ------------------------------------------------------------------
    # Identity and serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": MANIFEST_SCHEMA_VERSION,
            "figure": self.figure,
            "topology": self.topology.to_dict(),
            "routings": list(self.routings),
            "patterns": list(self.patterns),
            "loads": list(self.loads),
            "seeds": list(self.seeds),
            "config": dataclasses.asdict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepManifest":
        schema = data.get("schema", MANIFEST_SCHEMA_VERSION)
        if schema != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"manifest schema {schema!r} is not the supported "
                f"version {MANIFEST_SCHEMA_VERSION}"
            )
        config_data = dict(data["config"])  # type: ignore[call-overload]
        return cls(
            figure=str(data["figure"]),
            topology=TopologySpec.from_dict(data["topology"]),  # type: ignore[arg-type]
            routings=tuple(str(r) for r in data["routings"]),  # type: ignore[union-attr]
            patterns=tuple(str(p) for p in data["patterns"]),  # type: ignore[union-attr]
            loads=tuple(float(v) for v in data["loads"]),  # type: ignore[union-attr]
            seeds=tuple(int(s) for s in data["seeds"]),  # type: ignore[union-attr]
            config=SimulationConfig(**config_data),
        )

    @property
    def digest(self) -> str:
        """Stable content address of the whole request."""
        return key_digest(self.to_dict())

    @property
    def job_id(self) -> str:
        """Directory-friendly job identity: figure tag + digest prefix."""
        return f"{self.figure}-{self.digest[:16]}"

    # ------------------------------------------------------------------
    # Decomposition
    # ------------------------------------------------------------------
    def num_units(self) -> int:
        return (
            len(self.routings) * len(self.patterns)
            * len(self.loads) * len(self.seeds)
        )

    def work_units(self, topology: Optional[Dragonfly] = None) -> List[WorkUnit]:
        """The manifest's grid as content-addressed work units.

        Order is deterministic (routing, then pattern, then load, then
        seed) so unit indexes are stable across submissions and resumes.
        ``topology`` may be passed when the caller already built one;
        it must describe the same machine as :attr:`topology`.
        """
        topology = topology if topology is not None else self.topology.build()
        return work_units(topology, [
            PointSpec(
                routing, pattern,
                dataclasses.replace(self.config, load=load, seed=seed),
            )
            for routing in self.routings
            for pattern in self.patterns
            for load in self.loads
            for seed in self.seeds
        ])


# ----------------------------------------------------------------------
# Figure presets
# ----------------------------------------------------------------------
def _figure_manifest(
    figure: str,
    quick: bool,
    routings: Sequence[str],
    pattern: str,
    loads: Sequence[float],
    vc_buffer_depth: int = 16,
    seeds: Tuple[int, ...] = (1,),
) -> SweepManifest:
    from ..experiments.base import experiment_config, experiment_topology

    config = experiment_config(quick, load=loads[0], vc_buffer_depth=vc_buffer_depth)
    if vc_buffer_depth >= 256:
        # Deep buffers need a longer warm-up to fill (the fig11/12/16
        # experiments apply the same scaling).
        config = dataclasses.replace(config, warmup_cycles=config.warmup_cycles * 5)
    return SweepManifest(
        figure=figure,
        topology=TopologySpec.from_topology(experiment_topology(quick)),
        routings=tuple(routings),
        patterns=(pattern,),
        loads=tuple(loads),
        seeds=seeds,
        config=config,
    )


def manifests_for_figure(
    figure: str,
    quick: bool = True,
    loads: Optional[Sequence[float]] = None,
) -> List[SweepManifest]:
    """The sweep manifests behind one of the paper's simulation figures.

    Figures whose grid spans both traffic patterns or several buffer
    depths expand into several manifests sharing the figure tag (a
    manifest holds one pattern list with one load list, and one base
    config).  ``loads`` overrides every manifest's load list -- used by
    CI smoke runs to submit a cheap slice of a figure.
    """
    from ..experiments.base import uniform_loads, worst_case_loads

    uniform = tuple(loads) if loads is not None else tuple(uniform_loads(quick))
    worst = tuple(loads) if loads is not None else tuple(worst_case_loads(quick))
    mid = tuple(loads) if loads is not None else (
        (0.1, 0.2, 0.3, 0.4) if quick else (0.1, 0.2, 0.3, 0.4, 0.5)
    )

    def both_patterns(routings: Sequence[str], depth: int = 16) -> List[SweepManifest]:
        return [
            _figure_manifest(figure, quick, routings, "uniform_random", uniform, depth),
            _figure_manifest(figure, quick, routings, "worst_case", worst, depth),
        ]

    if figure == "fig08":
        return both_patterns(["MIN", "VAL", "UGAL-L", "UGAL-G"])
    if figure == "fig09":
        # Figure 9 reads channel utilisation at the single load 0.2.
        single = tuple(loads) if loads is not None else (0.2,)
        return [
            _figure_manifest(figure, quick, ["UGAL-L", "UGAL-G"], "worst_case", single)
        ]
    if figure == "fig10":
        return both_patterns(["UGAL-L", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-G"])
    if figure == "fig11":
        return [
            _figure_manifest(figure, quick, ["UGAL-L"], "worst_case", mid, depth)
            for depth in (16, 256)
        ]
    if figure == "fig12":
        single = tuple(loads) if loads is not None else (0.25,)
        return [
            _figure_manifest(figure, quick, ["UGAL-L"], "worst_case", single, depth)
            for depth in (16, 256)
        ]
    if figure == "fig14":
        return [
            _figure_manifest(figure, quick, ["UGAL-L"], "worst_case", mid, depth)
            for depth in (4, 8, 16, 32, 64)
        ]
    if figure == "fig16":
        manifests: List[SweepManifest] = []
        for depth in (16, 256):
            manifests.extend(
                both_patterns(["UGAL-L_VCH", "UGAL-L_CR", "UGAL-G"], depth)
            )
        return manifests
    raise KeyError(
        f"no sweep preset for {figure!r}; available: fig08 fig09 fig10 "
        "fig11 fig12 fig14 fig16 (or submit an explicit --manifest file)"
    )
