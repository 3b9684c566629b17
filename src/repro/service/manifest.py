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

This module knows nothing about the paper's figures: the manifests of
a simulated figure are built from its declared blocks by
:func:`repro.experiments.manifests_for_figure`, and ``repro.service``
imports nothing from ``repro.experiments``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.params import DragonflyParams
from ..network.cache import WIRING_DEFAULTS, key_digest
from ..network.config import SimulationConfig
from ..network.parallel import PointSpec, WorkUnit, work_units
from ..network.traffic import pattern_factory
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
        """The spec of ``topology``; a taper or latency it cannot describe
        is a ``ValueError`` (its :meth:`build` would be another network)."""
        for name, default in WIRING_DEFAULTS:
            if getattr(topology, name) != default:
                raise ValueError(
                    f"TopologySpec cannot describe {name}="
                    f"{getattr(topology, name)!r} (only the default {default!r})"
                )
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
            topology_type = make_routing(routing).topology_type
            if topology_type is not Dragonfly:
                raise ValueError(
                    f"routing {routing!r} drives a {topology_type.__name__}; "
                    "the sweep service builds dragonfly topologies"
                )
        for pattern in self.patterns:
            # Likewise the one table of traffic-pattern names.
            pattern_factory(pattern)
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

    def specs(self) -> List[PointSpec]:
        """The manifest's grid as point specs.

        Order is deterministic (routing, then pattern, then load, then
        seed) so unit indexes are stable across submissions and resumes.
        """
        return [
            PointSpec(
                routing, pattern,
                dataclasses.replace(self.config, load=load, seed=seed),
            )
            for routing in self.routings
            for pattern in self.patterns
            for load in self.loads
            for seed in self.seeds
        ]

    def work_units(self, topology: Optional[Dragonfly] = None) -> List[WorkUnit]:
        """:meth:`specs` as content-addressed work units, in order.

        ``topology`` may be passed when the caller already built one;
        it must describe the same machine as :attr:`topology`.
        """
        topology = topology if topology is not None else self.topology.build()
        return work_units(topology, self.specs())
