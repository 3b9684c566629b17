"""Sweep manifests: a figure's simulation grid as data.

A :class:`SweepManifest` is the unit of submission to the sweep
service: it names a figure tag and spans a (routing x pattern x load x
seed) grid over one topology, given as its
:meth:`~repro.topology.base.Topology.spec`, and one base
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
from typing import Any, Dict, List, Optional, Tuple

from ..network.cache import key_digest
from ..network.config import SimulationConfig
from ..network.parallel import PointSpec, WorkUnit, work_units
from ..network.traffic import pattern_factory
from ..routing.ugal import make_routing
from ..topology.base import Topology, build, parse_spec

#: Bump when the manifest layout or its decomposition into units changes.
#: 2: ``topology`` is a topology spec, for any family.
MANIFEST_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class SweepManifest:
    """A sweep request: figure tag + simulation grid, as pure data."""

    #: Figure tag the results are filed under (e.g. ``"fig09"``).
    figure: str
    #: The network, as :meth:`~repro.topology.base.Topology.spec`
    #: writes it (a spec spelled otherwise is rewritten so).
    topology: Dict[str, Any]
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
        try:
            family, spec = parse_spec(self.topology)
        except (TypeError, ValueError) as error:
            raise ValueError(f"topology: {error}") from error
        object.__setattr__(self, "topology", spec)
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
            if not issubclass(family, topology_type):
                raise ValueError(
                    f"routing {routing!r} drives a {topology_type.__name__}, "
                    f"not the manifest's {family.__name__}"
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
            "topology": self.topology,
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
                f"schema: manifest schema {schema!r} is not the supported "
                f"version {MANIFEST_SCHEMA_VERSION}"
            )
        config_data = dict(data["config"])  # type: ignore[call-overload]
        return cls(
            figure=str(data["figure"]),
            topology=data["topology"],  # type: ignore[arg-type]
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

    def work_units(self, topology: Optional[Topology] = None) -> List[WorkUnit]:
        """:meth:`specs` as content-addressed work units, in order.

        ``topology`` may be passed when the caller already built one;
        a topology whose spec is not :attr:`topology` is a ``ValueError``.
        """
        if topology is None:
            topology = build(self.topology)
        elif topology.spec() != self.topology:
            raise ValueError(
                f"topology {topology.spec()} is not the manifest's {self.topology}"
            )
        return work_units(topology, self.specs())
