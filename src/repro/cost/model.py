"""Per-topology network cost models (Section 5, Figures 18 and 19).

Each topology is described by an analytic *cable enumerator* that yields
``CableRun`` records -- (length, count, bandwidth, intra-cabinet?) -- for
every class of physical link, plus the total router pin bandwidth.  The
pricing rules are:

* intra-cabinet connections are backplane traces (flat $/Gb/s),
* inter-cabinet runs shorter than the crossover use the electrical cable
  cost line, longer runs the active-optical line (Figure 2),
* router cost is proportional to aggregate pin bandwidth.

Bandwidth normalisation: every topology is provisioned to sustain the
same uniform-random injection bandwidth per node ("networks of the same
bandwidth", Section 7):

* dragonfly -- balanced (``a = 2p = 2h``); global channels are wired up
  to the uniform full-bisection requirement (``ceil(a*p/g)`` channels per
  group pair), which is also where the balanced wiring converges for
  large ``g``;
* flattened butterfly -- concentration-16 / dimension-16 is balanced;
  a smaller dimension of size ``m`` needs ``c/m`` wider channels;
* folded Clos -- full bisection by construction;
* 3-D torus -- a dimension-``m`` ring with concentration ``c`` needs
  ``c*m/8`` of the injection bandwidth per channel, which is why the
  torus is expensive despite short, cheap, electrical cables.

Absolute dollar values are calibration-dependent; the reproduced claims
are the *relative* positions of Figure 19 (dragonfly ~= flattened
butterfly up to ~1K where both degenerate to one fully-connected router
layer, ~10-20% cheaper beyond, >50% cheaper than the folded Clos, and
~50-60% cheaper than the torus).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .cables import cable_cost, is_optical
from .packaging import FloorPlan, PackagingConfig


@dataclass(frozen=True)
class CostConfig:
    """Pricing knobs shared by all topology cost models."""

    #: Per-direction bandwidth of one channel in the balanced high-radix
    #: networks (and the injection bandwidth all topologies must sustain).
    channel_gbps: float = 10.0
    #: Router silicon/package cost per Gb/s of pin bandwidth.
    router_cost_per_gbps: float = 0.35
    #: Backplane trace cost per Gb/s (intra-cabinet connections).
    backplane_cost_per_gbps: float = 0.6
    #: Electrical/optical choice threshold (Figure 19 uses 8 m).
    crossover_m: float = 8.0
    packaging: PackagingConfig = field(default_factory=PackagingConfig)

    def __post_init__(self) -> None:
        if self.channel_gbps <= 0:
            raise ValueError("channel_gbps must be > 0")
        if self.router_cost_per_gbps < 0 or self.backplane_cost_per_gbps < 0:
            raise ValueError("costs must be >= 0")


@dataclass(frozen=True)
class CableRun:
    """A class of identical physical links."""

    length_m: float
    count: int
    gbps: float
    intra_cabinet: bool
    kind: str  # "terminal" | "local" | "global" -- reporting only


@dataclass
class CostBreakdown:
    """Dollar totals by component, plus the counts behind them."""

    topology: str
    num_terminals: int
    router_dollars: float = 0.0
    backplane_dollars: float = 0.0
    electrical_cable_dollars: float = 0.0
    optical_cable_dollars: float = 0.0
    num_routers: int = 0
    num_backplane_links: int = 0
    num_electrical_cables: int = 0
    num_optical_cables: int = 0
    total_cable_length_m: float = 0.0

    @property
    def cable_dollars(self) -> float:
        return (
            self.backplane_dollars
            + self.electrical_cable_dollars
            + self.optical_cable_dollars
        )

    @property
    def total_dollars(self) -> float:
        return self.router_dollars + self.cable_dollars

    @property
    def dollars_per_node(self) -> float:
        return self.total_dollars / self.num_terminals

    def summary(self) -> str:
        return (
            f"{self.topology:20s} N={self.num_terminals:6d} "
            f"${self.dollars_per_node:8.2f}/node "
            f"(router ${self.router_dollars / self.num_terminals:6.2f}, "
            f"backplane ${self.backplane_dollars / self.num_terminals:6.2f}, "
            f"electrical ${self.electrical_cable_dollars / self.num_terminals:6.2f}, "
            f"optical ${self.optical_cable_dollars / self.num_terminals:6.2f})"
        )


class TopologyCost(abc.ABC):
    """Base class: subclasses provide cable runs and router pin counts."""

    name = "topology"

    def __init__(self, num_terminals: int, config: CostConfig) -> None:
        if num_terminals < 1:
            raise ValueError("num_terminals must be >= 1")
        self.num_terminals = num_terminals
        self.config = config

    @abc.abstractmethod
    def cable_runs(self) -> Iterator[CableRun]:
        """Enumerate every class of physical link."""

    @abc.abstractmethod
    def num_routers(self) -> int: ...

    @abc.abstractmethod
    def router_pin_gbps(self) -> float:
        """Aggregate pin bandwidth over all routers."""

    # ------------------------------------------------------------------
    def breakdown(self) -> CostBreakdown:
        config = self.config
        out = CostBreakdown(topology=self.name, num_terminals=self.num_terminals)
        out.num_routers = self.num_routers()
        out.router_dollars = self.router_pin_gbps() * config.router_cost_per_gbps
        for run in self.cable_runs():
            if run.count == 0:
                continue
            if run.intra_cabinet:
                cost = config.backplane_cost_per_gbps * run.gbps
                out.backplane_dollars += cost * run.count
                out.num_backplane_links += run.count
            else:
                cost = cable_cost(run.length_m, run.gbps, config.crossover_m)
                if is_optical(run.length_m, config.crossover_m):
                    out.optical_cable_dollars += cost * run.count
                    out.num_optical_cables += run.count
                else:
                    out.electrical_cable_dollars += cost * run.count
                    out.num_electrical_cables += run.count
                out.total_cable_length_m += run.length_m * run.count
        return out


def _complete_graph_runs(
    num_routers: int,
    routers_per_cabinet: int,
    cabinets: Sequence[int],
    floorplan: FloorPlan,
    gbps: float,
    kind: str,
) -> Iterator[CableRun]:
    """Cable runs of a completely-connected router set spread over the
    given cabinets (``routers_per_cabinet`` in each but the last)."""
    counts: List[int] = []
    remaining = num_routers
    for _ in cabinets:
        here = min(routers_per_cabinet, remaining)
        counts.append(here)
        remaining -= here
    intra_len = floorplan.config.intra_cabinet_length_m
    for i, cabinet_a in enumerate(cabinets):
        if counts[i] > 1:
            yield CableRun(
                intra_len, counts[i] * (counts[i] - 1) // 2, gbps, True, kind
            )
        for j in range(i + 1, len(cabinets)):
            pairs = counts[i] * counts[j]
            if pairs:
                length = floorplan.cable_length(cabinet_a, cabinets[j])
                yield CableRun(length, pairs, gbps, False, kind)


# ----------------------------------------------------------------------
# Dragonfly
# ----------------------------------------------------------------------
class DragonflyCost(TopologyCost):
    """Cost of a dragonfly built from routers of a given radix.

    Uses the balanced split (``p = h = (radix + 1) // 4``, ``a = 2p``),
    giving 512-terminal groups at radix 64 -- the paper's Figure 19
    configuration.  For systems that fit in a single fully-connected
    router layer the dragonfly degenerates to a 1-D flattened butterfly,
    matching the paper's observation that the two topologies are
    identical below ~1K nodes (where attempting to use virtual routers
    would only add cost).
    """

    name = "dragonfly"

    def __init__(
        self,
        num_terminals: int,
        config: CostConfig,
        router_radix: int = 64,
    ) -> None:
        super().__init__(num_terminals, config)
        self.router_radix = router_radix
        p = (router_radix + 1) // 4
        self.p = p
        max_single_group_routers = router_radix - p + 1
        if num_terminals <= p * max_single_group_routers:
            # Single fully-connected group (no global channels).
            self.a = math.ceil(num_terminals / p)
            self.h = 0
            self.g = 1
        else:
            self.a = 2 * p
            self.h = p
            self.g = math.ceil(num_terminals / (self.a * p))
        self.group_terminals = self.a * self.p
        packaging = config.packaging
        self.cabinets_per_group = max(
            1, math.ceil(self.group_terminals / packaging.terminals_per_cabinet)
        )
        self.floorplan = FloorPlan(self.g * self.cabinets_per_group, packaging)

    def num_routers(self) -> int:
        return self.a * self.g

    def _channels_per_pair(self) -> int:
        """Global channels between each group pair.

        The uniform full-bisection requirement is ``a*p/g`` channels per
        pair; wiring more than that (the balanced network has ``a*h``
        ports per group to spread over ``g - 1`` peers) is tapered away,
        which is what the paper's bandwidth-normalised comparison prices.
        """
        if self.g < 2:
            return 0
        needed = math.ceil(self.a * self.p / self.g)
        available = (self.a * self.h) // (self.g - 1)
        return max(1, min(needed, available) if available else needed)

    def _used_global_ports_per_group(self) -> int:
        return self._channels_per_pair() * (self.g - 1)

    def router_pin_gbps(self) -> float:
        gbps = self.config.channel_gbps
        per_group = (
            self.a * (self.p + self.a - 1) + self._used_global_ports_per_group()
        )
        return self.g * per_group * gbps

    def _group_cabinets(self, group: int) -> List[int]:
        start = group * self.cabinets_per_group
        return list(range(start, start + self.cabinets_per_group))

    def cable_runs(self) -> Iterator[CableRun]:
        gbps = self.config.channel_gbps
        packaging = self.config.packaging
        yield CableRun(
            packaging.intra_cabinet_length_m, self.num_terminals, gbps, True, "terminal"
        )
        routers_per_cabinet = math.ceil(self.a / self.cabinets_per_group)
        # Local channels: a completely-connected group over its cabinets.
        group0 = self._group_cabinets(0)
        local_runs = list(
            _complete_graph_runs(
                self.a, routers_per_cabinet, group0, self.floorplan, gbps, "local"
            )
        )
        for run in local_runs:
            yield CableRun(run.length_m, run.count * self.g, gbps, run.intra_cabinet, "local")
        # Global channels between group pairs.
        per_pair = self._channels_per_pair()
        if per_pair == 0:
            return
        for group_i in range(self.g):
            cabs_i = self._group_cabinets(group_i)
            for group_j in range(group_i + 1, self.g):
                cabs_j = self._group_cabinets(group_j)
                # Spread channel endpoints over the groups' cabinets.
                for channel in range(per_pair):
                    cab_i = cabs_i[channel % len(cabs_i)]
                    cab_j = cabs_j[channel % len(cabs_j)]
                    length = self.floorplan.cable_length(cab_i, cab_j)
                    yield CableRun(length, 1, gbps, False, "global")


# ----------------------------------------------------------------------
# Flattened butterfly
# ----------------------------------------------------------------------
class FlattenedButterflyCost(TopologyCost):
    """Cost of an n-dimensional flattened butterfly.

    Concentration 16; as long as the network fits in one fully-connected
    router layer a single dimension is used (identical to the degenerate
    dragonfly), beyond that dimensions of size 16 are added with the last
    dimension sized to fit ``N``.  A dimension of size ``m < 16`` keeps
    full bisection by widening its channels by ``16/m``.
    """

    name = "flattened_butterfly"

    def __init__(
        self,
        num_terminals: int,
        config: CostConfig,
        concentration: int = 16,
        dim_size: int = 16,
        router_radix: int = 64,
    ) -> None:
        super().__init__(num_terminals, config)
        self.concentration = concentration
        self.dim_size = dim_size
        max_single_dim = router_radix - concentration + 1
        if num_terminals <= concentration * max_single_dim:
            self.dims: Tuple[int, ...] = (math.ceil(num_terminals / concentration),)
        else:
            dims = [dim_size]
            capacity = concentration * dim_size
            while capacity < num_terminals:
                remaining = math.ceil(num_terminals / capacity)
                dims.append(min(dim_size, remaining))
                capacity *= dims[-1]
            self.dims = tuple(dims)
        self.routers = 1
        for m in self.dims:
            self.routers *= m
        packaging = config.packaging
        self.routers_per_cabinet = max(
            1, packaging.terminals_per_cabinet // concentration
        )
        self.num_cabinets = math.ceil(self.routers / self.routers_per_cabinet)
        self.floorplan = FloorPlan(self.num_cabinets, packaging)

    def _dim_gbps(self, m: int) -> float:
        """Channel bandwidth keeping full bisection in a size-``m`` dim."""
        factor = max(1.0, self.concentration / m)
        return self.config.channel_gbps * factor

    def num_routers(self) -> int:
        return self.routers

    def router_pin_gbps(self) -> float:
        per_router = self.concentration * self.config.channel_gbps
        for m in self.dims:
            per_router += (m - 1) * self._dim_gbps(m)
        return self.routers * per_router

    def cable_runs(self) -> Iterator[CableRun]:
        packaging = self.config.packaging
        base_gbps = self.config.channel_gbps
        yield CableRun(
            packaging.intra_cabinet_length_m,
            self.num_terminals,
            base_gbps,
            True,
            "terminal",
        )
        if len(self.dims) == 1:
            # Degenerate fully-connected layer, possibly spanning cabinets.
            yield from _complete_graph_runs(
                self.routers,
                self.routers_per_cabinet,
                list(range(self.num_cabinets)),
                self.floorplan,
                self._dim_gbps(self.dims[0]),
                "local",
            )
            return
        # Dimension 1: one 16-router line is half (or all) of a cabinet.
        m1 = self.dims[0]
        num_lines = self.routers // m1
        lines_per_cabinet = max(1, self.routers_per_cabinet // m1)
        yield CableRun(
            packaging.intra_cabinet_length_m,
            num_lines * (m1 * (m1 - 1) // 2),
            self._dim_gbps(m1),
            True,
            "local",
        )
        # Higher dimensions: cables between the dim-1 lines differing in
        # one coordinate; each line pair carries m1 parallel cables (one
        # per dimension-1 position).  Lines map onto cabinets, so some
        # pairs are intra-cabinet.
        line_dims = self.dims[1:]
        for dim_index, m in enumerate(line_dims):
            gbps = self._dim_gbps(m)
            others = [size for k, size in enumerate(line_dims) if k != dim_index]
            for coords in _iter_coords(others):
                for v_a in range(m):
                    for v_b in range(v_a + 1, m):
                        coords_a = list(coords)
                        coords_a.insert(dim_index, v_a)
                        coords_b = list(coords)
                        coords_b.insert(dim_index, v_b)
                        line_a = self._flatten(coords_a, line_dims)
                        line_b = self._flatten(coords_b, line_dims)
                        cab_a = line_a // lines_per_cabinet
                        cab_b = line_b // lines_per_cabinet
                        if cab_a == cab_b:
                            yield CableRun(
                                packaging.intra_cabinet_length_m,
                                m1,
                                gbps,
                                True,
                                "global",
                            )
                        else:
                            length = self.floorplan.cable_length(cab_a, cab_b)
                            yield CableRun(length, m1, gbps, False, "global")

    @staticmethod
    def _flatten(coords: Sequence[int], dims: Sequence[int]) -> int:
        index = 0
        for coord, m in zip(coords, dims):
            index = index * m + coord
        return index


def _iter_coords(dims: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    if not dims:
        yield ()
        return
    for head in range(dims[0]):
        for rest in _iter_coords(dims[1:]):
            yield (head,) + rest


# ----------------------------------------------------------------------
# Folded Clos
# ----------------------------------------------------------------------
class FoldedClosCost(TopologyCost):
    """Cost of a full-bisection folded Clos of radix-``k`` switches.

    ``L`` levels with ``(2L - 1) N / k`` switches (the paper's counting,
    which folds the top level in half).  Every level boundary carries
    ``N`` cables.  With three or more levels the leaf boundary stays
    inside the cabinet and higher boundaries run to spine cabinets at the
    centre of the floor; a two-level network cables every cabinet
    directly to the spine.
    """

    name = "folded_clos"

    def __init__(
        self,
        num_terminals: int,
        config: CostConfig,
        router_radix: int = 64,
    ) -> None:
        super().__init__(num_terminals, config)
        if router_radix % 2:
            raise ValueError("folded Clos radix must be even")
        self.router_radix = router_radix
        down = router_radix // 2
        self.levels = 1
        capacity = 2 * down
        while capacity < num_terminals:
            self.levels += 1
            capacity = 2 * down**self.levels
        self.floorplan = FloorPlan.for_terminals(num_terminals, config.packaging)

    def num_routers(self) -> int:
        return math.ceil(
            (2 * self.levels - 1) * self.num_terminals / self.router_radix
        )

    def router_pin_gbps(self) -> float:
        return self.num_routers() * self.router_radix * self.config.channel_gbps

    def cable_runs(self) -> Iterator[CableRun]:
        gbps = self.config.channel_gbps
        packaging = self.config.packaging
        intra_len = packaging.intra_cabinet_length_m
        yield CableRun(intra_len, self.num_terminals, gbps, True, "terminal")
        if self.levels < 2:
            return
        global_boundaries = self.levels - 1
        if self.levels >= 3:
            # Leaf-to-first-aggregation: an aggregation switch gathers
            # k/2 leaves, more than one cabinet holds, so about half of
            # this boundary crosses to a neighbouring cabinet.
            short_run = (
                2 * packaging.cabinet_pitch_m + packaging.cable_overhead_m
            )
            yield CableRun(intra_len, self.num_terminals // 2, gbps, True, "local")
            yield CableRun(
                short_run,
                self.num_terminals - self.num_terminals // 2,
                gbps,
                False,
                "local",
            )
            global_boundaries -= 1
        cabinets = self.floorplan.num_cabinets
        per_cabinet = math.ceil(self.num_terminals / cabinets)
        centre = self.floorplan.central_cabinet()
        for _boundary in range(global_boundaries):
            for cabinet in range(cabinets):
                length = self.floorplan.cable_length(cabinet, centre)
                yield CableRun(
                    length, per_cabinet, gbps, cabinet == centre, "global"
                )


# ----------------------------------------------------------------------
# 3-D torus
# ----------------------------------------------------------------------
class TorusCost(TopologyCost):
    """Cost of a 3-D torus normalised to the same uniform throughput.

    A dimension-``m`` ring with concentration ``c`` must carry ``c*m/8``
    of the injection bandwidth per channel to sustain uniform traffic,
    so channels widen as the machine grows; with folding, cables stay
    short (electrical) but are numerous and wide.
    """

    name = "torus_3d"

    def __init__(
        self,
        num_terminals: int,
        config: CostConfig,
        concentration: int = 2,
    ) -> None:
        super().__init__(num_terminals, config)
        self.concentration = concentration
        routers = math.ceil(num_terminals / concentration)
        side = max(2, round(routers ** (1.0 / 3.0)))
        self.dims = (side, side, max(2, math.ceil(routers / (side * side))))
        self.routers = self.dims[0] * self.dims[1] * self.dims[2]
        self.floorplan = FloorPlan.for_terminals(num_terminals, config.packaging)

    def num_routers(self) -> int:
        return self.routers

    def _dim_gbps(self, m: int) -> float:
        """Channel bandwidth for a dimension-``m`` ring (>= injection)."""
        return self.config.channel_gbps * max(1.0, self.concentration * m / 8.0)

    def router_pin_gbps(self) -> float:
        per_router = self.concentration * self.config.channel_gbps
        for m in self.dims:
            per_router += 2 * self._dim_gbps(m)
        return self.routers * per_router

    def cable_runs(self) -> Iterator[CableRun]:
        packaging = self.config.packaging
        intra_len = packaging.intra_cabinet_length_m
        yield CableRun(
            intra_len, self.num_terminals, self.config.channel_gbps, True, "terminal"
        )
        # Folded-torus packing: a cabinet holds a sub-block of routers, so
        # most neighbour links stay inside it; per dimension, roughly
        # 1/side-of-block of the links cross to the (folded-adjacent)
        # cabinet at a short run of two pitches.
        routers_per_cabinet = max(
            1, packaging.terminals_per_cabinet // self.concentration
        )
        block_side = max(1.0, routers_per_cabinet ** (1.0 / 3.0))
        crossing_fraction = min(1.0, 1.0 / block_side)
        short_run = 2 * packaging.cabinet_pitch_m + packaging.cable_overhead_m
        for m in self.dims:
            cables = self.routers  # one +-link per router per dimension
            gbps = self._dim_gbps(m)
            crossing = int(round(cables * crossing_fraction))
            yield CableRun(intra_len, cables - crossing, gbps, True, "local")
            yield CableRun(short_run, crossing, gbps, False, "local")


# ----------------------------------------------------------------------
# Figure 19 driver
# ----------------------------------------------------------------------
ALL_COST_MODELS = {
    "dragonfly": DragonflyCost,
    "flattened_butterfly": FlattenedButterflyCost,
    "folded_clos": FoldedClosCost,
    "torus_3d": TorusCost,
}


def cost_comparison(
    sizes: Sequence[int],
    config: Optional[CostConfig] = None,
) -> Dict[str, List[CostBreakdown]]:
    """$/node for all four topologies over a sweep of network sizes."""
    config = config or CostConfig()
    out: Dict[str, List[CostBreakdown]] = {name: [] for name in ALL_COST_MODELS}
    for n in sizes:
        for name, model in ALL_COST_MODELS.items():
            out[name].append(model(n, config).breakdown())
    return out
