"""Dragonfly group variants (Section 3.2, Figure 6).

The intra-group network of a dragonfly need not be completely connected.
Figure 6 of the paper shows two variants:

(a) a 2-D flattened butterfly intra-group network with the same group
    radix that exploits packaging locality (more bandwidth to neighbouring
    routers), and
(b) a higher-dimensional flattened butterfly intra-group network that
    *increases* the group size ``a`` (and hence ``k'``) for the same
    router radix -- e.g. a 3-D flattened butterfly of 2x2x2 routers with
    ``p = 2`` is a 3-D cube and doubles ``k'`` from 16 to 32 relative to
    the Figure 5 example.

This module builds such dragonflies.  Only the local wiring (and
therefore the local minimal path length, up to ``n`` hops per group)
changes; everything else is
:class:`~repro.topology.dragonfly.GroupedTopology`'s, the code that
wires :class:`~repro.topology.dragonfly.Dragonfly`.  The variant is
validated as ``DragonflyParams``; its spec is its own arguments
(``p``, ``group_dims``, ``h``, ``num_groups``, latencies).
"""

from __future__ import annotations

import itertools
import math
from typing import List, Sequence, Tuple

from ..core.params import DragonflyParams, TopologyError
from .base import ChannelKind, PortRef
from .dragonfly import GroupedTopology


class FlattenedButterflyGroupDragonfly(GroupedTopology):
    """Dragonfly whose groups are n-dimensional flattened butterflies.

    Parameters
    ----------
    p:
        Terminals per router.
    group_dims:
        Dimension sizes of the intra-group flattened butterfly; the group
        size is ``a = prod(group_dims)``.
    h:
        Global channels per router.
    num_groups:
        Group count; defaults to the maximum ``a*h + 1``.
    """

    fabric_name = "dragonfly_fb_group"

    def __init__(
        self,
        p: int,
        group_dims: Sequence[int],
        h: int,
        num_groups: int = 0,
        local_latency: int = 1,
        global_latency: int = 1,
    ) -> None:
        if not group_dims or any(m < 1 for m in group_dims):
            raise TopologyError(f"invalid group dimensions {group_dims}")
        self.group_dims: Tuple[int, ...] = tuple(group_dims)
        self.num_groups = num_groups
        #: Each dimension's first port: its ``m - 1`` ports follow the
        #: lower dimensions' ones.
        self._dim_port_base: List[int] = [
            p + sum(m - 1 for m in self.group_dims[:dim])
            for dim in range(len(self.group_dims))
        ]
        #: Local index -> coordinates (row-major), and the Hamming
        #: distance between every two local indices.
        self._coords: List[Tuple[int, ...]] = list(
            itertools.product(*(range(m) for m in self.group_dims))
        )
        self._local_hops: List[List[int]] = [
            [sum(s != d for s, d in zip(src, dst)) for dst in self._coords]
            for src in self._coords
        ]
        super().__init__(
            DragonflyParams(p, math.prod(self.group_dims), h, num_groups or None),
            sum(m - 1 for m in self.group_dims),
            local_latency,
            global_latency,
        )

    # ------------------------------------------------------------------
    def coords_of(self, router: int) -> Tuple[int, ...]:
        return self._coords[self.local_index(router)]

    def local_router_at(self, group: int, coords: Sequence[int]) -> int:
        local = 0
        for coord, m in zip(coords, self.group_dims):
            if not (0 <= coord < m):
                raise TopologyError(f"coordinate {coord} out of range")
            local = local * m + coord
        return group * self.a + local

    def dim_port(self, router: int, dim: int, dst_coord: int) -> int:
        src_coord = self.coords_of(router)[dim]
        if src_coord == dst_coord:
            raise TopologyError("no channel from a router to itself")
        offset = dst_coord if dst_coord < src_coord else dst_coord - 1
        return self._dim_port_base[dim] + offset

    def local_port(self, router: int, dst_router: int) -> int:
        """First dimension-order hop of ``router`` toward ``dst_router``.

        The contract of :meth:`repro.topology.dragonfly.Dragonfly.
        local_port`: both routers in one group and distinct.  A group is
        a flattened butterfly, so the hop corrects the lowest differing
        coordinate; repeated, it walks to ``dst_router``.
        """
        src_coords = self.coords_of(router)
        dst_coords = self.coords_of(dst_router)
        for dim, (src_coord, dst_coord) in enumerate(zip(src_coords, dst_coords)):
            if src_coord != dst_coord:
                return self.dim_port(router, dim, dst_coord)
        raise TopologyError("no local hop needed between identical routers")

    def intra_group_hops(self, src_router: int, dst_router: int) -> int:
        """Hamming distance within the group's flattened butterfly."""
        return self._local_hops[self.local_index(src_router)][
            self.local_index(dst_router)
        ]

    # ------------------------------------------------------------------
    def _wire_group(self, group: int) -> None:
        for dim, m in enumerate(self.group_dims):
            for local in range(self.a):
                router = group * self.a + local
                coords = self.coords_of(router)
                for dst_coord in range(coords[dim] + 1, m):
                    dst_coords = list(coords)
                    dst_coords[dim] = dst_coord
                    dst = self.local_router_at(group, dst_coords)
                    self.fabric.connect(
                        PortRef(router, self.dim_port(router, dim, dst_coord)),
                        PortRef(dst, self.dim_port(dst, dim, coords[dim])),
                        ChannelKind.LOCAL,
                        latency=self.local_latency,
                    )

    def describe(self) -> str:
        dims = "x".join(str(m) for m in self.group_dims)
        return (
            f"dragonfly_fb_group(p={self.p}, dims={dims}, h={self.h}, g={self.g}): "
            f"N={self.num_terminals}, k={self.radix}, k'={self.effective_radix}"
        )
