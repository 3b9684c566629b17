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

This module builds such dragonflies: the inter-group wiring is identical
to the canonical topology; only the local wiring (and therefore the local
minimal path length, up to ``n`` hops per group) changes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from ..core.params import TopologyError
from .base import ChannelKind, Fabric, PortRef, state_without_memos
from .dragonfly import GlobalLink


class FlattenedButterflyGroupDragonfly:
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

    __getstate__ = state_without_memos

    def __init__(
        self,
        p: int,
        group_dims: Sequence[int],
        h: int,
        num_groups: int = 0,
        local_latency: int = 1,
        global_latency: int = 1,
    ) -> None:
        if p < 1 or h < 0:
            raise TopologyError("p must be >= 1 and h >= 0")
        if not group_dims or any(m < 1 for m in group_dims):
            raise TopologyError(f"invalid group dimensions {group_dims}")
        self.p = p
        self.h = h
        self.group_dims: Tuple[int, ...] = tuple(group_dims)
        self.a = 1
        for m in self.group_dims:
            self.a *= m
        max_groups = self.a * self.h + 1
        self.g = num_groups if num_groups else max_groups
        if self.g > max_groups:
            raise TopologyError(f"num_groups={self.g} exceeds a*h+1={max_groups}")
        if self.g > 1 and (self.g * self.a * self.h) % 2 != 0:
            raise TopologyError("g*a*h must be even to pair global channels")
        self.local_ports = sum(m - 1 for m in self.group_dims)
        self.radix = p + self.local_ports + h
        self.num_routers = self.a * self.g
        self.num_terminals = self.a * self.p * self.g
        #: Ejection latency used by the simulator (shared interface).
        self.terminal_latency = 1
        self.fabric = Fabric(self.num_routers, name="dragonfly_fb_group")
        self._local_latency = local_latency
        self._global_latency = global_latency
        self._dim_port_base = self._compute_port_bases()
        #: Local index -> coordinates (row-major), and the Hamming
        #: distance between every two local indices.
        self._coords: List[Tuple[int, ...]] = list(
            itertools.product(*(range(m) for m in self.group_dims))
        )
        self._local_hops: List[List[int]] = [
            [sum(s != d for s, d in zip(src, dst)) for dst in self._coords]
            for src in self._coords
        ]
        self._group_links: Dict[Tuple[int, int], List[GlobalLink]] = {}
        self._build()

    # ------------------------------------------------------------------
    @property
    def effective_radix(self) -> int:
        """Virtual-router radix ``k' = a (p + h)``."""
        return self.a * (self.p + self.h)

    def _compute_port_bases(self) -> List[int]:
        bases = []
        base = self.p
        for m in self.group_dims:
            bases.append(base)
            base += m - 1
        return bases

    def group_of(self, router: int) -> int:
        return router // self.a

    def local_index(self, router: int) -> int:
        return router % self.a

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

    def is_global_port(self, port: int) -> bool:
        return self.p + self.local_ports <= port < self.radix

    def global_port(self, slot: int) -> int:
        if not (0 <= slot < self.h):
            raise TopologyError(f"global slot {slot} out of range")
        return self.p + self.local_ports + slot

    def intra_group_hops(self, src_router: int, dst_router: int) -> int:
        """Hamming distance within the group's flattened butterfly."""
        return self._local_hops[self.local_index(src_router)][
            self.local_index(dst_router)
        ]

    def group_links(self, src_group: int, dst_group: int) -> List[GlobalLink]:
        return self._group_links.get((src_group, dst_group), [])

    @property
    def terminals_per_group(self) -> int:
        return self.a * self.p

    def terminal_router(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].router

    def terminal_port(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].port

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for router in range(self.num_routers):
            for port in range(self.p):
                self.fabric.add_terminal(router=router, port=port)
        for group in range(self.g):
            self._wire_group(group)
        if self.g > 1:
            self._wire_global()
        self.fabric.validate()

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
                        latency=self._local_latency,
                    )

    def _group_port_to_router_port(self, group: int, group_port: int) -> PortRef:
        local_router = group_port // self.h
        slot = group_port % self.h
        return PortRef(group * self.a + local_router, self.global_port(slot))

    def _record_global(self, src: PortRef, dst: PortRef) -> None:
        src_group, dst_group = self.group_of(src.router), self.group_of(dst.router)
        self._group_links.setdefault((src_group, dst_group), []).append(
            GlobalLink(src.router, src.port, dst.router, dst_group)
        )
        self._group_links.setdefault((dst_group, src_group), []).append(
            GlobalLink(dst.router, dst.port, src.router, src_group)
        )

    def _wire_global(self) -> None:
        if self.g == self.a * self.h + 1:
            for src_group in range(self.g):
                for group_port in range(self.a * self.h):
                    dst_group = group_port if group_port < src_group else group_port + 1
                    if dst_group < src_group:
                        continue
                    src = self._group_port_to_router_port(src_group, group_port)
                    dst = self._group_port_to_router_port(dst_group, src_group)
                    self.fabric.connect(
                        src, dst, ChannelKind.GLOBAL, latency=self._global_latency
                    )
                    self._record_global(src, dst)
            return
        free = {group: list(range(self.a * self.h)) for group in range(self.g)}
        pairs = [(i, j) for i in range(self.g) for j in range(i + 1, self.g)]
        wired = {pair: 0 for pair in pairs}
        # Balanced greedy (see Dragonfly._wire_global_distributed).
        while True:
            candidates = [
                pair for pair in pairs if free[pair[0]] and free[pair[1]]
            ]
            if not candidates:
                break
            i, j = min(
                candidates,
                key=lambda pair: (
                    wired[pair],
                    -(len(free[pair[0]]) + len(free[pair[1]])),
                    pair,
                ),
            )
            src = self._group_port_to_router_port(i, free[i].pop(0))
            dst = self._group_port_to_router_port(j, free[j].pop(0))
            self.fabric.connect(src, dst, ChannelKind.GLOBAL, latency=self._global_latency)
            self._record_global(src, dst)
            wired[(i, j)] += 1

    def describe(self) -> str:
        dims = "x".join(str(m) for m in self.group_dims)
        return (
            f"dragonfly_fb_group(p={self.p}, dims={dims}, h={self.h}, g={self.g}): "
            f"N={self.num_terminals}, k={self.radix}, k'={self.effective_radix}"
        )
