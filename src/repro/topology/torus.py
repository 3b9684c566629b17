"""k-ary n-cube (torus) topology.

Used as the low-radix cost baseline of the paper (Figure 19), modelled on
the Cray T3E-style 3-D torus.  Each router sits at a coordinate of an
``m_1 x .. x m_n`` grid, carries ``c`` terminals, and connects to its two
neighbours (+1/-1, wrapping) in every dimension.

Router radix: ``k = c + 2n``.  All cables are short and electrical --
the torus' cost problem is the *number* of cables and routers needed to
supply bisection bandwidth, not their length.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .base import ChannelKind, Fabric, PortRef, state_without_memos


class Torus:
    """Concrete k-ary n-cube fabric with coordinate helpers.

    Port layout::

        [0, c)                      terminal ports
        c + 2*d                     "plus" neighbour in dimension d
        c + 2*d + 1                 "minus" neighbour in dimension d
    """

    __getstate__ = state_without_memos

    def __init__(
        self,
        dims: Sequence[int],
        concentration: int,
        link_latency: int = 1,
    ) -> None:
        if not dims or any(m < 2 for m in dims):
            raise ValueError(f"torus dimensions must all be >= 2, got {dims}")
        if concentration < 1:
            raise ValueError("concentration must be >= 1")
        self.dims: Tuple[int, ...] = tuple(dims)
        self.concentration = concentration
        self.num_routers = 1
        for m in self.dims:
            self.num_routers *= m
        self.fabric = Fabric(num_routers=self.num_routers, name="torus")
        self._link_latency = link_latency
        #: Ejection latency used by the simulator (interface shared with
        #: the dragonfly).
        self.terminal_latency = 1
        self._build()

    @property
    def radix(self) -> int:
        return self.concentration + 2 * len(self.dims)

    @property
    def num_terminals(self) -> int:
        return self.concentration * self.num_routers

    def coords_of(self, router: int) -> Tuple[int, ...]:
        coords = []
        rest = router
        for m in reversed(self.dims):
            coords.append(rest % m)
            rest //= m
        return tuple(reversed(coords))

    def router_at(self, coords: Sequence[int]) -> int:
        router = 0
        for coord, m in zip(coords, self.dims):
            if not (0 <= coord < m):
                raise ValueError(f"coordinate {coord} out of range for size {m}")
            router = router * m + coord
        return router

    def plus_port(self, dim: int) -> int:
        return self.concentration + 2 * dim

    def minus_port(self, dim: int) -> int:
        return self.concentration + 2 * dim + 1

    def _build(self) -> None:
        for router in range(self.num_routers):
            for port in range(self.concentration):
                self.fabric.add_terminal(router=router, port=port)
        for dim, m in enumerate(self.dims):
            for router in range(self.num_routers):
                coords = self.coords_of(router)
                dst_coords = list(coords)
                dst_coords[dim] = (coords[dim] + 1) % m
                dst = self.router_at(dst_coords)
                if m == 2 and coords[dim] == 1:
                    continue  # size-2 rings have a single cable
                self.fabric.connect(
                    PortRef(router, self.plus_port(dim)),
                    PortRef(dst, self.minus_port(dim)),
                    ChannelKind.LOCAL,
                    latency=self._link_latency,
                )
        self.fabric.validate()

    def terminal_router(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].router

    def terminal_port(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].port

    def describe(self) -> str:
        dims = "x".join(str(m) for m in self.dims)
        return f"torus(dims={dims}, c={self.concentration}): N={self.num_terminals}, k={self.radix}"
