"""Flattened butterfly topology (Kim, Dally, Abts -- ISCA 2007).

The dragonfly paper uses the flattened butterfly both as the intra-group
network (a 1-D flattened butterfly *is* a completely-connected network)
and as the primary cost-comparison baseline.  An ``n``-dimensional
flattened butterfly with dimension sizes ``m_1 .. m_n`` and concentration
``c`` places a router at every coordinate of the ``m_1 x .. x m_n`` grid,
attaches ``c`` terminals to each, and completely connects every
1-D sub-line of every dimension.

Router radix: ``k = c + sum_i (m_i - 1)``.

Port layout::

    [0, c)                          terminal ports
    then for each dimension d:      m_d - 1 ports to the other routers
                                    sharing all coordinates except d
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .base import ChannelKind, Fabric, PortRef, state_without_memos


class FlattenedButterfly:
    """Concrete flattened butterfly fabric with coordinate helpers."""

    __getstate__ = state_without_memos

    def __init__(
        self,
        dims: Sequence[int],
        concentration: int,
        local_latency: int = 1,
        global_latency: int = 1,
        global_dims: Sequence[int] = (),
    ) -> None:
        """Build the fabric.

        Parameters
        ----------
        dims:
            Size of each dimension, e.g. ``(16, 16, 16)``.
        concentration:
            Terminals per router (``c``).
        global_dims:
            Indices of dimensions whose channels are long/inter-cabinet
            (marked :class:`ChannelKind.GLOBAL` for the cost model).  The
            convention of the paper's Figure 18 is that dimension 1 is
            intra-cabinet and higher dimensions are global.
        """
        if not dims or any(m < 1 for m in dims):
            raise ValueError(f"invalid dimension sizes {dims}")
        if concentration < 1:
            raise ValueError("concentration must be >= 1")
        self.dims: Tuple[int, ...] = tuple(dims)
        self.concentration = concentration
        self.global_dims = frozenset(global_dims)
        self.num_routers = 1
        for m in self.dims:
            self.num_routers *= m
        self.fabric = Fabric(num_routers=self.num_routers, name="flattened_butterfly")
        self._local_latency = local_latency
        self._global_latency = global_latency
        #: Ejection latency used by the simulator (interface shared with
        #: the dragonfly).
        self.terminal_latency = 1
        self._dim_port_base = self._compute_port_bases()
        self._build()

    # ------------------------------------------------------------------
    # Coordinates
    # ------------------------------------------------------------------
    def _compute_port_bases(self) -> List[int]:
        bases = []
        base = self.concentration
        for m in self.dims:
            bases.append(base)
            base += m - 1
        return bases

    @property
    def radix(self) -> int:
        return self.concentration + sum(m - 1 for m in self.dims)

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

    def dim_port(self, router: int, dim: int, dst_coord: int) -> int:
        """Port of ``router`` toward coordinate ``dst_coord`` in ``dim``."""
        src_coord = self.coords_of(router)[dim]
        if src_coord == dst_coord:
            raise ValueError("no channel from a router to itself")
        offset = dst_coord if dst_coord < src_coord else dst_coord - 1
        return self._dim_port_base[dim] + offset

    def terminal_router(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].router

    def terminal_port(self, terminal: int) -> int:
        return self.fabric.terminals[terminal].port

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        for router in range(self.num_routers):
            for port in range(self.concentration):
                self.fabric.add_terminal(router=router, port=port)
        for dim, m in enumerate(self.dims):
            kind = (
                ChannelKind.GLOBAL if dim in self.global_dims else ChannelKind.LOCAL
            )
            latency = (
                self._global_latency if dim in self.global_dims else self._local_latency
            )
            for router in range(self.num_routers):
                coords = self.coords_of(router)
                for dst_coord in range(coords[dim] + 1, m):
                    dst_coords = list(coords)
                    dst_coords[dim] = dst_coord
                    dst = self.router_at(dst_coords)
                    self.fabric.connect(
                        PortRef(router, self.dim_port(router, dim, dst_coord)),
                        PortRef(dst, self.dim_port(dst, dim, coords[dim])),
                        kind,
                        latency=latency,
                    )
        self.fabric.validate()

    def describe(self) -> str:
        dims = "x".join(str(m) for m in self.dims)
        return (
            f"flattened_butterfly(dims={dims}, c={self.concentration}): "
            f"N={self.num_terminals}, k={self.radix}"
        )
