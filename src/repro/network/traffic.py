"""Synthetic traffic patterns (Section 4.2).

Every pattern is a callable object mapping a source terminal to a
destination terminal, possibly randomised per call.  The two patterns the
paper evaluates are:

* **uniform random (UR)** -- benign; minimal routing suffices.
* **worst-case (WC)** -- adversarial: every node in group ``G_i`` sends
  to a random node in group ``G_{i+1}``, so minimal routing funnels all
  of a group's traffic onto the single global channel to the next group.

Additional standard patterns (tornado, bit complement, transpose, shift,
hotspot, fixed permutation) are provided for wider evaluation.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Protocol

from ..topology.dragonfly import Dragonfly


class TrafficPattern(Protocol):
    """Destination selector: ``pattern(src_terminal) -> dst_terminal``."""

    name: str

    def __call__(self, src_terminal: int) -> int: ...


class UniformRandom:
    """Each packet goes to a uniformly random terminal other than the source."""

    name = "uniform_random"

    def __init__(self, num_terminals: int, seed: int = 1) -> None:
        if num_terminals < 2:
            raise ValueError("uniform random traffic needs >= 2 terminals")
        self.num_terminals = num_terminals
        self._rng = random.Random(seed)

    def __call__(self, src_terminal: int) -> int:
        # Inlined ``randrange`` (state-identical rejection sampling, see
        # Random._randbelow_with_getrandbits): one draw per packet makes
        # the call overhead measurable at scale.
        n = self.num_terminals - 1
        getrandbits = self._rng.getrandbits
        k = n.bit_length()
        dst = getrandbits(k)
        while dst >= n:
            dst = getrandbits(k)
        return dst if dst < src_terminal else dst + 1


class WorstCase:
    """Adversarial group-to-next-group traffic (the paper's WC pattern)."""

    name = "worst_case"

    def __init__(self, topology, seed: int = 1, group_offset: int = 1) -> None:
        if topology.g < 2:
            raise ValueError("worst-case traffic needs >= 2 groups")
        if group_offset % topology.g == 0:
            raise ValueError("group_offset must not map a group to itself")
        self.topology = topology
        self.group_offset = group_offset
        self._rng = random.Random(seed)
        self._per_group = topology.terminals_per_group

    def __call__(self, src_terminal: int) -> int:
        per_group = self._per_group
        src_group = src_terminal // per_group
        dst_group = (src_group + self.group_offset) % self.topology.g
        # Inlined ``randrange`` (state-identical, see UniformRandom).
        getrandbits = self._rng.getrandbits
        k = per_group.bit_length()
        r = getrandbits(k)
        while r >= per_group:
            r = getrandbits(k)
        return dst_group * per_group + r


class GroupTornado:
    """Group-level tornado: group ``i`` sends to group ``i + ceil(g/2)``."""

    name = "group_tornado"

    def __init__(self, topology: Dragonfly, seed: int = 1) -> None:
        if topology.g < 2:
            raise ValueError("tornado traffic needs >= 2 groups")
        offset = (topology.g + 1) // 2
        self._inner = WorstCase(topology, seed=seed, group_offset=offset)

    def __call__(self, src_terminal: int) -> int:
        return self._inner(src_terminal)


class BitComplement:
    """Destination is the bitwise complement of the source index.

    Requires a power-of-two terminal count.
    """

    name = "bit_complement"

    def __init__(self, num_terminals: int) -> None:
        if num_terminals < 2 or num_terminals & (num_terminals - 1):
            raise ValueError("bit complement requires a power-of-two N")
        self.mask = num_terminals - 1

    def __call__(self, src_terminal: int) -> int:
        return src_terminal ^ self.mask


class Transpose:
    """Matrix-transpose permutation; requires ``N`` a perfect square."""

    name = "transpose"

    def __init__(self, num_terminals: int) -> None:
        side = int(round(num_terminals**0.5))
        if side * side != num_terminals:
            raise ValueError("transpose requires a square terminal count")
        self.side = side

    def __call__(self, src_terminal: int) -> int:
        row, col = divmod(src_terminal, self.side)
        return col * self.side + row


class Shift:
    """Fixed shift by ``offset`` terminals, wrapping around."""

    name = "shift"

    def __init__(self, num_terminals: int, offset: int) -> None:
        if offset % num_terminals == 0:
            raise ValueError("shift offset must not map a terminal to itself")
        self.num_terminals = num_terminals
        self.offset = offset

    def __call__(self, src_terminal: int) -> int:
        return (src_terminal + self.offset) % self.num_terminals


class Hotspot:
    """A fraction of traffic targets one hot terminal, rest is uniform."""

    name = "hotspot"

    def __init__(
        self,
        num_terminals: int,
        hot_terminal: int = 0,
        hot_fraction: float = 0.2,
        seed: int = 1,
    ) -> None:
        if not (0.0 < hot_fraction <= 1.0):
            raise ValueError("hot_fraction must be in (0, 1]")
        if not (0 <= hot_terminal < num_terminals):
            raise ValueError("hot_terminal out of range")
        self.hot_terminal = hot_terminal
        self.hot_fraction = hot_fraction
        self._uniform = UniformRandom(num_terminals, seed=seed)
        self._rng = random.Random(seed + 1)

    def __call__(self, src_terminal: int) -> int:
        if self._rng.random() < self.hot_fraction and src_terminal != self.hot_terminal:
            return self.hot_terminal
        return self._uniform(src_terminal)


class FbAdversarial:
    """Adversarial pattern for a flattened butterfly (extension).

    Every router sends to the router whose coordinate in one dimension
    (the last by default) is shifted by +1 -- the DOR analogue of the
    dragonfly's worst case: all of a router's traffic funnels onto one
    channel of that dimension, so minimal routing caps at ``1/c`` of
    capacity while adaptive/non-minimal routing spreads it.
    """

    name = "fb_adversarial"

    def __init__(self, topology, seed: int = 1, dim: int = -1) -> None:
        from ..topology.flattened_butterfly import FlattenedButterfly

        if not isinstance(topology, FlattenedButterfly):
            raise TypeError("FbAdversarial requires a FlattenedButterfly")
        num_dims = len(topology.dims)
        dim = dim % num_dims
        if topology.dims[dim] < 2:
            raise ValueError("adversarial dimension must have size >= 2")
        self.topology = topology
        self.dim = dim
        self._rng = random.Random(seed)

    def __call__(self, src_terminal: int) -> int:
        topology = self.topology
        src_router = topology.terminal_router(src_terminal)
        coords = list(topology.coords_of(src_router))
        coords[self.dim] = (coords[self.dim] + 1) % topology.dims[self.dim]
        dst_router = topology.router_at(coords)
        concentration = topology.concentration
        return dst_router * concentration + self._rng.randrange(concentration)


class TorusTornado:
    """Tornado pattern on a torus (extension).

    Every router sends to the router nearly half way around its dim-0
    ring -- the classic adversary for minimal routing on tori (all
    traffic circulates one way, loading each ring link ~(m-1)/2-fold).
    """

    name = "torus_tornado"

    def __init__(self, topology, seed: int = 1, dim: int = 0) -> None:
        from ..topology.torus import Torus

        if not isinstance(topology, Torus):
            raise TypeError("TorusTornado requires a Torus")
        dim = dim % len(topology.dims)
        if topology.dims[dim] < 3:
            raise ValueError("tornado needs a ring of size >= 3")
        self.topology = topology
        self.dim = dim
        self.offset = (topology.dims[dim] - 1) // 2
        self._rng = random.Random(seed)

    def __call__(self, src_terminal: int) -> int:
        topology = self.topology
        src_router = topology.terminal_router(src_terminal)
        coords = list(topology.coords_of(src_router))
        coords[self.dim] = (coords[self.dim] + self.offset) % topology.dims[self.dim]
        dst_router = topology.router_at(coords)
        concentration = topology.concentration
        return dst_router * concentration + self._rng.randrange(concentration)


class BurstyInterGroup:
    """Bursty inter-group traffic: each source streams to one random
    remote group for a burst, then redraws.

    Every source keeps a current destination group (never its own) and
    sends ``burst_length`` consecutive packets into it, choosing a
    uniformly random terminal inside the group per packet, before
    redrawing the group.  The result is adversarial in a way uniform
    random is not -- during a burst a source's minimal path pins the one
    global channel towards its burst group -- while still shifting the
    load around, so adaptive routing's per-packet decisions flip
    mid-stream.  Built as a decide-heavy stressor for the batched
    route-decision kernel: group popularity (and hence the UGAL queue
    comparison) changes on burst boundaries rather than per packet.
    """

    name = "bursty"

    def __init__(self, topology, seed: int = 1, burst_length: int = 8) -> None:
        if topology.g < 2:
            raise ValueError("bursty inter-group traffic needs >= 2 groups")
        if burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        self.topology = topology
        self.burst_length = burst_length
        self._rng = random.Random(seed)
        self._per_group = topology.terminals_per_group
        # Per-source burst state, created lazily on first send so the
        # RNG stream depends only on the order of draws, not on N.
        self._burst_group: Dict[int, int] = {}
        self._remaining: Dict[int, int] = {}

    def __call__(self, src_terminal: int) -> int:
        per_group = self._per_group
        g = self.topology.g
        left = self._remaining.get(src_terminal, 0)
        if left == 0:
            # Redraw the burst group: uniform over the g-1 other groups
            # (inlined randrange, state-identical to UniformRandom).
            src_group = src_terminal // per_group
            n = g - 1
            getrandbits = self._rng.getrandbits
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            self._burst_group[src_terminal] = r if r < src_group else r + 1
            left = self.burst_length
        self._remaining[src_terminal] = left - 1
        dst_group = self._burst_group[src_terminal]
        getrandbits = self._rng.getrandbits
        k = per_group.bit_length()
        r = getrandbits(k)
        while r >= per_group:
            r = getrandbits(k)
        return dst_group * per_group + r


class RandomPermutation:
    """A fixed random permutation drawn once at construction."""

    name = "random_permutation"

    def __init__(self, num_terminals: int, seed: int = 1) -> None:
        rng = random.Random(seed)
        perm = list(range(num_terminals))
        rng.shuffle(perm)
        # Remove fixed points by rotating them onto a neighbour.
        for i in range(num_terminals):
            if perm[i] == i:
                j = (i + 1) % num_terminals
                perm[i], perm[j] = perm[j], perm[i]
        self.perm = perm

    def __call__(self, src_terminal: int) -> int:
        return self.perm[src_terminal]


#: Pattern name -> ``factory(topology, num_terminals, seed, kwargs)``: the
#: one table of the names the experiment registry and sweep manifests use.
_FACTORIES: Dict[str, Callable[..., TrafficPattern]] = {
    "uniform_random": lambda t, n, seed, kw: UniformRandom(n, seed=seed),
    "worst_case": lambda t, n, seed, kw: WorstCase(t, seed=seed, **kw),
    "group_tornado": lambda t, n, seed, kw: GroupTornado(t, seed=seed),
    "bit_complement": lambda t, n, seed, kw: BitComplement(n),
    "transpose": lambda t, n, seed, kw: Transpose(n),
    "shift": lambda t, n, seed, kw: Shift(n, **kw) if kw else Shift(n, offset=n // 2),
    "hotspot": lambda t, n, seed, kw: Hotspot(n, seed=seed, **kw),
    "random_permutation": lambda t, n, seed, kw: RandomPermutation(n, seed=seed),
    "bursty": lambda t, n, seed, kw: BurstyInterGroup(t, seed=seed, **kw),
    "fb_adversarial": lambda t, n, seed, kw: FbAdversarial(t, seed=seed, **kw),
    "torus_tornado": lambda t, n, seed, kw: TorusTornado(t, seed=seed, **kw),
}


def pattern_factory(name: str) -> Callable[..., TrafficPattern]:
    """The factory registered under ``name``; a :class:`ValueError`
    listing the choices for a name that is not a traffic pattern."""
    if name not in _FACTORIES:
        raise ValueError(f"unknown traffic pattern {name!r}; choose from {sorted(_FACTORIES)}")
    return _FACTORIES[name]


def make_pattern(
    name: str,
    topology,
    seed: int = 1,
    **kwargs: object,
) -> TrafficPattern:
    """Factory by name; the names the experiment registry uses.

    ``topology`` is a dragonfly for the paper's patterns; the
    uniform/shift/hotspot/permutation families only need
    ``num_terminals`` and work on any topology, and ``fb_adversarial``
    requires a flattened butterfly.
    """
    return pattern_factory(name)(topology, topology.num_terminals, seed, kwargs)
