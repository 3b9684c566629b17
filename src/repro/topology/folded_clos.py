"""Folded-Clos (fat-tree) topology.

The dragonfly paper uses the folded Clos [Clos 1953, Leiserson 1985] as a
cost baseline: an indirect network built from radix-``k`` switches in
``L`` levels, with half the ports of each switch facing down and half
facing up (the top level uses only its down ports).  Full bisection
bandwidth is provided: every level boundary carries the full injection
bandwidth of the terminals below it.

This module builds the uniform-level folded Clos: with ``d = k/2`` ports
per direction, every level has ``d^(L-1)`` switches and the network
supports ``N = d^L`` terminals using ``L * d^(L-1)`` switches.  (The cost
model in :mod:`repro.cost` additionally knows the paper's half-top-level
optimisation analytically.)
"""

from __future__ import annotations

from typing import List

from .base import ChannelKind, Fabric, PortRef, Topology


def levels_required(num_terminals: int, radix: int) -> int:
    """Minimum level count for a folded Clos of ``N`` terminals."""
    if radix < 2 or radix % 2 != 0:
        raise ValueError("folded Clos requires an even radix >= 2")
    if num_terminals < 1:
        raise ValueError("num_terminals must be >= 1")
    down = radix // 2
    levels = 1
    capacity = down
    while capacity < num_terminals:
        levels += 1
        capacity *= down
    return levels


class FoldedClos(Topology):
    """A concrete folded-Clos fabric.

    Levels run from 0 (leaves, terminals attached) to ``levels - 1``
    (roots).  Between adjacent levels switches are wired in the standard
    butterfly pattern: the level-``l`` switch with base-``d`` digit vector
    ``D`` connects its up port ``u`` to the level-``l+1`` switch whose
    digits equal ``D`` with digit ``l`` replaced by ``u``, arriving on
    that switch's down port ``D[l]``.  Folding pairs each up cable with
    the corresponding down cable into one bidirectional link.

    Port layout of every switch: down ports ``[0, d)`` (terminals at the
    leaves), up ports ``[d, 2d)`` (unused at the top level).
    """

    def __init__(
        self,
        num_terminals: int,
        radix: int,
        local_latency: int = 1,
        global_latency: int = 1,
    ) -> None:
        if radix < 2 or radix % 2 != 0:
            raise ValueError("folded Clos requires an even radix >= 2")
        down = radix // 2
        self.radix = radix
        self.down = down
        self.levels = levels_required(num_terminals, radix)
        self.switches_per_level = down ** (self.levels - 1)
        self.capacity = down**self.levels
        if num_terminals != self.capacity:
            raise ValueError(
                f"num_terminals={num_terminals} must equal d^L={self.capacity} "
                f"for a full fabric (use the analytic cost model for partial "
                f"configurations)"
            )
        self.num_terminals = num_terminals
        self.num_switches = self.levels * self.switches_per_level
        self.fabric = Fabric(num_routers=self.num_switches, name="folded_clos")
        self.local_latency = local_latency
        self.global_latency = global_latency
        self._build()

    def switch_id(self, level: int, index: int) -> int:
        if not (0 <= level < self.levels):
            raise ValueError(f"level {level} out of range")
        if not (0 <= index < self.switches_per_level):
            raise ValueError(f"index {index} out of range at level {level}")
        return level * self.switches_per_level + index

    def _digits(self, index: int) -> List[int]:
        digits = []
        rest = index
        for _ in range(self.levels - 1):
            digits.append(rest % self.down)
            rest //= self.down
        return digits

    def _undigits(self, digits: List[int]) -> int:
        value = 0
        for i, digit in enumerate(digits):
            value += digit * self.down**i
        return value

    def _build(self) -> None:
        down = self.down
        for leaf in range(self.switches_per_level):
            switch = self.switch_id(0, leaf)
            for port in range(down):
                self.fabric.add_terminal(router=switch, port=port)
        for level in range(self.levels - 1):
            kind = ChannelKind.LOCAL if level == 0 else ChannelKind.GLOBAL
            latency = (
                self.local_latency if kind == ChannelKind.LOCAL else self.global_latency
            )
            for index in range(self.switches_per_level):
                src = self.switch_id(level, index)
                digits = self._digits(index)
                for up in range(down):
                    dst_digits = list(digits)
                    dst_digits[level] = up
                    dst = self.switch_id(level + 1, self._undigits(dst_digits))
                    self.fabric.connect(
                        PortRef(src, down + up),
                        PortRef(dst, digits[level]),
                        kind,
                        latency=latency,
                    )
        self.fabric.validate()

    def level_of(self, switch: int) -> int:
        return switch // self.switches_per_level

    def index_of(self, switch: int) -> int:
        return switch % self.switches_per_level

    def digits_of_leaf(self, leaf_index: int) -> List[int]:
        """Base-``d`` digits of a leaf index (digit ``l`` selects the
        level-``l`` up/down branch)."""
        return self._digits(leaf_index)

    def ancestor_level(self, src_leaf: int, dst_leaf: int) -> int:
        """Nearest-common-ancestor level of two leaves."""
        if src_leaf == dst_leaf:
            return 0
        src_digits = self._digits(src_leaf)
        dst_digits = self._digits(dst_leaf)
        highest = 0
        for i in range(self.levels - 1):
            if src_digits[i] != dst_digits[i]:
                highest = i + 1
        return highest

    def describe(self) -> str:
        return (
            f"folded_clos(N={self.num_terminals}, k={self.radix}, "
            f"levels={self.levels}, switches={self.num_switches})"
        )
