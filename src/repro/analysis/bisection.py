"""Bisection bandwidth analytics.

Channel counts across the worst-case even bipartition, both analytically
for the standard configurations and exactly (via max-flow-free counting
on the group graph) for concrete dragonflies.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..topology.dragonfly import Dragonfly


def dragonfly_group_bisection(topology: Dragonfly) -> int:
    """Global channels crossing the best balanced group bipartition.

    Exhaustive over group bipartitions for small ``g`` (<= 16), otherwise
    uses the contiguous split (exact for the symmetric maximum-size
    dragonfly, where every balanced split cuts the same channel count).
    """
    g = topology.g
    if g < 2:
        return 0
    half = g // 2

    def crossing(groups_a) -> int:
        set_a = set(groups_a)
        count = 0
        for group_i in set_a:
            for group_j in range(g):
                if group_j in set_a:
                    continue
                count += len(topology.group_links(group_i, group_j))
        return count

    if g <= 16:
        best: Optional[int] = None
        for combo in itertools.combinations(range(g), half):
            value = crossing(combo)
            best = value if best is None else min(best, value)
        return best if best is not None else 0
    return crossing(range(half))
