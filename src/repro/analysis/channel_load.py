"""Analytic channel-load and throughput bounds (Section 4.2).

These closed forms are what the simulator's measured saturation points
are validated against.  The paper quotes the leading-order values (MIN
caps at ``1/(a h)`` on the worst case, VAL at "slightly under 50%"); the
exact expressions below include the finite-``g`` corrections our
implementation exhibits, and reduce to the paper's numbers as ``g``
grows:

* **MIN on WC**: all ``a p`` terminals of a group funnel over the
  channels to the next group -- throughput ``links / (a p)``.
* **VAL**: a packet crosses one global channel leaving its group and,
  unless the random intermediate group *is* the destination group
  (probability ``1/(g-1)``), a second one leaving the intermediate
  group; throughput = global capacity / expected global hops.
* **Ideal adaptive on WC**: mix minimal (1 hop on the direct channel)
  and non-minimal (2 hops elsewhere) optimally:
  ``theta = (ah + 1) / (2 ah)`` of capacity -- 0.5625 for the 72-node
  network, 0.531 at the paper's scale, -> 0.5 as ``ah -> inf``.
"""

from __future__ import annotations

from ..core.params import DragonflyParams


def min_worst_case_throughput(params: DragonflyParams) -> float:
    """Saturation throughput of MIN routing under WC traffic: the
    paper's ``1/(a h)`` for a balanced maximum-size network."""
    if params.g < 2:
        raise ValueError("worst-case traffic needs at least two groups")
    links = max(1, params.min_channels_between_group_pairs())
    return links / (params.a * params.p)


def _expected_valiant_global_hops_cross_traffic(params: DragonflyParams) -> float:
    """Expected global hops of a Valiant route between distinct groups.

    The intermediate group is uniform over the ``g - 1`` non-source
    groups; drawing the destination group degenerates to the minimal
    (single-hop) route.
    """
    g = params.g
    if g < 3:
        return 1.0
    return 2.0 - 1.0 / (g - 1)


def valiant_uniform_throughput(params: DragonflyParams) -> float:
    """VAL's UR capacity: global capacity / expected global hops.

    Uniform traffic crosses groups with probability
    ``(N - ap) / (N - 1)``; each crossing packet takes
    ``2 - 1/(g-1)`` global hops in expectation.  For large ``g`` this
    approaches the paper's "half of capacity".
    """
    n = params.num_terminals
    if n < 2 or params.g < 2:
        return 1.0
    p_cross = (n - params.terminals_per_group) / (n - 1)
    expected_hops = p_cross * _expected_valiant_global_hops_cross_traffic(params)
    if expected_hops <= 0:
        return 1.0
    return min(1.0, _global_capacity_per_node(params) / expected_hops)


def valiant_worst_case_throughput(params: DragonflyParams) -> float:
    """VAL's WC capacity: every packet crosses groups."""
    if params.g < 2:
        raise ValueError("worst-case traffic needs at least two groups")
    expected_hops = _expected_valiant_global_hops_cross_traffic(params)
    return min(1.0, _global_capacity_per_node(params) / expected_hops)


def _global_capacity_per_node(params: DragonflyParams) -> float:
    """Global channel bandwidth per terminal (1.0 for balanced)."""
    return params.h / params.p


def ugal_ideal_worst_case_throughput(params: DragonflyParams) -> float:
    """Optimal adaptive throughput on WC traffic.

    Send fraction ``m`` of each group's traffic minimally over the
    single direct channel and the rest non-minimally (two hops over the
    remaining ``ah - 1`` out-channels plus transit capacity).  Setting
    the direct channel exactly full gives
    ``theta = (ah + 1) / (2 ah)`` of per-node capacity -- the finite-size
    version of the paper's ~50%.
    """
    if params.g < 2:
        raise ValueError("worst-case traffic needs at least two groups")
    ah = params.a * params.h
    theta = (ah + 1) / (2 * ah)
    return min(1.0, theta * _global_capacity_per_node(params))
