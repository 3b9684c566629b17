"""Reference oracles the engine tests compare against (test helper).

None of these runs inside a simulation: each reads an engine module's
private state or re-derives what the engine computed another way.

* :func:`python_state` hands a :class:`VectorizedMT19937` stream back
  to a :class:`random.Random` at the exact position it reached.
* :func:`memoised_minimal_plan` and :func:`memoised_valiant_plan` name
  the interned :class:`RoutePlan` a decision on a single-link dragonfly
  stands for.
* :func:`first_divergence` runs both engines in lockstep and names the
  first cycle and state field at which they split.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.core.params import TopologyError
from repro.network.backend import make_simulator
from repro.network.decide_kernel import _N, VectorizedMT19937
from repro.routing.paths import _minimal_plan_between, _valiant_plan_between


# ----------------------------------------------------------------------
# Mersenne-Twister hand-back
# ----------------------------------------------------------------------
def python_state(stream: VectorizedMT19937) -> tuple:
    """State tuple accepted by :meth:`random.Random.setstate`: the
    inverse of :meth:`VectorizedMT19937.from_python_rng`.  The bit
    generator stands at the end of the current block, so the position
    is ``_N`` minus the words not consumed yet."""
    key = stream._bits.state["state"]["key"]
    return (3, tuple(int(w) for w in key) + (_N - stream._rest.shape[0],), None)


# ----------------------------------------------------------------------
# Interned route plans
# ----------------------------------------------------------------------
#: Stand-in rng for memoised-plan lookups that provably consume no
#: randomness (single-link group pairs leave ``_pick_best_link`` no tie
#: to break).
_NO_RNG = random.Random(0)


def _require_single_links(topology) -> None:
    if not getattr(topology, "single_link_pairs", False):
        raise TopologyError(
            "memoised plans require exactly one global link per group pair"
        )


def memoised_minimal_plan(topology, src_group: int, dst_group: int):
    """The unique minimal plan for an ordered group pair: the interned
    object of the per-topology memo that ``_minimal_plan_between``
    populates, so it is the very plan a decision hands out."""
    _require_single_links(topology)
    link = topology.group_links(src_group, dst_group)[0]
    return _minimal_plan_between(
        topology, _NO_RNG, link.src_router, link.dst_router,
        src_group, dst_group,
    )


def memoised_valiant_plan(
    topology, src_group: int, intermediate_group: int, dst_group: int
):
    """The unique non-degenerate Valiant plan for an ordered group
    triple; the intermediate group differs from both endpoints."""
    _require_single_links(topology)
    link = topology.group_links(src_group, intermediate_group)[0]
    return _valiant_plan_between(
        topology, _NO_RNG, link.src_router,
        topology.group_links(intermediate_group, dst_group)[0].dst_router,
        src_group, dst_group, intermediate_group,
    )


# ----------------------------------------------------------------------
# Lockstep divergence diagnostics
# ----------------------------------------------------------------------
def _as_tuple(seq) -> Tuple[int, ...]:
    return tuple(int(value) for value in seq)


def state_fingerprint(sim) -> List[Tuple[str, object]]:
    """Cheap per-cycle digest of engine state, field by field, read
    through the backend-neutral state view."""
    view = sim.state_view()
    return [
        ("packet_counter", view.packet_counter),
        ("flits_delivered", view.flits_delivered),
        ("outstanding_tagged", view.outstanding_tagged),
        ("samples", len(view.samples)),
        ("buf_count", _as_tuple(view.buf_count)),
        ("credits", _as_tuple(view.credits)),
        ("pending", _as_tuple(view.pending)),
        ("pending_vc", _as_tuple(view.pending_vc)),
        ("rr_vc", _as_tuple(view.rr_vc)),
        ("source_depths", tuple(view.source_depths)),
        (
            "arrival_ring",
            tuple(len(batch) for batch in view.arrival_ring),
        ),
        ("credit_ring", tuple(len(batch) for batch in view.credit_ring)),
    ]


def first_divergence(
    topology,
    routing_factory: Callable[[], object],
    pattern_factory: Callable[[], Callable[[int], int]],
    config,
    max_cycles: Optional[int] = None,
) -> Optional[Tuple[int, str, object, object]]:
    """Run both backends in lockstep and locate the first state split.

    Returns ``(cycle, field, scalar_value, array_value)`` for the first
    cycle after which any fingerprinted engine field differs, or
    ``None`` when the two engines stay in lockstep for the whole run.
    Each backend gets its own freshly built routing and pattern so RNG
    streams start identically.  It re-simulates at one-cycle
    granularity and is far slower than a plain run.
    """
    scalar = make_simulator(
        topology, routing_factory(), pattern_factory(), config, backend="scalar"
    )
    array = make_simulator(
        topology, routing_factory(), pattern_factory(), config, backend="array"
    )
    limit = (
        scalar._measure_end + config.drain_max_cycles
        if max_cycles is None
        else max_cycles
    )
    for now in range(limit):
        for sim in (scalar, array):
            sim.now = now
            sim._deliver_arrivals(now)
            sim._deliver_credits(now)
            sim._inject(now)
            sim._switch()
        for (field, left), (_, right) in zip(
            state_fingerprint(scalar), state_fingerprint(array)
        ):
            if left != right:
                return now, field, left, right
        if (
            now >= scalar._measure_end
            and scalar._outstanding_tagged == 0
            and array._outstanding_tagged == 0
        ):
            break
    return None
