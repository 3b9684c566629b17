"""Reference oracles the engine tests compare against (test helper).

None of these runs inside a simulation: each reads an engine module's
private state or re-derives what the engine computed another way.

* :func:`python_state` hands a :class:`VectorizedMT19937` stream back
  to a :class:`random.Random` at the exact position it reached, and
  :func:`getrandbits` draws one scalar ``getrandbits`` from it.
* :func:`memoised_minimal_plan` and :func:`memoised_valiant_plan` name
  the interned :class:`RoutePlan` a decision on a single-link dragonfly
  stands for.
* :class:`KernelKeys` encodes a :class:`RoutePlan` as its stage keys in
  the dragonfly's :class:`~repro.routing.paths.HopTable`, and decodes a
  decision's keys back into the plan they stand for.
* :func:`first_divergence` runs both engines in lockstep and names the
  first cycle and state field at which they split.
* :func:`count_line_events` runs a simulator and counts the Python
  lines the package executes on the way: the interpreter-overhead
  measure of an engine's per-cycle work.
* :func:`check_invariants` raises on any structural flow-control
  violation of a simulator's state, at any cycle.
* :func:`minimal_hop_count` derives a minimal route's length from each
  topology's geometry, for the routing traces to be checked against.
* :class:`ZeroCongestion` is a congestion view with every queue empty,
  and :func:`plan_hops` counts a dragonfly plan's channel hops from its
  links, for the routing tests.
* :func:`max_vc_used`, :func:`dead_terminals` and
  :func:`smallest_balanced_for` re-derive, from traces, a fault set and
  the parameter algebra, what the certifier and topology tests check.
"""

from __future__ import annotations

import os
import random
import sys
from typing import Callable, List, Optional, Tuple

import repro
from repro.check.sanitizer import structural_findings
from repro.core.params import DragonflyParams, TopologyError
from repro.network.backend import make_simulator
from repro.network.decide_kernel import _N, VectorizedMT19937
from repro.network.packet import RoutePlan
from repro.network.simulator import SimulatorStateError
from repro.routing.paths import _minimal_plan_between, _valiant_plan_between
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.torus import Torus


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


def getrandbits(stream: VectorizedMT19937, k: int) -> int:
    """Scalar ``getrandbits(k)`` for ``0 < k <= 32`` from ``stream``."""
    if not 0 < k <= 32:
        raise ValueError("k must be in (0, 32]")
    return stream.next_word() >> (32 - k)


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
# Kernel stage keys
# ----------------------------------------------------------------------
class KernelKeys:
    """Plans as their stage keys in a dragonfly's ``HopTable`` and back.

    Written from the table's documented layout (final stages, then three
    stages per global link) rather than from ``batch_decide``'s per-pair
    arithmetic, so the two can be checked against each other.
    """

    def __init__(self, topology, table) -> None:
        self.topology = topology
        self.table = table
        self.links = [
            next(
                link for link in topology.global_links_of(src)
                if link.src_port == port
            )
            for src, port in zip(table.link_src.tolist(), table.link_port.tolist())
        ]
        self._index = {
            (link.src_router, link.src_port): j for j, link in enumerate(self.links)
        }

    def keys(self, plan, dst_terminal: int) -> Tuple[int, ...]:
        """The plan's keys, indexed by progress like ``DragonflyHops.keys``."""
        table = self.table
        final = int(table.final_keys[self.topology.terminal_router(dst_terminal)])
        if plan.gc1 is None:
            return (final,)
        first = self._index[plan.gc1.src_router, plan.gc1.src_port]
        keys = [int(table.link_keys[first, 0 if plan.minimal else 1])]
        if plan.gc2 is not None:
            second = self._index[plan.gc2.src_router, plan.gc2.src_port]
            keys.append(int(table.link_keys[second, 2]))
        return (*keys, final)

    def _stage(self, key: int, router: int) -> Tuple[int, int]:
        """(link index, stage kind) of the link stage ``key`` names at
        ``router``; raises on a final-stage key."""
        stage = (int(key) + router) // self.topology.a
        routers = self.topology.fabric.num_routers
        if stage < routers:
            raise ValueError(f"key {key} at router {router} is a final stage")
        return divmod(stage - routers, 3)

    def plan(self, keys, src_router: int, dst_terminal: int, minimal: bool):
        """The plan a decision's keys stand for (decided at ``src_router``
        for ``dst_terminal``), checking every key names a stage routed by
        the router the flit is at when it reads it."""
        a = self.topology.a
        dest = self.topology.terminal_router(dst_terminal)
        if (int(keys[0]) + src_router) // a == dest:
            if not minimal:
                raise ValueError("an intra-group decision is minimal")
            return RoutePlan(minimal=True)
        first, kind = self._stage(keys[0], src_router)
        gc1 = self.links[first]
        if kind == 0:
            if not minimal:
                raise ValueError("minimal stage key on a non-minimal decision")
            final = keys[1]
            plan = RoutePlan(minimal=True, gc1=gc1)
        else:
            second, kind2 = self._stage(keys[1], gc1.dst_router)
            if (kind, kind2, minimal) != (1, 2, False):
                raise ValueError(f"keys {tuple(keys)} are no Valiant plan")
            final = keys[2]
            plan = RoutePlan(minimal=False, gc1=gc1, gc2=self.links[second])
        if (int(final) + dest) // a != dest:
            raise ValueError(f"final key {final} is not router {dest}'s")
        return plan


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
        ("outstanding_tagged", sim._outstanding_tagged),
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


# ----------------------------------------------------------------------
# Interpreter work
# ----------------------------------------------------------------------
#: Source files of the package (``.../repro/``); numpy, the standard
#: library and the tests are not counted.
_PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def count_line_events(sim) -> Tuple[object, int]:
    """``(sim.run(), line events)``: the ``sys.settrace`` ``line`` events
    raised in frames of the package's own source files during the run.

    Each event is one executed Python line of the package -- an engine
    phase's bookkeeping or one array operation -- so events per
    simulated cycle count the interpreter work a cycle costs, exactly
    and on every machine alike (for one CPython version: the compiler
    decides where a statement's line events fall).
    """
    events = 0

    def on_line(frame, event, arg):
        nonlocal events
        if event == "line":
            events += 1
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            return on_line
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = sim.run()
    finally:
        sys.settrace(previous)
    return result, events


# ----------------------------------------------------------------------
# Certifier, fault-set and parameter-algebra helpers
# ----------------------------------------------------------------------
def max_vc_used(traces) -> int:
    """Highest VC index any non-ejection hop of any trace uses."""
    highest = 0
    for trace in traces:
        for _, _, vc in trace[:-1] if trace else []:
            highest = max(highest, vc)
    return highest


def dead_terminals(faults, topology) -> List[int]:
    """Terminals attached to ``faults``' dead routers (unreachable by
    any table)."""
    return [
        t for t in range(topology.num_terminals)
        if faults.router_dead(topology.terminal_router(t))
    ]


def smallest_balanced_for(num_terminals: int) -> DragonflyParams:
    """Smallest balanced dragonfly with at least ``num_terminals``."""
    if num_terminals < 1:
        raise TopologyError("num_terminals must be >= 1")
    h = 1
    while DragonflyParams.balanced(h).num_terminals < num_terminals:
        h += 1
    return DragonflyParams.balanced(h)


def check_invariants(sim) -> None:
    """Flow-control invariants of either engine; raises
    :class:`SimulatorStateError` on violation.

    Callable at any cycle, including mid-run: buffer occupancies stay
    within the configured depth, credit counters stay in range,
    per-output pending counters match the queues, and the active set
    mirrors the pending counters.  These are the structural subset
    (SAN001/SAN004) of the conservation sanitizer; the full
    cross-structure laws run under ``REPRO_SANITIZE=1``.
    """
    findings = structural_findings(sim)
    if findings:
        raise SimulatorStateError("\n".join(finding.format() for finding in findings))


def minimal_hop_count(topology, src_terminal: int, dst_terminal: int) -> int:
    """Router-to-router channel traversals of the minimal route."""
    src = topology.fabric.terminals[src_terminal].router
    dst = topology.fabric.terminals[dst_terminal].router
    if isinstance(topology, Dragonfly):
        if src == dst:
            return 0
        src_group, dst_group = topology.group_of(src), topology.group_of(dst)
        if src_group == dst_group:
            return 1
        links = topology.group_links(src_group, dst_group)
        if not links:
            raise TopologyError(f"groups {src_group} and {dst_group} are not connected")
        return min(
            1 + (link.src_router != src) + (link.dst_router != dst) for link in links
        )
    if isinstance(topology, FlattenedButterfly):
        # Dimension-order minimal routing: the Hamming distance.
        return sum(
            1 for s, d in zip(topology.coords_of(src), topology.coords_of(dst)) if s != d
        )
    if isinstance(topology, Torus):
        # Dimension-order minimal routing: the ring distances.
        hops = 0
        for s, d, m in zip(topology.coords_of(src), topology.coords_of(dst), topology.dims):
            hops += min(abs(s - d), m - abs(s - d))
        return hops
    if isinstance(topology, FoldedClos):
        if src == dst:
            return 0
        # Up to the nearest common ancestor (the highest differing
        # digit + 1) and back down.
        src_digits, dst_digits = topology._digits(src), topology._digits(dst)
        highest = 0
        for i in range(topology.levels - 1):
            if src_digits[i] != dst_digits[i]:
                highest = i + 1
        return 2 * highest
    raise TypeError(f"no minimal hop count for {type(topology).__name__}")


class ZeroCongestion:
    """A congestion view that always reports empty queues."""

    def output_occupancy(self, router: int, out_port: int) -> int:
        return 0

    def output_vc_occupancy(self, router: int, out_port: int, vc: int) -> int:
        return 0


def plan_hops(topology, src_router: int, dst_terminal: int, plan: RoutePlan) -> int:
    """Router-to-router channel traversals of a dragonfly plan."""
    dst_router = topology.terminal_router(dst_terminal)
    hops = 0
    position = src_router
    for link in (plan.gc1, plan.gc2):
        if link is None:
            continue
        if position != link.src_router:
            hops += 1  # local hop to the channel's source router
        hops += 1  # the global channel
        position = link.dst_router
    if position != dst_router:
        hops += 1  # final local hop
    return hops
