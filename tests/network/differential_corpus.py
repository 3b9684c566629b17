"""The backend-differential corpus.

241 simulation configurations, generated programmatically, that the
scalar and array engines must agree on under the equivalence contract
(:func:`repro.network.backend.contract_for`).  The corpus is the
certification artifact for the array backend: it sweeps every routing
algorithm over benign and adversarial traffic on two topologies, and
covers every engine mode with its own block -- saturation, multi-flit
virtual cut-through, request-reply VC classes, bulk (fixed packet
count) termination, table-driven forwarding, seed variation, a
non-zero router pipeline, a decide-dominated block (adversarial +
bursty traffic, every UGAL variant, including the paper's 1056-node
shape) certifying the batched route-decision kernel, and a wave block
(every terminal deciding every cycle, single-slot buffers) certifying
the array engine's wave-ordered injection commit.

Kept importable on its own (no pytest dependency) so the harness, the
Hypothesis fuzzer and ad-hoc scripts can all iterate the same cases.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.routing import ALL_ROUTING_NAMES

#: Topology name -> constructor parameters.  ``tiny`` is the smallest
#: interesting dragonfly (N=6); ``paper72`` is the paper's Figure 5
#: example (N=72), big enough for distinct minimal/non-minimal paths.
TOPOLOGIES: Dict[str, DragonflyParams] = {
    "tiny": DragonflyParams(p=1, a=2, h=1),
    "paper72": DragonflyParams.paper_example_72(),
    # The smallest canonical shape with two terminals per router and
    # one global port per router (h=1, N=40): the "waves" block pairs it
    # with ``tiny`` so both degenerate dependency-domain sizes are run.
    "h1": DragonflyParams(p=2, a=4, h=1),
    # The paper's default scale (N=1056): the shape the decide kernel
    # exists for.  Only the "decide" block uses it -- with short
    # windows, so certification stays minutes, not hours.
    "paper1k": DragonflyParams.paper_1k(),
}

#: Short windows: the corpus certifies state-machine equivalence, not
#: steady-state statistics, so runs only need to be long enough to
#: exercise contention, backpressure and drain.
BASE_CONFIG = SimulationConfig(
    load=0.1,
    seed=7,
    warmup_cycles=30,
    measure_cycles=30,
    drain_max_cycles=1500,
)


@dataclasses.dataclass(frozen=True)
class DifferentialCase:
    """One corpus entry: everything needed to build matched runs."""

    case_id: str
    topology: str
    routing: str
    pattern: str
    config: SimulationConfig
    #: Wrap the routing in compiled forwarding tables
    #: (:class:`repro.routing.TableDrivenRouting`).
    table_driven: bool = False


def _config(**overrides) -> SimulationConfig:
    return dataclasses.replace(BASE_CONFIG, **overrides)


def _build_corpus() -> List[DifferentialCase]:
    cases: List[DifferentialCase] = []

    def add(
        block: str,
        topology: str,
        routing: str,
        pattern: str,
        config: SimulationConfig,
        table_driven: bool = False,
    ) -> None:
        case_id = (
            f"{block}-{topology}-{routing}-{pattern}"
            f"-load{config.load}-seed{config.seed}"
        )
        cases.append(
            DifferentialCase(
                case_id, topology, routing, pattern, config, table_driven
            )
        )

    # Block "core": every routing x benign/adversarial traffic on both
    # topologies at a light and a contended load.  2*7*2*2 = 56.
    for topology in ("tiny", "paper72"):
        for routing in ALL_ROUTING_NAMES:
            for pattern in ("uniform_random", "worst_case"):
                for load in (0.1, 0.4):
                    add(
                        "core", topology, routing, pattern,
                        _config(load=load),
                    )

    # Block "pattern": the remaining dragonfly-legal patterns, every
    # routing, light and contended.  7*4*2 = 56.  (transpose needs a
    # square terminal count and bit_complement a power-of-two one;
    # neither holds for N=6 or N=72.)
    for routing in ALL_ROUTING_NAMES:
        for pattern in (
            "random_permutation", "shift", "group_tornado", "hotspot",
        ):
            for load in (0.1, 0.3):
                add("pattern", "paper72", routing, pattern, _config(load=load))

    # Block "saturated": past saturation on the tiny topology, where
    # backpressure, credit starvation and the drain-limit exit dominate.
    # 7*2 = 14.
    for routing in ALL_ROUTING_NAMES:
        for pattern in ("uniform_random", "worst_case"):
            add(
                "saturated", "tiny", routing, pattern,
                _config(load=0.8, drain_max_cycles=800),
            )

    # Block "multiflit": virtual cut-through with 4-flit packets -- the
    # configurations whose contract is tolerance, not bit-identity.
    # 7*2 = 14.
    for routing in ALL_ROUTING_NAMES:
        for pattern in ("uniform_random", "worst_case"):
            add(
                "multiflit", "paper72", routing, pattern,
                _config(load=0.2, packet_size=4, drain_max_cycles=2500),
            )

    # Block "reqreply": two VC classes, replies injected at delivery.
    # 7*2 = 14.
    for routing in ALL_ROUTING_NAMES:
        for pattern in ("uniform_random", "worst_case"):
            add(
                "reqreply", "paper72", routing, pattern,
                _config(num_vcs=6, request_reply=True, drain_max_cycles=2500),
            )

    # Block "bulk": fixed packets-per-terminal termination instead of a
    # timed window.  2*7 = 14.
    for topology in ("tiny", "paper72"):
        for routing in ALL_ROUTING_NAMES:
            add(
                "bulk", topology, routing, "uniform_random",
                _config(
                    load=0.3, packets_per_terminal=20,
                    warmup_cycles=10, measure_cycles=10,
                ),
            )

    # Block "table": the same decisions routed through compiled
    # forwarding tables, which take the plan-cache/hop-key paths in the
    # arrival loop.  7 cases.
    for routing in ALL_ROUTING_NAMES:
        add(
            "table", "paper72", routing, "uniform_random",
            _config(load=0.2), table_driven=True,
        )

    # Block "pipeline": non-zero per-router pipeline latency.  3*2 = 6.
    for routing in ("MIN", "VAL", "UGAL-L"):
        for pattern in ("uniform_random", "worst_case"):
            add(
                "pipeline", "paper72", routing, pattern,
                _config(load=0.2, router_pipeline_cycles=2),
            )

    # Block "decide": decide-dominated certification for the batched
    # route-decision kernel.  Adversarial traffic keeps the UGAL
    # minimal/non-minimal comparison live (both queue reads matter and
    # Valiant draws burn the route RNG), and the bursty inter-group
    # pattern flips the congested group mid-run so table-lowered
    # first-hop decisions are exercised across many (source, dest-group)
    # pairs.  Every UGAL variant on paper72, 5*2 = 10; plus the paper's
    # 1056-node shape -- the scale the kernel exists for -- with short
    # windows so the scalar reference stays affordable.  5.
    ugal_variants = tuple(
        name for name in ALL_ROUTING_NAMES if name.startswith("UGAL")
    )
    for routing in ugal_variants:
        for pattern in ("worst_case", "bursty"):
            add("decide", "paper72", routing, pattern, _config(load=0.4))
    for routing in ugal_variants:
        add(
            "decide", "paper1k", routing, "worst_case",
            _config(
                load=0.3, warmup_cycles=10, measure_cycles=10,
                drain_max_cycles=800,
            ),
        )

    # Block "waves": as many same-domain deciders per cycle as the
    # model allows, for the array engine's wave-ordered commit.  At
    # load 1.0 every terminal creates a packet every cycle, so every
    # terminal of a router (of a group, for UGAL-G) decides in the same
    # cycle and each later one must see the earlier ones' injections;
    # request-reply adds reply heads interleaved with request heads;
    # bulk keeps every source queue non-empty from cycle 0; and
    # single-slot buffers block most heads, so pinned decisions are
    # retried next to fresh ones.  Every routing (MIN and VAL commit in
    # one wave; each UGAL signal has its own domain and read), 7*6 = 42.
    for routing in ALL_ROUTING_NAMES:
        full = _config(
            load=1.0, warmup_cycles=20, measure_cycles=20,
            drain_max_cycles=300,
        )
        add("waves", "paper72", routing, "worst_case", full)
        add(
            "waves-reqreply", "paper72", routing, "uniform_random",
            dataclasses.replace(full, num_vcs=6, request_reply=True),
        )
        add(
            "waves-bulk", "paper72", routing, "worst_case",
            dataclasses.replace(
                full, packets_per_terminal=12, vc_buffer_depth=2,
                drain_max_cycles=1500,
            ),
        )
        for topology in ("tiny", "h1", "paper72"):
            add(
                "waves-depth1", topology, routing, "uniform_random",
                dataclasses.replace(full, vc_buffer_depth=1),
            )

    # Block "seed": RNG-stream variation on one contended case.  3.
    for seed in (11, 12, 13):
        add(
            "seed", "paper72", "UGAL-L", "uniform_random",
            _config(load=0.2, seed=seed),
        )

    return cases


CORPUS: Tuple[DifferentialCase, ...] = tuple(_build_corpus())

# The corpus is a certification surface; its size is pinned so a block
# cannot silently shrink during a refactor.
assert len(CORPUS) == 241, f"corpus size drifted: {len(CORPUS)}"
assert len({case.case_id for case in CORPUS}) == len(CORPUS), (
    "duplicate corpus case ids"
)


def corpus_case(case_id: str) -> Optional[DifferentialCase]:
    """Look up one corpus entry by id (None when absent)."""
    for case in CORPUS:
        if case.case_id == case_id:
            return case
    return None
