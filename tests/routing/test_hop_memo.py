"""The hop memo equals the executor, hop for hop.

The simulator reaches every hop through a routing's hop memo
(:class:`repro.routing.base.HopMemo`): the dragonfly's
:class:`~repro.routing.paths.DragonflyHops` and the table routings'
:class:`~repro.routing.tables.TableRoutes`.  For every route a lowering
enumerates, walking the memo from the plan's stage keys must reproduce
the lowering's stored executor walk hop for hop (the degraded dragonfly,
which has no executor, its certified table walk): on shared plans (the
72-terminal dragonfly), on fresh plans (a dragonfly without
``single_link_pairs``), and on one small size per family.

The array engine reads the same stages from the dragonfly's dense
:class:`~repro.routing.paths.HopTable`: each row equals the memo's
entry, the table holds exactly the memo's keys, and walking it from a
plan's kernel keys reproduces the executor walk too.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

from hop_walk import memo_walk, table_walk
from oracles import KernelKeys, memoised_minimal_plan, memoised_valiant_plan
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.packet import RoutePlan
from repro.network.parallel import SweepExecutor
from repro.network.simulator import Simulator
from repro.network.sweep import load_sweep
from repro.network.traffic import make_pattern
from repro.routing import vc_assignment as vcs
from repro.routing.paths import DragonflyHops
from repro.routing.tables import (
    ClosLowering,
    DragonflyLowering,
    FbLowering,
    TableRouting,
    TableRoutes,
    TorusLowering,
    canonical_degraded_lowering,
    VariantLowering,
)
from repro.routing.ugal import make_routing
import repro.topology
from repro.topology.base import state_without_memos
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly
from repro.topology.torus import Torus


def _dragonfly(params):
    return DragonflyLowering(Dragonfly(params), vcs.CANONICAL, include_nonminimal=True)


LOWERINGS = {
    "dragonfly72": lambda: _dragonfly(DragonflyParams.paper_example_72()),
    "dragonfly-fresh-plans": lambda: _dragonfly(DragonflyParams(2, 4, 2, 5)),
    "dragonfly-nonmax": lambda: _dragonfly(
        DragonflyParams(p=1, a=2, h=2, num_groups=3)
    ),
    "degraded-gc2": lambda: make_routing("TBL-MIN/gc2").lowering(
        Dragonfly(DragonflyParams(p=1, a=3, h=2, num_groups=5))
    ),
    "variant": lambda: VariantLowering(
        FlattenedButterflyGroupDragonfly(p=1, group_dims=(2, 2), h=1),
        vcs.CANONICAL, include_nonminimal=True,
    ),
    "fb": lambda: FbLowering(FlattenedButterfly(dims=(3, 3), concentration=1)),
    "torus": lambda: TorusLowering(Torus(dims=(3, 4), concentration=1), True),
    "clos": lambda: ClosLowering(FoldedClos(num_terminals=16, radix=4)),
}
DRAGONFLIES = ["dragonfly72", "dragonfly-fresh-plans", "dragonfly-nonmax"]

#: The hop table's dragonflies: 72 terminals, ``(p, a, h, g) = (1, 2,
#: 2, 3)`` (two links per group pair), and the paper's 1056 terminals.
#: There the walks are the minimal lowering's 278 784 routes: with
#: Valiant routes it enumerates ~8.6 million, so the Valiant rows are
#: covered row by row (``test_hop_table_is_the_filled_memo``).
TABLE_PARAMS = {
    "dragonfly72": DragonflyParams.paper_example_72(),
    "dragonfly-nonmax": DragonflyParams(p=1, a=2, h=2, num_groups=3),
    "paper1k": DragonflyParams.paper_1k(),
}


def _assert_memo_reproduces(memo, lowering, reference):
    """Two passes over every route: the first fills the memo, the second
    reads back only stored hops."""
    topology = lowering.topology
    for _ in range(2):
        for index, (_label, src_router, dst_terminal, plan) in enumerate(
            lowering.routes()
        ):
            walk = memo_walk(memo, topology, src_router, dst_terminal, plan)
            assert tuple(walk) == reference[index], (src_router, dst_terminal, plan)


@pytest.mark.parametrize("name", sorted(LOWERINGS))
def test_table_memo_walks_the_certified_walks(name):
    """``TableRoutes`` (every table routing) against the executor walk
    and the certifier's table walk; UGAL's candidate query agrees with
    both."""
    lowering = LOWERINGS[name]()
    routes = TableRoutes(lowering)
    terminal_router = lowering.topology.terminal_router
    table_walks = []
    for _label, src_router, dst_terminal, plan in lowering.routes():
        dest = terminal_router(dst_terminal)
        walk = routes.walker.walk(src_router, dst_terminal, lowering.legs(plan, dest))
        table_walks.append(tuple(walk))
        port, vc, hops = routes.candidate(plan, src_router, dest)
        assert hops == len(walk) - 1
        assert (port, vc) == (walk[0][1:] if hops else (-1, 0))
    if hasattr(lowering, "next_hop"):
        walks = lowering.walks
        assert [walks.walk(index) for index in range(len(walks))] == table_walks
    _assert_memo_reproduces(routes, lowering, table_walks)


@pytest.mark.parametrize("name", DRAGONFLIES)
def test_dragonfly_memo_walks_the_executor_walks(name):
    """``DragonflyHops`` (MIN, VAL and the UGAL family) against the
    stored ``paths.next_hop`` walks; UGAL's candidate query is the
    walk's first hop and channel hop count."""
    lowering = LOWERINGS[name]()
    topology = lowering.topology
    memo = make_routing("UGAL-L").hop_memo(topology)
    assert isinstance(memo, DragonflyHops)
    walks = lowering.walks
    reference = [walks.walk(index) for index in range(len(walks))]
    _assert_memo_reproduces(memo, lowering, reference)
    for index, (_label, src_router, dst_terminal, plan) in enumerate(
        lowering.routes()
    ):
        if plan.gc1 is not None:
            port, vc, hops = memo.candidate(
                plan, src_router, topology.terminal_router(dst_terminal)
            )
            assert (src_router, port, vc) == reference[index][0]
            assert hops == len(reference[index]) - 1


@pytest.mark.parametrize("name", sorted(TABLE_PARAMS))
def test_hop_table_walks_the_executor_walks(name):
    """Every route of the dragonfly's lowering, walked through the hop
    table from the plan's kernel keys, is the stored executor walk."""
    topology = Dragonfly(TABLE_PARAMS[name])
    lowering = DragonflyLowering(
        topology, vcs.CANONICAL, include_nonminimal=name != "paper1k"
    )
    table = make_routing("UGAL-L").hop_memo(topology).table
    oracle = KernelKeys(topology, table)
    walks = lowering.walks
    count = 0
    for index, (_label, src_router, dst_terminal, plan) in enumerate(
        lowering.routes()
    ):
        keys = oracle.keys(plan, dst_terminal)
        walk = table_walk(table, topology, keys, src_router, dst_terminal)
        assert tuple(walk) == walks.walk(index), (src_router, dst_terminal, plan)
        count += 1
    assert count == len(walks) > 0


@pytest.mark.parametrize("name", sorted(TABLE_PARAMS))
def test_hop_table_is_the_filled_memo(name):
    """Each table row is the memo's entry at the same stage and router,
    and once ``fill`` has stored every stage key the memo holds exactly
    as many entries as the table has rows."""
    topology = Dragonfly(TABLE_PARAMS[name])
    memo = DragonflyHops(topology)
    table = memo.table
    oracle = KernelKeys(topology, table)
    a = topology.a
    stages = []  # (plan, progress, dst_terminal): one per table stage
    for dest in range(topology.fabric.num_routers):
        dst_terminal = dest * topology.p
        assert topology.terminal_router(dst_terminal) == dest
        stages.append((RoutePlan(minimal=True), 0, dst_terminal))
    for link in oracle.links:
        stages.append((RoutePlan(minimal=True, gc1=link), 0, 0))
        valiant = RoutePlan(minimal=False, gc1=link, gc2=link)
        stages.extend([(valiant, 0, 0), (valiant, 1, 0)])
    assert len(stages) * a == len(table.hops)
    for stage, (plan, progress, dst_terminal) in enumerate(stages):
        group = (
            dst_terminal // topology.p // a if plan.gc1 is None
            else plan.gc1.src_router // a
        )
        kernel_key = oracle.keys(plan, dst_terminal)[progress]
        memo_key = memo.keys(plan, group * a, dst_terminal)[progress]
        assert kernel_key == stage * a - group * a
        for router in range(group * a, group * a + a):
            want = memo.fill(memo_key + router, plan, progress, router, dst_terminal)
            assert tuple(table.hops[kernel_key + router].tolist()) == want, (
                stage, router,
            )
    assert len(memo.hops) == len(table.hops)


def test_shared_plans_walk_like_fresh_ones():
    """On the 72-terminal dragonfly decisions hand out the topology's
    memoised plan objects; they walk exactly like equal fresh plans."""
    lowering = LOWERINGS["dragonfly72"]()
    topology = lowering.topology
    assert topology.single_link_pairs
    memo = make_routing("MIN").hop_memo(topology)
    group_of = topology.group_of
    for _label, src_router, dst_terminal, plan in lowering.routes():
        src_group = group_of(src_router)
        dst_group = group_of(topology.terminal_router(dst_terminal))
        if plan.gc1 is None:
            continue
        if plan.gc2 is None:
            shared = memoised_minimal_plan(topology, src_group, dst_group)
        else:
            shared = memoised_valiant_plan(
                topology, src_group, plan.gc1.dst_group, dst_group
            )
        assert shared == plan and shared is not plan
        assert memo.keys(shared, src_router, dst_terminal) == memo.keys(
            plan, src_router, dst_terminal
        )
        assert memo_walk(memo, topology, src_router, dst_terminal, shared) == (
            memo_walk(memo, topology, src_router, dst_terminal, plan)
        )


def test_routing_memos_are_not_pickled():
    """Compiled tables, hop memos and route plans stay out of a pickled
    topology: one keyed by a family's lambda lowering leaves it
    picklable, and a pooled sweep after in-process runs ships no memo to
    its workers."""
    config = SimulationConfig(
        load=0.2, seed=5, warmup_cycles=100, measure_cycles=100,
        drain_max_cycles=2000,
    )
    fb = FlattenedButterfly(dims=(3, 3), concentration=1)
    pattern = make_pattern("uniform_random", fb)
    routing = make_routing("FB-UGAL-L")
    Simulator(fb, routing, pattern, config).run()
    assert routing.hop_memo(fb).hops
    assert not routing.hop_memo(pickle.loads(pickle.dumps(fb))).hops

    paper72 = Dragonfly(DragonflyParams.paper_example_72())
    fresh_size = len(pickle.dumps(paper72))
    pattern = make_pattern("uniform_random", paper72)
    for routing in (
        make_routing("VAL"),
        make_routing("UGAL-L"),
        TableRouting("MIN", lambda t: canonical_degraded_lowering(t, 0)),
    ):
        Simulator(paper72, routing, pattern, config).run()
    assert make_routing("MIN").hop_memo(paper72).hops
    # Nor do the minimal and Valiant plans the runs memoised: the pickle
    # is byte for byte the size of the fresh topology's.
    assert len(pickle.dumps(paper72)) == fresh_size
    executor = SweepExecutor(workers=2)
    points = load_sweep(
        paper72, "MIN", "uniform_random", (0.1, 0.2), config, executor=executor
    )
    assert executor.stats["fallbacks"] == 0
    assert executor.last_fallback_error is None
    fresh = load_sweep(
        Dragonfly(DragonflyParams.paper_example_72()), "MIN", "uniform_random",
        (0.1, 0.2), config,
    )
    assert [p.result.to_dict() for p in points] == [
        p.result.to_dict() for p in fresh
    ]


def test_every_topology_class_pickles_without_memos():
    """Each topology class keeps the routing memos out of its pickle
    through :func:`~repro.topology.base.state_without_memos`; a new
    class that forgets the hook would ship its plans and tables to every
    sweep worker."""
    topologies = [
        cls
        for info in pkgutil.iter_modules(repro.topology.__path__)
        for _, cls in inspect.getmembers(
            importlib.import_module(f"repro.topology.{info.name}"), inspect.isclass
        )
        if cls.__module__.startswith("repro.topology.")
        and hasattr(cls, "terminal_router")
    ]
    assert {cls.__name__ for cls in topologies} >= {
        "Dragonfly", "FlattenedButterfly", "FoldedClos",
        "FlattenedButterflyGroupDragonfly", "Torus",
    }
    assert [
        cls.__name__ for cls in topologies
        if cls.__getstate__ is not state_without_memos
    ] == []
