"""Property: compiled tables replay the algorithmic executor exactly.

For random small dragonfly and flattened-butterfly shapes, every
enumerable route case -- minimal and Valiant, every global-link and
intermediate choice -- must walk through the compiled tables with a
hop-for-hop identical (router, out_port, out_vc) trace to the family's
algorithmic executor.  This is the semantic core of the tentpole: the
tables are a *lowering* of the routing code, not a reimplementation.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.core.params import DragonflyParams, TopologyError
from repro.routing import vc_assignment as vcs
from repro.routing.tables import DragonflyLowering, FbLowering, TableWalker
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly

SETTINGS = settings(max_examples=20, deadline=None)


def _valid_dragonfly_tuples():
    """Buildable (p, a, h) small enough to enumerate exhaustively."""
    valid = []
    for p in (1, 2):
        for a in (1, 2, 3):
            for h in (1, 2):
                try:
                    params = DragonflyParams(p=p, a=a, h=h)
                    if params.num_groups < 2 or params.num_groups > 8:
                        continue
                    Dragonfly(params)
                except (TopologyError, ValueError):
                    continue
                valid.append((p, a, h))
    assert valid
    return valid


FB_SHAPES = [(2, 2), (3, 2), (2, 2, 2), (4, 3)]


@functools.lru_cache(maxsize=None)
def _dragonfly_lowering(p, a, h, include_nonminimal):
    topology = Dragonfly(DragonflyParams(p=p, a=a, h=h))
    return (
        DragonflyLowering(
            topology, vcs.CANONICAL, include_nonminimal=include_nonminimal
        ),
        topology,
    )


@functools.lru_cache(maxsize=None)
def _fb_lowering(dims):
    topology = FlattenedButterfly(dims=dims, concentration=1)
    return FbLowering(topology), topology


def assert_cases_match(lowering, topology):
    walker = TableWalker(topology, lowering.compile())
    checked = 0
    for case in lowering.cases():
        walk = walker.walk(case.src_router, case.dst_terminal, case.legs)
        assert tuple(walk) == case.algorithmic, case.label
        checked += 1
    assert checked > 0


@given(
    shape=st.sampled_from(_valid_dragonfly_tuples()),
    include_nonminimal=st.booleans(),
)
@SETTINGS
def test_dragonfly_tables_replay_executor(shape, include_nonminimal):
    # MIN-only compilations cover the MIN executor; non-minimal ones add
    # every Valiant (gc1, mid, gc2) choice the UGAL family selects from.
    lowering, topology = _dragonfly_lowering(*shape, include_nonminimal)
    assert_cases_match(lowering, topology)


@given(dims=st.sampled_from(FB_SHAPES))
@SETTINGS
def test_fb_tables_replay_executor(dims):
    # FB cases cover DOR minimal and router-Valiant two-phase routes.
    lowering, topology = _fb_lowering(dims)
    assert_cases_match(lowering, topology)
