"""Property tests shared by every topology builder.

Whatever the family, a built fabric must be connected, respect its radix
budget, pair every directed channel with its reverse, and agree with its
own analytic channel-count formulas.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import DragonflyParams
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly
from repro.topology.torus import Torus


@st.composite
def any_topology(draw):
    family = draw(st.sampled_from(["dragonfly", "fb", "clos", "torus", "variant"]))
    if family == "dragonfly":
        h = draw(st.integers(min_value=1, max_value=2))
        a = draw(st.integers(min_value=2, max_value=4))
        p = draw(st.integers(min_value=1, max_value=2))
        return Dragonfly(DragonflyParams(p=p, a=a, h=h))
    if family == "fb":
        dims = tuple(
            draw(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=2))
        )
        c = draw(st.integers(min_value=1, max_value=3))
        return FlattenedButterfly(dims=dims, concentration=c)
    if family == "clos":
        radix = draw(st.sampled_from([4, 8]))
        levels = draw(st.integers(min_value=1, max_value=3))
        return FoldedClos(num_terminals=(radix // 2) ** levels, radix=radix)
    if family == "torus":
        dims = tuple(
            draw(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3))
        )
        c = draw(st.integers(min_value=1, max_value=2))
        return Torus(dims=dims, concentration=c)
    h = draw(st.integers(min_value=1, max_value=2))
    dims = tuple(
        draw(st.lists(st.integers(min_value=2, max_value=2), min_size=1, max_size=3))
    )
    g = draw(st.integers(min_value=1, max_value=3))
    a = 1
    for m in dims:
        a *= m
    if g > 1 and (g * a * h) % 2:
        g = max(1, g - 1)
    g = min(g, a * h + 1)
    return FlattenedButterflyGroupDragonfly(p=1, group_dims=dims, h=h, num_groups=g)


@given(any_topology())
@settings(max_examples=40, deadline=None)
def test_fabric_connected(topology):
    fabric = topology.fabric
    if fabric.num_routers > 1:
        assert fabric.unreachable_router() is None


@given(any_topology())
@settings(max_examples=40, deadline=None)
def test_channels_come_in_reverse_pairs(topology):
    fabric = topology.fabric
    assert fabric.num_channels % 2 == 0
    for forward, backward in fabric.bidirectional_links():
        assert forward.src == backward.dst
        assert forward.dst == backward.src
        assert forward.kind == backward.kind
        assert forward.latency == backward.latency


@given(any_topology())
@settings(max_examples=40, deadline=None)
def test_every_terminal_has_unique_port(topology):
    fabric = topology.fabric
    seen = set()
    for terminal in fabric.terminals:
        key = (terminal.router, terminal.port)
        assert key not in seen
        seen.add(key)
        assert fabric.is_terminal_port(terminal.router, terminal.port)


@given(any_topology())
@settings(max_examples=40, deadline=None)
def test_radix_budget_respected(topology):
    fabric = topology.fabric
    declared = getattr(topology, "radix", None)
    if declared is None:
        declared = topology.params.radix
    if callable(declared):
        declared = declared()
    assert fabric.max_radix() <= declared


@given(any_topology())
@settings(max_examples=40, deadline=None)
def test_port_maps_are_bijective(topology):
    """out_channel/terminal_at partition every wired port."""
    fabric = topology.fabric
    for router in range(fabric.num_routers):
        for port in fabric.ports(router):
            channel = fabric.out_channel(router, port)
            terminal = fabric.terminal_at(router, port)
            assert (channel is None) != (terminal is None)
