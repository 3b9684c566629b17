"""Walk a routing's hop memo, or the dragonfly's hop table, the way
the engines do (test helper)."""

from repro.core.params import TopologyError


def memo_walk(memo, topology, src_router, dst_terminal, plan):
    """The (router, out_port, out_vc) trace of ``plan`` through ``memo``,
    from the plan's stage keys to the ejection hop: every hop is
    ``hops[keys[progress] + router]``, filled on a miss."""
    fabric = topology.fabric
    keys = memo.keys(plan, src_router, dst_terminal)
    trace = []
    router, progress = src_router, 0
    for _ in range(fabric.num_routers + 2):
        key = keys[progress] + router
        hop = memo.hops.get(key)
        if hop is None:
            hop = memo.fill(key, plan, progress, router, dst_terminal)
        out_port, out_vc, advance = hop
        if out_port < 0:
            trace.append((router, topology.terminal_port(dst_terminal), 0))
            return trace
        trace.append((router, out_port, out_vc))
        progress += advance
        router = fabric.out_channel(router, out_port).dst.router
    raise TopologyError(f"memo walk under {plan!r} failed to terminate")


def table_walk(table, topology, keys, src_router, dst_terminal):
    """The (router, out_port, out_vc) trace of a plan's kernel ``keys``
    through a ``HopTable``, as the array engine walks it: every hop is
    the row ``hops[keys[progress] + router]``."""
    fabric = topology.fabric
    trace = []
    router, progress = src_router, 0
    for _ in range(fabric.num_routers + 2):
        out_port, out_vc, advance = table.hops[keys[progress] + router].tolist()
        if out_port < 0:
            trace.append((router, topology.terminal_port(dst_terminal), 0))
            return trace
        trace.append((router, out_port, out_vc))
        progress += advance
        router = fabric.out_channel(router, out_port).dst.router
    raise TopologyError(f"table walk of keys {keys} failed to terminate")
