"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the cycle-accurate simulator.

    Defaults follow the paper's methodology (Section 4.2): single-flit
    packets, Bernoulli injection, 16-flit input buffers per VC, warm-up
    followed by a measurement window whose tagged packets are drained.
    """

    #: Offered load in flits/terminal/cycle (0 < load <= 1).
    load: float = 0.1
    #: Cycles of warm-up before measurement starts.
    warmup_cycles: int = 1000
    #: Length of the measurement window in cycles.
    measure_cycles: int = 1000
    #: Upper bound on cycles spent draining tagged packets; exceeding it
    #: marks the run as saturated.
    drain_max_cycles: int = 100_000
    #: Input buffer depth per (port, VC) in flits.
    vc_buffer_depth: int = 16
    #: Virtual channels per port (3 suffices for non-minimal routing).
    num_vcs: int = 3
    #: Packet size in flits (1 = the paper's default; >1 uses virtual
    #: cut-through allocation).
    packet_size: int = 1
    #: RNG seed for traffic and tie-breaking.
    seed: int = 1
    #: Router pipeline depth in cycles, added to every router-to-router
    #: hop (the paper's routers are multi-cycle pipelines; ours default
    #: to the single-cycle idealisation).  Raising it shifts zero-load
    #: latency by (hops x pipeline) without changing any throughput
    #: result; the credit round-trip baseline accounts for it.
    router_pipeline_cycles: int = 0
    #: Request-reply protocol traffic (Section 4.1's protocol-deadlock
    #: remark): every delivered request spawns a reply back to its
    #: source, carried on a *separate VC class* (VCs 3..5) so replies can
    #: never be blocked behind requests.  Requires ``num_vcs >= 6``.
    #: Latency samples then measure the full round trip.
    request_reply: bool = False
    #: Bulk-synchronous mode: when set, every terminal creates exactly
    #: this many packets at cycle 0 and the run ends when all of them
    #: have been delivered (completion time = ``total_cycles``).  The
    #: warm-up/measurement windows are ignored; ``drain_max_cycles``
    #: still bounds the run.  The differential corpus's ``bulk`` and
    #: ``waves-bulk`` blocks use it to keep every source queue full
    #: from cycle 0.
    packets_per_terminal: Optional[int] = None
    #: Gain applied to the credit-delay backpressure of UGAL-L_CR:
    #: credits are delayed by ``gain * (t_d(O) - min_o t_d(o))``.  Gain 1
    #: is the paper's formula verbatim; larger gains stiffen backpressure
    #: further, emulating proportionally shallower buffers (the paper's
    #: "appearance of shallower buffers") -- see the ablation benchmark.
    credit_delay_gain: float = 4.0

    def __post_init__(self) -> None:
        if not (0.0 < self.load <= 1.0):
            raise ValueError(f"load must be in (0, 1], got {self.load}")
        if self.warmup_cycles < 0 or self.measure_cycles < 1:
            raise ValueError("invalid warmup/measurement window")
        if self.drain_max_cycles < 0:
            raise ValueError(
                f"drain_max_cycles must be >= 0, got {self.drain_max_cycles}"
            )
        if self.vc_buffer_depth < 1:
            raise ValueError("vc_buffer_depth must be >= 1")
        if self.num_vcs < 3:
            raise ValueError("non-minimal dragonfly routing needs >= 3 VCs")
        if self.packet_size < 1:
            raise ValueError("packet_size must be >= 1")
        if self.packet_size > self.vc_buffer_depth:
            raise ValueError(
                "virtual cut-through needs vc_buffer_depth >= packet_size"
            )
        if self.credit_delay_gain < 0:
            raise ValueError("credit_delay_gain must be >= 0")
        if self.packets_per_terminal is not None and self.packets_per_terminal < 1:
            raise ValueError("packets_per_terminal must be >= 1 when set")
        if self.router_pipeline_cycles < 0:
            raise ValueError("router_pipeline_cycles must be >= 0")
        if self.request_reply and self.num_vcs < 6:
            raise ValueError(
                "request-reply traffic needs num_vcs >= 6 (two VC classes)"
            )

    def with_load(self, load: float) -> "SimulationConfig":
        return replace(self, load=load)

