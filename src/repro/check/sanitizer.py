"""Runtime conservation sanitizer for the flit-level simulator.

The simulator's hot path maintains redundant flattened state (buffer
counters, credit counters, pending counters, active-set bitmasks,
calendar-queue rings) precisely so each phase touches as little of it as
possible -- which means a single missed decrement silently corrupts a
run instead of crashing it.  This module audits the *global* conservation
laws those structures must jointly satisfy:

* **SAN001** -- every buffer occupancy and credit counter stays within
  ``[0, vc_buffer_depth]``;
* **SAN002** -- credit conservation: per network (channel, VC), free
  credits + flits buffered downstream + flits in flight on the channel
  + credits in flight back upstream always equals the buffer depth;
* **SAN003** -- flit conservation: every flit ever created is exactly
  one of queued-at-source, in mid-injection, buffered in a router, in
  flight on a channel, or delivered;
* **SAN004** -- active-set consistency: pending counters match queue
  contents, port bitmasks match pending counters, the active-router set
  matches the bitmasks, and the stream table matches the queues;
* **SAN005** -- calendar-ring / overflow-map consistency: overflow
  entries are strictly in the future and every scheduled event carries
  in-range indices.

The laws hold at phase boundaries of the run loop; the hooks in
:class:`~repro.network.simulator.Simulator` audit after the switch phase.
Everything is opt-in via ``REPRO_SANITIZE=1`` (stride configurable with
``REPRO_SANITIZE_STRIDE``, default 64 cycles; both are read by
:class:`repro.settings.Settings` and reach the simulator as an
argument) so the disabled-mode cost is one predicate per cycle.

Every check reads engine state through the backend-neutral
:meth:`~repro.network.simulator.Simulator.state_view`, never through
backend-private fields -- so the same audits run unchanged against the
scalar engine and the numpy array backend
(:mod:`repro.network.array_backend`), whose state view synthesises the
active-set answers that backend keeps only implicitly.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, List

from .report import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..network.simulator import Simulator, SimulatorStateView


class SanitizerError(RuntimeError):
    """A conservation law failed; ``findings`` holds the violations."""

    def __init__(self, findings: Iterable[Finding]) -> None:
        self.findings = list(findings)
        super().__init__(
            "\n".join(finding.format() for finding in self.findings)
        )


def _error(code: str, location: str, message: str) -> Finding:
    return Finding(
        code=code, severity=Severity.ERROR, location=location, message=message
    )


def _range_findings(view: "SimulatorStateView") -> List[Finding]:
    """SAN001: occupancy and credit counters within the buffer depth."""
    findings = []
    depth = view.depth
    rv = view.rv
    for slot, count in enumerate(view.buf_count):
        if not 0 <= count <= depth:
            router, index = divmod(slot, rv)
            findings.append(_error(
                "SAN001",
                f"router {router} input slot {index}",
                f"buffer occupancy {count} outside [0, {depth}]",
            ))
    for slot, count in enumerate(view.credits):
        if not 0 <= count <= depth:
            router, index = divmod(slot, rv)
            findings.append(_error(
                "SAN001",
                f"router {router} output slot {index}",
                f"credit counter {count} outside [0, {depth}]",
            ))
    return findings


def _inflight_credits(view: "SimulatorStateView") -> Counter:
    """Credits in flight upstream, keyed by the credit (output VC) slot."""
    inflight: Counter = Counter()
    for batch in view.credit_ring:
        for credit_idx, _ in batch:
            inflight[credit_idx] += 1
    for batch in view.credit_overflow.values():
        for credit_idx, _ in batch:
            inflight[credit_idx] += 1
    return inflight


def _inflight_arrivals(view: "SimulatorStateView") -> Counter:
    """Flits in flight on channels, keyed by the destination input slot."""
    inflight: Counter = Counter()
    for batch in view.arrival_ring:
        for _, in_idx, _flit in batch:
            inflight[in_idx] += 1
    return inflight


def _credit_findings(view: "SimulatorStateView") -> List[Finding]:
    """SAN002: per (network channel, VC) credit conservation.

    Each downstream input slot is fed by exactly one channel, so for
    every slot the four disjoint places a buffer's worth of capacity can
    be (free upstream credit, flit in flight downstream, flit buffered
    downstream, credit in flight upstream) must sum to the depth.
    """
    findings = []
    depth = view.depth
    radix = view.radix
    vcs = view.vcs
    credits = view.credits
    buf_count = view.buf_count
    credit_inflight = _inflight_credits(view)
    arrival_inflight = _inflight_arrivals(view)
    for router in range(view.num_routers):
        for port in view.network_ports[router]:
            p_idx = router * radix + port
            info = view.channel_info[p_idx]
            if info is None:
                continue
            dst_base = info[1]
            for vc in range(vcs):
                out_idx = p_idx * vcs + vc
                dst_slot = dst_base + vc
                total = (
                    credits[out_idx]
                    + buf_count[dst_slot]
                    + arrival_inflight[dst_slot]
                    + credit_inflight[out_idx]
                )
                if total != depth:
                    findings.append(_error(
                        "SAN002",
                        f"router {router} port {port} VC {vc}",
                        f"credit conservation violated: {credits[out_idx]} "
                        f"free + {buf_count[dst_slot]} buffered + "
                        f"{arrival_inflight[dst_slot]} arriving + "
                        f"{credit_inflight[out_idx]} credits in flight "
                        f"= {total}, expected depth {depth}",
                    ))
    return findings


def _flit_findings(view: "SimulatorStateView") -> List[Finding]:
    """SAN003: every flit ever created is in exactly one place."""
    findings = []
    packet_size = view.config.packet_size
    created = view.packet_counter * packet_size
    at_source = sum(view.source_depths) * packet_size
    mid_injection = sum(len(queue) for queue in view.inflight_injection)
    buffered = int(sum(view.buf_count))
    arriving = sum(len(batch) for batch in view.arrival_ring)
    delivered = view.flits_delivered
    total = at_source + mid_injection + buffered + arriving + delivered
    if total != created:
        findings.append(_error(
            "SAN003",
            "network",
            f"flit conservation violated: {at_source} at source + "
            f"{mid_injection} mid-injection + {buffered} buffered + "
            f"{arriving} arriving + {delivered} delivered = {total}, "
            f"expected {created} ({view.packet_counter} packets x "
            f"{packet_size} flits)",
        ))
    queued = int(sum(view.pending))
    if buffered != queued:
        findings.append(_error(
            "SAN003",
            "network",
            f"buffered flits ({buffered}) disagree with queued flits "
            f"({queued}): input-side and output-side accounting drifted",
        ))
    return findings


def _active_set_findings(view: "SimulatorStateView") -> List[Finding]:
    """SAN004: pending counters, bitmasks, active set and stream table."""
    findings = []
    radix = view.radix
    vcs = view.vcs
    rv = view.rv
    multi_flit = view.multi_flit
    out_q = view.out_q
    pending_vc = view.pending_vc
    pending = view.pending
    queued_streams = 0
    for router in range(view.num_routers):
        vbase = router * rv
        pbase = router * radix
        mask = 0
        for port in range(radix):
            queued = 0
            for vc in range(vcs):
                out_idx = vbase + port * vcs + vc
                queue = out_q[out_idx]
                if multi_flit:
                    queued_streams += len(queue)
                    in_queue = sum(len(stream.flits) for stream in queue)
                else:
                    in_queue = len(queue)
                if pending_vc[out_idx] != in_queue:
                    findings.append(_error(
                        "SAN004",
                        f"router {router} port {port} VC {vc}",
                        f"pending-VC counter {pending_vc[out_idx]} disagrees "
                        f"with {in_queue} queued flits",
                    ))
                queued += pending_vc[out_idx]
            if queued != pending[pbase + port]:
                findings.append(_error(
                    "SAN004",
                    f"router {router} port {port}",
                    f"pending counter {pending[pbase + port]} disagrees "
                    f"with per-VC sum {queued}",
                ))
            if queued > 0:
                mask |= 1 << port
        engine_mask = view.active_port_mask(router)
        if mask != engine_mask:
            findings.append(_error(
                "SAN004",
                f"router {router}",
                f"active port mask {engine_mask:#x} disagrees "
                f"with recomputed {mask:#x}",
            ))
        if view.router_marked_active(router) != bool(mask):
            findings.append(_error(
                "SAN004",
                f"router {router}",
                "active-router set disagrees with the port mask",
            ))
    if multi_flit and len(view.streams) != queued_streams:
        findings.append(_error(
            "SAN004",
            "network",
            f"stream table holds {len(view.streams)} open streams but the "
            f"output queues hold {queued_streams}",
        ))
    return findings


def _ring_findings(view: "SimulatorStateView") -> List[Finding]:
    """SAN005: calendar rings and the credit overflow map."""
    findings = []
    now = view.now
    slots = view.num_routers * view.rv
    ports = view.num_routers * view.radix
    for when, batch in sorted(view.credit_overflow.items()):
        if when <= now:
            findings.append(_error(
                "SAN005",
                f"credit overflow @{when}",
                f"stranded overflow entry at or before cycle {now}: the "
                "drain pass would never pop it",
            ))
        if not batch:
            findings.append(_error(
                "SAN005",
                f"credit overflow @{when}",
                "empty overflow batch kept alive in the map",
            ))
    for source in (view.credit_ring, view.credit_overflow.values()):
        for batch in source:
            for credit_idx, up_p_idx in batch:
                if not 0 <= credit_idx < slots or not 0 <= up_p_idx < ports:
                    findings.append(_error(
                        "SAN005",
                        "credit ring",
                        f"credit event ({credit_idx}, {up_p_idx}) outside "
                        f"the {slots}-slot / {ports}-port state",
                    ))
    for batch in view.arrival_ring:
        for dst_router, in_idx, _flit in batch:
            if not 0 <= dst_router < view.num_routers or not 0 <= in_idx < slots:
                findings.append(_error(
                    "SAN005",
                    "arrival ring",
                    f"arrival event (router {dst_router}, slot {in_idx}) "
                    f"outside the {view.num_routers}-router fabric",
                ))
    return findings


def structural_findings(sim: "Simulator") -> List[Finding]:
    """Counter-range and active-set checks (SAN001, SAN004) only.

    These hold between any two statements of the hot path that keep
    their structures in lockstep, so they are safe to check mid-run (the
    test suite's invariant check raises on exactly this subset).
    """
    view = sim.state_view()
    return _range_findings(view) + _active_set_findings(view)


def audit_simulator(sim: "Simulator") -> List[Finding]:
    """Every conservation law (SAN001-SAN005), valid at phase boundaries."""
    view = sim.state_view()
    return (
        _range_findings(view)
        + _credit_findings(view)
        + _flit_findings(view)
        + _active_set_findings(view)
        + _ring_findings(view)
    )


class SimulatorSanitizer:
    """Periodic auditor attached to a simulator run.

    ``maybe_audit`` runs the full audit every ``stride`` cycles and
    raises :class:`SanitizerError` as soon as any law is violated, so a
    corruption is localised to within one stride of its cause.
    """

    __slots__ = ("stride",)

    def __init__(self, stride: int) -> None:
        self.stride = stride
        if self.stride < 1:
            raise ValueError(f"sanitizer stride must be >= 1, got {self.stride}")

    def maybe_audit(self, sim: "Simulator", now: int) -> None:
        if now % self.stride:
            return
        self.audit(sim)

    def audit(self, sim: "Simulator") -> None:
        findings = audit_simulator(sim)
        if findings:
            raise SanitizerError(findings)
