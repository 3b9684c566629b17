"""Topology invariant linter.

Audits concrete topology instances against the paper's parameter algebra
(Section 3.1) and against structural properties every fabric must hold:

* dragonfly algebra, for the dragonfly and its Figure 6 variants alike:
  group bound ``g <= a*h + 1``, size ``N = a*p*g`` (``= ap(ah+1)`` at
  maximum size), radix ``k = p + a + h - 1`` (``p + local ports + h``
  for a variant);
* the balance rule ``a = 2p = 2h`` (warning when violated without the
  paper's relaxed overprovisioning ``a >= 2h``, ``p >= h``);
* port-budget consistency: every router wires exactly its declared
  terminal/local/global port counts and nothing beyond its radix;
* bidirectional link symmetry: every cable appears as two directed
  channels that mirror each other's endpoints, kind and latency;
* even distribution of excess global links in non-maximal dragonflies:
  per-pair channel counts differ by at most one and respect the
  ``floor(ah / (g-1))`` lower bound, and no pair is disconnected.

Errors gate CI; warnings (e.g. a legal-but-unbalanced configuration) are
advisory.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, Union

from ..core.params import DragonflyParams
from ..topology.base import ChannelKind, Fabric
from ..topology.dragonfly import Dragonfly, GroupedTopology
from ..topology.flattened_butterfly import FlattenedButterfly
from ..topology.folded_clos import FoldedClos
from ..topology.group_variants import FlattenedButterflyGroupDragonfly
from ..topology.torus import Torus
from .report import Finding, Severity

AnyTopology = Union[
    Dragonfly, FlattenedButterfly, FoldedClos, Torus,
    FlattenedButterflyGroupDragonfly,
]


def _finding(code: str, severity: Severity, location: str, message: str) -> Finding:
    return Finding(code=code, severity=severity, location=location, message=message)


# ----------------------------------------------------------------------
# Generic fabric checks (every topology)
# ----------------------------------------------------------------------
def audit_fabric(fabric: Fabric, location: str) -> List[Finding]:
    """Structural checks shared by all topologies."""
    findings: List[Finding] = []
    # Channel list must pair up into bidirectional cables.
    if len(fabric.channels) % 2 != 0:
        findings.append(_finding(
            "TOP005", Severity.ERROR, location,
            f"odd directed-channel count {len(fabric.channels)}; "
            "every cable must contribute two directed channels",
        ))
        return findings
    for forward, backward in fabric.bidirectional_links():
        if forward.src != backward.dst or forward.dst != backward.src:
            findings.append(_finding(
                "TOP005", Severity.ERROR, location,
                f"channels {forward.index}/{backward.index} are not "
                f"mirror images: {forward.src}->{forward.dst} vs "
                f"{backward.src}->{backward.dst}",
            ))
        if forward.kind != backward.kind or forward.latency != backward.latency:
            findings.append(_finding(
                "TOP005", Severity.ERROR, location,
                f"channels {forward.index}/{backward.index} disagree on "
                "kind or latency",
            ))
    try:
        fabric.validate()
    except ValueError as error:
        findings.append(_finding(
            "TOP007", Severity.ERROR, location, f"fabric.validate(): {error}",
        ))
    return findings


def _audit_radix_bound(
    fabric: Fabric, declared_radix: int, location: str
) -> List[Finding]:
    findings: List[Finding] = []
    for router in range(fabric.num_routers):
        wired = fabric.radix(router)
        if wired > declared_radix:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} wires {wired} ports, exceeding the "
                f"declared radix {declared_radix}",
            ))
    return findings


# ----------------------------------------------------------------------
# Dragonfly algebra
# ----------------------------------------------------------------------
def audit_dragonfly(topology: Dragonfly) -> List[Finding]:
    params = topology.params
    location = params.describe()
    findings = _audit_grouped(topology, location)
    # Balance rule a = 2p = 2h (Section 3.1).
    if not params.is_balanced:
        severity = Severity.INFO if params.is_overprovisioned else Severity.WARNING
        detail = (
            "local/terminal bandwidth is overprovisioned (a >= 2h, p >= h)"
            if params.is_overprovisioned
            else "global channels are no longer the only bottleneck"
        )
        findings.append(_finding(
            "TOP003", severity, location,
            f"unbalanced configuration (a={params.a}, 2p={2 * params.p}, "
            f"2h={2 * params.h}); {detail}",
        ))
    return findings


def _audit_grouped(topology: GroupedTopology, location: str) -> List[Finding]:
    """The algebra, port budget and global wiring of any grouped topology
    (the dragonfly and its Figure 6 variants)."""
    p, a, h, g = topology.p, topology.a, topology.h, topology.g
    findings = audit_fabric(topology.fabric, location)
    findings += _audit_radix_bound(topology.fabric, topology.radix, location)

    # Group bound g <= a*h + 1 (the virtual-router radix limit).
    if g > a * h + 1:
        findings.append(_finding(
            "TOP001", Severity.ERROR, location,
            f"group count g={g} exceeds the bound a*h+1={a * h + 1}",
        ))

    # Network size algebra: N = a*p*g, and at maximum size N = ap(ah+1).
    num_terminals = topology.fabric.num_terminals
    if num_terminals != a * p * g:
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            f"fabric has {num_terminals} terminals, "
            f"algebra demands a*p*g = {a * p * g}",
        ))
    if g == a * h + 1 and num_terminals != a * p * (a * h + 1):
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            f"maximum-size dragonfly must have N = ap(ah+1) = "
            f"{a * p * (a * h + 1)} terminals, found {num_terminals}",
        ))
    findings += _audit_grouped_ports(topology, location)
    findings += _audit_global_distribution(topology, location)
    return findings


def _audit_grouped_ports(topology: GroupedTopology, location: str) -> List[Finding]:
    """Per-router port budget: p terminals, every local port, <= h globals."""
    findings: List[Finding] = []
    fabric = topology.fabric
    for router in range(fabric.num_routers):
        terminals = locals_ = globals_ = 0
        for port in fabric.ports(router):
            if fabric.is_terminal_port(router, port):
                terminals += 1
                continue
            channel = fabric.out_channel(router, port)
            if channel is None:
                findings.append(_finding(
                    "TOP004", Severity.ERROR, location,
                    f"router {router} port {port} is claimed but wires "
                    "neither a terminal nor a channel",
                ))
            elif channel.kind == ChannelKind.LOCAL:
                locals_ += 1
            elif channel.kind == ChannelKind.GLOBAL:
                globals_ += 1
        if terminals != topology.p:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} wires {terminals} terminal ports, expected p={topology.p}",
            ))
        if locals_ != topology.local_ports:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} wires {locals_} local ports, expected "
                f"{topology.local_ports}",
            ))
        if globals_ > topology.h:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} wires {globals_} global ports, exceeding h={topology.h}",
            ))
        recorded = len(topology.global_links_of(router))
        if recorded != globals_:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} records {recorded} global links but wires "
                f"{globals_} global ports",
            ))
    return findings


def _audit_global_distribution(
    topology: GroupedTopology, location: str
) -> List[Finding]:
    """Even distribution of global channels over group pairs (Section 3.1),
    read from ``g``, the link lists, ``floor(ah / (g-1))`` and the cap
    alone, so it audits every grouped topology."""
    findings: List[Finding] = []
    g = topology.g
    if g <= 1:
        return findings
    counts = []
    for i in range(g):
        for j in range(i + 1, g):
            count = len(topology.group_links(i, j))
            mirrored = len(topology.group_links(j, i))
            if count != mirrored:
                findings.append(_finding(
                    "TOP005", Severity.ERROR, location,
                    f"group pair ({i},{j}) records {count} forward but "
                    f"{mirrored} reverse global links",
                ))
            if count == 0:
                findings.append(_finding(
                    "TOP006", Severity.ERROR, location,
                    f"groups {i} and {j} are not connected by any global channel",
                ))
            counts.append(count)
    # The round-robin distribution promises per-pair counts within one of
    # each other and at least floor(ah / (g-1)) each; tapering
    # (max_channels_per_pair) intentionally caps counts but must keep the
    # spread-of-one property among uncapped pairs, so only check the
    # lower bound against the cap when tapered.
    cap = topology.max_channels_per_pair
    floor_bound = topology.a * topology.h // (g - 1)
    if cap is not None:
        floor_bound = min(floor_bound, cap)
    if max(counts) - min(counts) > 1 and cap is None:
        findings.append(_finding(
            "TOP006", Severity.ERROR, location,
            f"global channels unevenly distributed: per-pair counts range "
            f"{min(counts)}..{max(counts)} (spread must be <= 1)",
        ))
    if min(counts) < floor_bound:
        findings.append(_finding(
            "TOP006", Severity.ERROR, location,
            f"some group pair has {min(counts)} global channels, below the "
            f"floor(ah/(g-1)) bound {floor_bound}",
        ))
    return findings


# ----------------------------------------------------------------------
# Other topology families
# ----------------------------------------------------------------------
def audit_flattened_butterfly(topology: FlattenedButterfly) -> List[Finding]:
    location = topology.describe()
    findings = audit_fabric(topology.fabric, location)
    findings += _audit_radix_bound(topology.fabric, topology.radix, location)
    expected = topology.concentration + sum(m - 1 for m in topology.dims)
    if topology.radix != expected:
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            f"declared radix {topology.radix} != c + sum(m_i - 1) = {expected}",
        ))
    if topology.fabric.num_terminals != topology.num_terminals:
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            f"fabric has {topology.fabric.num_terminals} terminals, "
            f"expected {topology.num_terminals}",
        ))
    return findings


def audit_folded_clos(topology: FoldedClos) -> List[Finding]:
    location = topology.describe()
    findings = audit_fabric(topology.fabric, location)
    findings += _audit_radix_bound(topology.fabric, topology.radix, location)
    if topology.num_terminals != topology.down ** topology.levels:
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            f"N={topology.num_terminals} != d^L = "
            f"{topology.down ** topology.levels}",
        ))
    if topology.num_switches != topology.levels * topology.switches_per_level:
        findings.append(_finding(
            "TOP002", Severity.ERROR, location,
            "switch count disagrees with L * d^(L-1)",
        ))
    return findings


def audit_torus(topology: Torus) -> List[Finding]:
    location = topology.describe()
    findings = audit_fabric(topology.fabric, location)
    findings += _audit_radix_bound(topology.fabric, topology.radix, location)
    # Every router must reach exactly two neighbours per dimension
    # (one for size-2 rings, which have a single cable).
    expected_neighbors = sum(1 if m == 2 else 2 for m in topology.dims)
    for router in range(topology.num_routers):
        neighbors = len(topology.fabric.neighbors(router))
        if neighbors != expected_neighbors:
            findings.append(_finding(
                "TOP004", Severity.ERROR, location,
                f"router {router} has {neighbors} neighbours, expected "
                f"{expected_neighbors}",
            ))
    return findings


def audit_variant(topology: FlattenedButterflyGroupDragonfly) -> List[Finding]:
    return _audit_grouped(topology, (
        f"dragonfly_fb_group(p={topology.p}, dims={topology.group_dims}, "
        f"h={topology.h}, g={topology.g})"
    ))


def audit_topology(topology: AnyTopology) -> List[Finding]:
    """Dispatch to the family-specific audit."""
    if isinstance(topology, Dragonfly):
        return audit_dragonfly(topology)
    if isinstance(topology, FlattenedButterfly):
        return audit_flattened_butterfly(topology)
    if isinstance(topology, FoldedClos):
        return audit_folded_clos(topology)
    if isinstance(topology, Torus):
        return audit_torus(topology)
    if isinstance(topology, FlattenedButterflyGroupDragonfly):
        return audit_variant(topology)
    raise TypeError(f"no invariant audit for {type(topology).__name__}")


def default_topology_audits() -> List[Tuple[str, Callable[[], AnyTopology]]]:
    """(name, builder) pairs audited by ``python -m repro.check``."""
    return [
        ("dragonfly-paper72", lambda: Dragonfly(DragonflyParams.paper_example_72())),
        ("dragonfly-paper1k", lambda: Dragonfly(DragonflyParams.paper_1k())),
        ("dragonfly-tiny", lambda: Dragonfly(DragonflyParams(p=1, a=2, h=1))),
        (
            "dragonfly-nonmax",
            lambda: Dragonfly(DragonflyParams(p=2, a=4, h=2, num_groups=5)),
        ),
        (
            "dragonfly-tapered",
            lambda: Dragonfly(
                DragonflyParams(p=2, a=4, h=2, num_groups=5),
                max_channels_per_pair=1,
            ),
        ),
        (
            "dragonfly-fbgroup",
            lambda: FlattenedButterflyGroupDragonfly(p=1, group_dims=(2, 2), h=1),
        ),
        (
            "flattened-butterfly-8x8",
            lambda: FlattenedButterfly(dims=(8, 8), concentration=4),
        ),
        ("folded-clos-64", lambda: FoldedClos(num_terminals=64, radix=8)),
        ("torus-4x4x4", lambda: Torus(dims=(4, 4, 4), concentration=1)),
    ]
