"""Deadlock-free virtual-channel assignment (Figure 7).

Routing deadlock is avoided by indexing VCs along the route so the VC
number never decreases and strictly increases every time a packet
re-enters the class of channels it used before.  Two VCs suffice for
minimal routing and three for non-minimal routing.

The assignment is chosen so that the *first local hop* of a minimal route
(VC1) differs from the first local hop of a non-minimal route (VC0) --
exactly the property UGAL-L_VC exploits: at the source router the
occupancy of VC1 on a shared output port reflects minimal traffic and the
occupancy of VC0 reflects non-minimal traffic
(``q_m^vc = q(VC1)``, ``q_nm^vc = q(VC0)``, Section 4.3.1).

Stages and VCs::

    minimal      local(Gs)=1   global=1                local(Gd)=2
    non-minimal  local(Gs)=0   global=0   local(Gi)=1   global=1   local(Gd)=2

Assignments are first-class :class:`VcAssignment` values, and this
module holds no deadlock analysis of its own: the certifier proves or
refutes an assignment from the routes it induces -- symbolically over
every dragonfly from its path grammar
(:func:`repro.routing.paths.dragonfly_path_grammar`,
:func:`repro.check.symbolic.certify_grammar`), and concretely on a real
topology (:mod:`repro.check.cdg`).  The module-level constants are the
canonical Figure 7 assignment's VCs.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of VCs required for deadlock freedom with non-minimal routing.
NUM_VCS_REQUIRED = 3
#: VC of the first local hop (and the global hop) of a minimal route.
MINIMAL_FIRST_VC = 1
#: VC of the first local hop (and first global hop) of a Valiant route.
NONMINIMAL_FIRST_VC = 0
#: VC of local hops inside the destination group.
FINAL_LOCAL_VC = 2
#: VC of hops inside the intermediate group (and the second global hop).
INTERMEDIATE_VC = 1


@dataclass(frozen=True)
class VcAssignment:
    """A dragonfly VC assignment as data.

    The assignment is fully determined by four VC indices -- one per
    route stage of Figure 7 -- plus whether non-minimal routes are
    admitted at all.  The canonical paper assignment is
    :data:`CANONICAL`; :data:`MINIMAL_TWO_VC` is the two-VC assignment
    that is deadlock-free when only minimal routes exist, and
    :data:`COLLAPSED_TWO_VC` is a deliberately broken two-VC assignment
    (non-minimal stages collapsed onto two VCs) kept as the certifier's
    negative control: its channel-dependency graph is cyclic.
    """

    name: str
    num_vcs: int
    #: VC of the first local hop and the (first) global hop of a minimal
    #: route.
    minimal_first_vc: int
    #: VC of the first local hop and first global hop of a Valiant route.
    nonminimal_first_vc: int
    #: VC of intermediate-group local hops and the second global hop.
    intermediate_vc: int
    #: VC of local hops inside the destination group.
    final_local_vc: int
    #: Whether non-minimal (Valiant/UGAL) routes are part of the route
    #: class this assignment serves.
    supports_nonminimal: bool = True

    def __post_init__(self) -> None:
        vcs = (
            self.minimal_first_vc,
            self.nonminimal_first_vc,
            self.intermediate_vc,
            self.final_local_vc,
        )
        if any(vc < 0 or vc >= self.num_vcs for vc in vcs):
            raise ValueError(
                f"assignment {self.name!r} uses VCs outside [0, {self.num_vcs})"
            )

    # -- per-hop queries ------------------------------------------------
    def local_vc(self, minimal: bool, global_hops_taken: int) -> int:
        """VC for a local-channel hop at the given route progress."""
        if minimal:
            return (
                self.minimal_first_vc
                if global_hops_taken == 0
                else self.final_local_vc
            )
        if global_hops_taken == 0:
            return self.nonminimal_first_vc
        if global_hops_taken == 1:
            return self.intermediate_vc
        return self.final_local_vc

    def global_vc(self, minimal: bool, global_hops_taken: int) -> int:
        """VC for a global-channel hop at the given route progress."""
        if minimal:
            return self.minimal_first_vc
        return (
            self.nonminimal_first_vc
            if global_hops_taken == 0
            else self.intermediate_vc
        )


#: The canonical Figure 7 assignment: 3 VCs, non-minimal admitted.
CANONICAL = VcAssignment(
    name="figure7-3vc",
    num_vcs=NUM_VCS_REQUIRED,
    minimal_first_vc=MINIMAL_FIRST_VC,
    nonminimal_first_vc=NONMINIMAL_FIRST_VC,
    intermediate_vc=INTERMEDIATE_VC,
    final_local_vc=FINAL_LOCAL_VC,
)

#: Two VCs suffice when only minimal routes exist: the VC index strictly
#: increases from the source-group stage to the destination-group stage.
MINIMAL_TWO_VC = VcAssignment(
    name="minimal-2vc",
    num_vcs=2,
    minimal_first_vc=0,
    nonminimal_first_vc=0,
    intermediate_vc=0,
    final_local_vc=1,
    supports_nonminimal=False,
)

#: Negative control: the 3-VC non-minimal assignment naively collapsed
#: onto 2 VCs (``vc -> min(vc, 1)``).  The destination-group local stage
#: then shares VC1 with the source-group stage of minimal routes, closing
#: a cycle local -> global -> local -> global -> local across any pair of
#: groups.  The certifier must *refute* this assignment with a concrete
#: counterexample cycle.
COLLAPSED_TWO_VC = VcAssignment(
    name="collapsed-2vc",
    num_vcs=2,
    minimal_first_vc=1,
    nonminimal_first_vc=0,
    intermediate_vc=1,
    final_local_vc=1,
)

#: Negative control for the *degraded-family* certifier: a detour route
#: class deliberately allowed to reuse its injection VC -- the
#: destination-group local stage is pushed back down to VC0, the VC the
#: detour's source-group local stage injects on.  Three detour-rerouted
#: group pairs arranged in a ring (with distinct mid groups at every
#: junction) then close a concrete cycle local@0 -> global@0 -> local@1
#: -> global@1 -> local@0, and the symbolic class graph closes the same
#: cycle because the merged VC0 local class feeds the detour's first
#: stage.  Both the symbolic certifier (FLT codes) and the concrete
#: table-CDG verifier (TBL001) must *refute* this assignment on a
#: degraded fabric.
DETOUR_VC_REUSE = VcAssignment(
    name="detour-vc-reuse",
    num_vcs=NUM_VCS_REQUIRED,
    minimal_first_vc=MINIMAL_FIRST_VC,
    nonminimal_first_vc=NONMINIMAL_FIRST_VC,
    intermediate_vc=INTERMEDIATE_VC,
    final_local_vc=NONMINIMAL_FIRST_VC,
)
