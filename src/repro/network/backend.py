"""Simulation backend selection and the backend-equivalence contract.

The cycle-accurate engine has two interchangeable implementations:

``scalar``
    The reference engine (:class:`~repro.network.simulator.Simulator`):
    pure-Python occupancy-driven loops.  Every behavioural contract in
    the repository -- golden fixtures, differential corpus, sanitizer
    laws -- is defined against this engine.
``array``
    The batched numpy decide-kernel engine
    (:class:`~repro.network.array_backend.ArraySimulator`): every
    per-cycle step (injection Bernoulli draws, route decisions and
    their wave-ordered commit, queue appends and pops, switch port/VC
    arbitration, credit returns, ejection) is an array operation over
    that cycle's batch.  Built for the
    paper's 1056-node default scale (``p = h = 4, a = 8``) where the
    scalar engine's per-terminal/per-port Python overhead dominates.

Selection is *per run*: pass ``backend="array"`` to
:func:`make_simulator` / :func:`repro.network.simulator.simulate`, or
hand it a :class:`~repro.settings.Settings` whose ``backend`` says so.
With neither, the run takes ``Settings.from_env()`` -- so
``REPRO_SIM_BACKEND=array`` switches every run that does not name a
backend.  The sweep runner resolves its settings once in the parent
and passes them to its workers as an argument.

:func:`make_simulator` is also where an array request the kernel cannot
serve (multi-flit packets, table-driven or custom routing, a topology
variant -- see :func:`~repro.network.decide_kernel.kernel_ineligibility`)
is answered: it runs on the scalar engine, the reason is logged, and the
result's provenance says so (``{"backend": "array", "kernel": "none",
"kernel_fallback": <reason>}``).  There is no third engine.

Equivalence contract
--------------------

The array backend is not allowed to be "roughly right": at matched
seeds its :class:`~repro.network.stats.SimulationResult` is
**bit-identical** to the scalar engine's on every configuration,
asserted by the backend-differential harness
(``tests/network/test_backend_differential.py``) over the 241-case
corpus, the golden fixtures, and a Hypothesis shape fuzzer.  The kernel
consumes the same RNG streams in the same order (Mersenne-Twister state
transplanted verbatim into numpy, which reproduces CPython's
``random.random`` doubles and ``getrandbits`` words exactly), and its
vectorized switch arbitration is an exact reformulation: within one
cycle every output port's decision depends only on that port's own
queues, credits and round-robin pointer, so batching the decisions
cannot reorder anything observable.  Configurations the kernel does not
cover run the scalar engine itself.  :func:`contract_for` therefore
declares only *which tier* will run, so the harness can assert that the
tier it thinks it is certifying is the tier that ran.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..settings import Settings
from .config import SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..routing.base import RoutingAlgorithm
    from ..topology.dragonfly import Dragonfly
    from .simulator import Simulator

logger = logging.getLogger(__name__)


def make_simulator(
    topology: "Dragonfly",
    routing: "RoutingAlgorithm",
    pattern: Callable[[int], int],
    config: SimulationConfig,
    backend: Optional[str] = None,
    settings: Optional[Settings] = None,
) -> "Simulator":
    """Build the selected engine behind the uniform Simulator interface.

    ``settings`` carries the engine choice and the sanitizer switch
    (default ``Settings.from_env()``, read once here); an explicit
    ``backend`` replaces its ``backend`` field and is validated the
    same way.

    ``array`` means the decide-kernel engine wherever it applies: a
    configuration :func:`kernel_ineligibility` rejects runs on the
    scalar engine instead, never silently -- the reason is logged here
    and stamped on the simulator's provenance.
    """
    from .simulator import Simulator

    settings = settings or Settings.from_env()
    if backend is not None:
        settings = dataclasses.replace(settings, backend=backend.strip().lower())
    if settings.backend == "scalar":
        return Simulator(topology, routing, pattern, config, settings)
    try:
        from .array_backend import ArraySimulator
        from .decide_kernel import kernel_ineligibility
    except ImportError as exc:  # pragma: no cover - numpy is baked in
        raise RuntimeError(
            "the array simulation backend requires numpy; install it "
            "or select backend='scalar'"
        ) from exc
    reason = kernel_ineligibility(config, topology, routing)
    if reason is None:
        return ArraySimulator(topology, routing, pattern, config, settings)
    logger.info("decide kernel disabled (%s); running the scalar engine", reason)
    sim = Simulator(topology, routing, pattern, config, settings)
    # The result must still say what was asked for and why it was not
    # served by the kernel, so results in a cache or store stay
    # attributable to the backend that requested them.
    provenance = {"backend": "array", "kernel": "none", "kernel_fallback": reason}
    sim.backend_provenance = provenance.copy  # type: ignore[method-assign]
    return sim


@dataclass(frozen=True)
class EquivalenceContract:
    """Which engine tier an array-backend run of a configuration gets.

    The equivalence itself is not a field: it is bit-identity, always.
    """

    #: Name of the batched decide kernel the array backend will engage
    #: on this configuration (``"decide-v1"``), or ``None`` when the
    #: kernel stays off or eligibility was not evaluated (``contract_for``
    #: called without topology/routing).
    decide_kernel: Optional[str] = None
    #: When the kernel stays off despite topology/routing being known:
    #: the human-readable ineligibility reason ``make_simulator`` logs.
    kernel_fallback: Optional[str] = None


def contract_for(
    config: SimulationConfig,
    topology: Optional["Dragonfly"] = None,
    routing: Optional["RoutingAlgorithm"] = None,
) -> EquivalenceContract:
    """The tier the array backend will run on this configuration.

    With ``topology`` and ``routing`` the contract is stamped with the
    array backend's *kernel capability* on that exact setup:
    ``decide_kernel`` names the batched decide kernel that will engage,
    or ``kernel_fallback`` carries the ineligibility reason that sends
    the run to the scalar engine.  The differential harness uses these
    fields only to assert that the tier it *thinks* it is certifying is
    the tier that actually ran.
    """
    if topology is None or routing is None:
        return EquivalenceContract()
    from .decide_kernel import KERNEL_NAME, kernel_ineligibility

    reason = kernel_ineligibility(config, topology, routing)
    if reason is None:
        return EquivalenceContract(decide_kernel=KERNEL_NAME)
    return EquivalenceContract(kernel_fallback=reason)
