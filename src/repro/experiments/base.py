"""Experiment registry: one entry per table/figure of the paper.

Every experiment knows the figure it reproduces, the paper's qualitative
claim, and how to regenerate the figure's rows/series.  ``quick`` mode
runs the simulation experiments on the 72-node dragonfly of Figure 5
(``p = h = 2, a = 4``); full mode uses the paper's 1056-node default
(``p = h = 4, a = 8``).  The phenomena under study are structural, so the
trends match at both sizes (the paper itself notes "simulations of other
size networks follow the same trend").
"""

from __future__ import annotations

import abc
import contextlib
import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..core.params import DragonflyParams
from ..network.cache import SweepCache
from ..network.config import SimulationConfig
from ..network.parallel import SchedulerOptions, SweepExecutor
from ..settings import Settings
from ..topology.dragonfly import Dragonfly


@dataclass
class ExperimentResult:
    """Rows of a regenerated table/figure plus context for the report."""

    experiment_id: str
    title: str
    paper_claim: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def format_table(self) -> str:
        """Render rows as an aligned text table."""
        widths = {
            column: max(
                len(column),
                *(len(_fmt(row.get(column))) for row in self.rows),
            )
            if self.rows
            else len(column)
            for column in self.columns
        }
        lines = [
            f"== {self.experiment_id}: {self.title}",
            f"   paper: {self.paper_claim}",
            "  ".join(column.ljust(widths[column]) for column in self.columns),
        ]
        for row in self.rows:
            lines.append(
                "  ".join(
                    _fmt(row.get(column)).ljust(widths[column])
                    for column in self.columns
                )
            )
        lines.extend(f"   note: {note}" for note in self.notes)
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class Experiment(abc.ABC):
    """One reproducible table/figure."""

    #: Identifier like ``"fig08a"`` or ``"table2"``.
    id: str = ""
    #: One-line description of what the paper shows.
    title: str = ""
    #: The qualitative claim being reproduced.
    paper_claim: str = ""

    @abc.abstractmethod
    def run(self, quick: bool = True) -> ExperimentResult:
        """Regenerate the figure's rows (quick = small network)."""


#: Experiment id -> factory, filled by the ``@register`` classes of the
#: figure modules; read it through :func:`load_registry`.
REGISTRY: Dict[str, Callable[[], Experiment]] = {}

#: The modules whose ``@register`` classes fill :data:`REGISTRY`.
FIGURE_MODULES = ("analytic", "cost_experiments", "extensions", "fault_sweep", "routing_sim")


def register(factory: Callable[[], Experiment]) -> Callable[[], Experiment]:
    """Class decorator registering an experiment by its ``id``."""
    instance = factory()
    if not instance.id:
        raise ValueError(f"experiment {factory!r} has no id")
    if instance.id in REGISTRY:
        raise ValueError(f"duplicate experiment id {instance.id}")
    REGISTRY[instance.id] = factory
    return factory


def load_registry() -> Dict[str, Callable[[], Experiment]]:
    """:data:`REGISTRY`, complete: the first call imports the figure
    modules, so only a caller that reads the registry pays for them."""
    for name in FIGURE_MODULES:
        importlib.import_module(f"{__package__}.{name}")
    return REGISTRY


def get_experiment(experiment_id: str) -> Experiment:
    registry = load_registry()
    if experiment_id not in registry:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(registry)}"
        )
    return registry[experiment_id]()


def all_experiment_ids() -> List[str]:
    return sorted(load_registry())


# ----------------------------------------------------------------------
# Shared simulation settings
# ----------------------------------------------------------------------
def experiment_topology(quick: bool = True) -> Dragonfly:
    """The dragonfly the simulation experiments run on."""
    params = (
        DragonflyParams.paper_example_72() if quick else DragonflyParams.paper_1k()
    )
    return Dragonfly(params)


def experiment_config(
    quick: bool = True,
    load: float = 0.1,
    vc_buffer_depth: int = 16,
) -> SimulationConfig:
    """Simulation methodology knobs scaled to the run size."""
    if quick:
        return SimulationConfig(
            load=load,
            warmup_cycles=1000,
            measure_cycles=1000,
            drain_max_cycles=15_000,
            vc_buffer_depth=vc_buffer_depth,
        )
    return SimulationConfig(
        load=load,
        warmup_cycles=3000,
        measure_cycles=2000,
        drain_max_cycles=40_000,
        vc_buffer_depth=vc_buffer_depth,
    )


#: Executor shared across one CLI invocation (see
#: :func:`shared_experiment_executor`); ``None`` outside the context.
_SHARED_EXECUTOR: Optional[SweepExecutor] = None


def executor_for(settings: Settings, figure: str = "adhoc") -> SweepExecutor:
    """The sweep executor ``settings`` describes.

    ``service_root`` selects the journaled, store-backed
    :class:`repro.service.client.ServiceExecutor`, its batches filed
    under ``figure``; otherwise a bare executor over ``cache_dir`` (or
    no cache).  Either way the engine fields travel with the executor
    into every point it runs.
    """
    if settings.service_root is not None:
        from ..service.client import ServiceExecutor

        return ServiceExecutor(
            settings.service_root,
            options=SchedulerOptions(workers=settings.workers),
            figure=figure,
            settings=settings,
        )
    return SweepExecutor(
        workers=settings.workers,
        cache=SweepCache(settings.cache_dir) if settings.cache_dir else None,
        settings=settings,
    )


def experiment_executor() -> SweepExecutor:
    """The sweep executor the experiment runners use.

    Outside a :func:`shared_experiment_executor` context it is
    configured from the environment (:class:`repro.settings.Settings`),
    so figure scripts and benchmarks gain parallelism
    (``REPRO_SWEEP_WORKERS``), on-disk result caching
    (``REPRO_SWEEP_CACHE``), or the full sweep service
    (``REPRO_SWEEP_SERVICE``) without code changes; the default is
    serial and uncached, matching the historical behaviour point for
    point.

    Inside the context every call returns the same instance, so a whole
    figure run accumulates one set of cache/simulation counters for the
    summary line.
    """
    if _SHARED_EXECUTOR is not None:
        return _SHARED_EXECUTOR
    return executor_for(Settings.from_env())


@contextlib.contextmanager
def shared_experiment_executor(settings: Settings, figure: str) -> Iterator[SweepExecutor]:
    """Scope within which :func:`experiment_executor` is a singleton
    built from ``settings``.

    The CLI wraps each experiment run in this context -- ``figure`` is
    the experiment id a service root files the run's points under -- and
    reports ``executor.summary_line()`` -- points cached vs simulated,
    cache hit/miss/invalidation counters, and any serial-fallback
    diagnostic -- after the figure's table.
    """
    global _SHARED_EXECUTOR
    executor = executor_for(settings, figure)
    _SHARED_EXECUTOR = executor
    try:
        yield executor
    finally:
        _SHARED_EXECUTOR = None


def uniform_loads(quick: bool = True) -> Sequence[float]:
    if quick:
        return (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)
    return (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def worst_case_loads(quick: bool = True) -> Sequence[float]:
    if quick:
        return (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)
    return (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
