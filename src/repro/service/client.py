"""Library client: the sweep service as a drop-in ``SweepExecutor``.

:class:`ServiceExecutor` keeps the :class:`~repro.network.parallel.SweepExecutor`
interface (``run_point``/``run_points``/``stats``) and runs the same
execution core, configured as a service job: every batch is journaled
under ``<root>/jobs/`` and its points land in the indexed result store.
That buys every caller -- ``load_sweep``, ``saturation_load``, the
``repro.experiments`` figure runners, the benchmarks -- resumable,
queryable sweeps with no code changes.

Setting ``REPRO_SWEEP_SERVICE`` to a service root directory makes
:func:`repro.experiments.base.experiment_executor` return one of these,
so ``python -m repro.experiments fig09`` transparently becomes a
service client: previously computed figure data is served from the
store with zero ``run_point`` calls, fresh points are journaled as they
land, and a killed run resumes where it stopped.  The experiment CLI
passes the experiment id as ``figure``, so that run is journaled and
stored under ``fig09``; a caller naming no figure files under ``adhoc``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from ..network.cache import key_digest
from ..network.parallel import JobReport, SchedulerOptions, SweepExecutor, WorkUnit
from ..settings import Settings
from .scheduler import job_scheduler
from .store import ResultStore


class ServiceExecutor(SweepExecutor):
    """A ``SweepExecutor`` whose batches are journaled service jobs."""

    def __init__(
        self,
        root: Union[str, Path],
        options: Optional[SchedulerOptions] = None,
        figure: str = "adhoc",
        settings: Optional[Settings] = None,
    ) -> None:
        self.root = Path(root)
        self.figure = figure
        self.store = ResultStore(self.root / "store")
        # The store's point records double as the executor's cache, so
        # cache counters (hits/misses/invalidations) keep reporting.
        super().__init__(
            workers=options.workers if options is not None else 1,
            cache=self.store.cache,
            settings=settings,
        )

    def _run(self, topology, units: List[WorkUnit]) -> JobReport:
        """One batch as one job (its identity is the figure tag plus
        the digest of its unit digests), so interrupted figure runs
        resume and ``status`` can narrate them like any submitted
        manifest."""
        batch_digest = key_digest({"units": [unit.digest for unit in units]})
        return job_scheduler(
            self.store,
            self.root / "jobs" / f"{self.figure}-{batch_digest[:16]}",
            topology,
            units,
            workers=self.workers,
            figure=self.figure,
            settings=self.settings,
        ).run()

    def summary_line(self) -> str:
        return f"service {self.root}: " + super().summary_line()
