"""The sweep runner configured as a service job.

A job is :class:`repro.network.parallel.SweepScheduler` -- the one
execution core -- given two things the bare executor leaves out:

* a :class:`~repro.service.journal.Journal` under
  ``<root>/jobs/<job_id>/journal.jsonl``, so every state change is
  fsync'd after its point record is stored and a SIGKILLed service
  resumes without recomputing completed units;
* the indexed :class:`~repro.service.store.ResultStore` (through a
  :class:`~repro.service.store.FigureStore`, so hits are tagged with,
  and new points filed under, the job's figure).

:func:`job_scheduler` builds that configuration;
:func:`run_manifest` (the ``submit`` verb) and
:class:`~repro.service.client.ServiceExecutor` are its two callers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..network.parallel import JobProgress, JobReport, SweepScheduler, WorkUnit
from ..settings import Settings
from ..topology.base import build
from .journal import Journal
from .manifest import SweepManifest
from .store import FigureStore, ResultStore


def job_scheduler(
    store: ResultStore,
    job_dir: Union[str, Path],
    topology,
    units: Sequence[WorkUnit],
    workers: int = 1,
    figure: str = "adhoc",
    settings: Optional[Settings] = None,
) -> SweepScheduler:
    """The sweep runner journaling to ``job_dir`` over ``store``."""
    job_dir = Path(job_dir)
    return SweepScheduler(
        topology,
        units,
        store=FigureStore(store, figure),
        journal=Journal(job_dir / "journal.jsonl"),
        workers=workers,
        settings=settings,
        job_id=job_dir.name,
        figure=figure,
    )


def run_manifest(
    root: Union[str, Path],
    manifest: SweepManifest,
    workers: int = 1,
    on_progress: Optional[Callable[[JobProgress], None]] = None,
    settings: Optional[Settings] = None,
) -> JobReport:
    """Submit one manifest against the service root and run it to
    completion (the ``submit`` verb's engine).

    The manifest is persisted under ``<root>/jobs/<job_id>/`` next to
    its journal, so ``status`` can describe the job and a resume can
    verify it is re-running the same request.
    """
    root = Path(root)
    topology = build(manifest.topology)
    job_dir = root / "jobs" / manifest.job_id
    job_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = job_dir / "manifest.json"
    if not manifest_path.exists():
        manifest_path.write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True),
            encoding="utf-8",
        )
    return job_scheduler(
        ResultStore(root / "store"),
        job_dir,
        topology,
        manifest.work_units(topology),
        workers=workers,
        figure=manifest.figure,
        settings=settings,
    ).run(on_progress=on_progress)
