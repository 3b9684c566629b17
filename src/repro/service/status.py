"""Job status: replayed journals rendered for the ``status`` verb.

Pure functions from a service root to data/strings -- printing is the
CLI's job (:mod:`repro.serve.__main__`), keeping this module importable
from library code and tests.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from .journal import Journal, JournalCorruptError, JournalState
from .manifest import SweepManifest
from .store import ResultStore, StoredPoint


@dataclass
class JobStatus:
    """Durable state of one submitted job, from its journal."""

    job_id: str
    figure: str
    units: int
    done: int
    cached: int
    failed: int
    attempts: int
    state: str  # "complete" | "interrupted" | "empty" | "corrupt"
    last_event_age: Optional[float] = None
    last_fallback: Optional[str] = None
    failures: Dict[str, str] = field(default_factory=dict)
    #: For ``state == "corrupt"``: the damaged file and what is wrong.
    damaged: Optional[str] = None

    def line(self) -> str:
        parts = [
            f"{self.job_id:40s} {self.state:12s}",
            f"{self.done}/{self.units} done",
            f"{self.cached} cached",
            f"{self.failed} failed",
            f"{self.attempts} attempts",
        ]
        if self.last_fallback:
            parts.append(f"fallback: {self.last_fallback}")
        if self.damaged:
            parts.append(f"damaged: {self.damaged}")
        return "  ".join(parts)


def job_statuses(root: Union[str, Path]) -> List[JobStatus]:
    """One :class:`JobStatus` per job directory under ``<root>/jobs``."""
    jobs_dir = Path(root) / "jobs"
    statuses: List[JobStatus] = []
    if not jobs_dir.is_dir():
        return statuses
    now = time.time()
    for job_dir in sorted(jobs_dir.iterdir()):
        if not job_dir.is_dir():
            continue
        figure = "?"
        units = 0
        damaged: Optional[str] = None
        manifest_path = job_dir / "manifest.json"
        journal_path = job_dir / "journal.jsonl"
        try:
            state = Journal(journal_path).replay()
        except JournalCorruptError as error:
            state, damaged = JournalState(), str(error)
        declared = [e for e in state.events if e.get("event") == "job"]
        damaged_file = journal_path
        try:
            if declared:
                units = int(declared[-1].get("units", 0))  # type: ignore[call-overload]
                figure = str(declared[-1].get("figure", figure))
            damaged_file = manifest_path
            if manifest_path.exists():
                manifest = SweepManifest.from_dict(
                    json.loads(manifest_path.read_text(encoding="utf-8"))
                )
                if not declared:
                    figure, units = manifest.figure, manifest.num_units()
        except (OSError, AttributeError, KeyError, TypeError, ValueError) as error:
            damaged = f"{damaged_file}: {type(error).__name__}: {error}"
        last_age: Optional[float] = None
        if state.events:
            try:
                last_age = max(0.0, now - float(state.events[-1]["t"]))  # type: ignore[arg-type]
            except (KeyError, TypeError, ValueError):
                last_age = None
        statuses.append(
            JobStatus(
                job_id=job_dir.name,
                figure=figure,
                units=units,
                done=len(state.done) + len(state.cached),
                cached=len(state.cached),
                failed=len(state.failed),
                attempts=sum(state.attempts.values()),
                state=(
                    "corrupt" if damaged
                    else "complete" if state.complete
                    else "interrupted" if state.events
                    else "empty"
                ),
                last_event_age=last_age,
                last_fallback=state.last_fallback,
                failures=dict(state.failed),
                damaged=damaged,
            )
        )
    return statuses


def render_statuses(statuses: List[JobStatus]) -> str:
    if not statuses:
        return "no jobs submitted"
    lines = [status.line() for status in statuses]
    return "\n".join(lines)


def render_query_rows(points: List[StoredPoint]) -> str:
    """Aligned text table of query results."""
    if not points:
        return "no matching points"
    header = (
        f"{'figure(s)':20s} {'routing':12s} {'pattern':14s} "
        f"{'load':>6s} {'seed':>6s} {'latency':>9s} {'accepted':>9s} "
        f"{'engine':16s} digest"
    )
    lines = [header]
    for point in points:
        latency = (
            "inf" if math.isinf(point.avg_latency) else f"{point.avg_latency:.3f}"
        )
        engine = (
            point.backend
            if point.kernel in ("none", "unknown")
            else f"{point.backend}/{point.kernel}"
        )
        lines.append(
            f"{','.join(point.figures):20s} {point.routing:12s} "
            f"{point.pattern:14s} {point.load:6.3f} {point.seed:6d} "
            f"{latency:>9s} {point.accepted_load:9.3f} {engine:16s} "
            f"{point.digest[:16]}"
        )
    return "\n".join(lines)


def store_summary(root: Union[str, Path]) -> Dict[str, object]:
    """Root-level summary for ``status``: store size + per-figure counts."""
    store = ResultStore(Path(root) / "store")
    return {
        "points": len(store),
        "figures": store.figures(),
    }
