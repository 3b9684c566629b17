"""In-memory span recorder for the pipeline benchmark's traced passes.

A span is ``(name, start, end, parent id, workload id)`` with times in
``time.monotonic()`` seconds (comparable across processes on one boot,
so the parent's spawn instant can open the root span).  Spans are kept
in a list and written out once, when the pass ends; nothing is written
while the workload runs.

Self time is a span's duration minus the part of it its direct child
spans cover, so the self times of a tree sum to the root's duration:
what the layers do not account for shows as the root's (or a unit's)
own self time instead of vanishing.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union


class Recorder:
    """Records the spans of one traced pass of one workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    def begin(self, name: str, start: Optional[float] = None, **attrs: object) -> int:
        """Open a span under the innermost open one; returns its id."""
        span: Dict[str, object] = {
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        span.update(attrs)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, span_id: int) -> None:
        if not self._open or self._open[-1] != span_id:
            raise ValueError("spans must close innermost first")
        self.spans[span_id]["end"] = time.monotonic()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[int]:
        span_id = self.begin(name, **attrs)
        try:
            yield span_id
        finally:
            self.end(span_id)

    def write(self, path: Union[str, Path]) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"workload": self.workload, "spans": self.spans}, indent=1),
            encoding="utf-8",
        )


def self_times(spans: Sequence[Dict[str, object]]) -> List[float]:
    """Self time of every span: duration minus covered child time.

    Children are clipped to their parent and overlapping children are
    counted once, so a self time is never negative.
    """
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        parent = span["parent"]
        if parent is not None:
            children.setdefault(int(parent), []).append(index)  # type: ignore[call-overload]
    result = []
    for index, span in enumerate(spans):
        start, end = float(span["start"]), float(span["end"])  # type: ignore[arg-type]
        covered = 0.0
        cursor = start
        intervals = sorted(
            (float(spans[c]["start"]), float(spans[c]["end"]))  # type: ignore[arg-type]
            for c in children.get(index, [])
        )
        for child_start, child_end in intervals:
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result.append((end - start) - covered)
    return result
