"""Append-only crash journal for sweep jobs.

One JSON object per line, flushed and fsync'd per event, so the journal
survives a SIGKILL of the service mid-sweep.  On restart
:meth:`Journal.replay` folds the surviving prefix into a
:class:`JournalState`: which unit digests completed, how many attempts
each unit burned, and any serial-fallback diagnostics -- everything the
scheduler needs to resume without recomputing completed points and
everything the ``status`` verb needs to narrate a job.

A truncated final line (the crash landed mid-write) is ignored, and the
next append cuts it off; every earlier line was durable before the
corresponding state change was acted on (results are stored *before*
their ``done`` event, so a journaled-complete unit always has its point
record).  A crash cannot garble a line that others follow, so such a
line raises :class:`JournalCorruptError` instead of silently dropping
every later event.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union


@dataclass
class JournalState:
    """Replay of a job journal: the durable progress of a sweep."""

    #: Unit digests with a journaled ``done`` event.
    done: Dict[str, float] = field(default_factory=dict)
    #: Unit digests answered straight from the result store.
    cached: List[str] = field(default_factory=list)
    #: Attempts burned per unit digest (``start`` events seen).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Permanently failed units: digest -> last error text.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Most recent serial-fallback diagnostic, if any.
    last_fallback: Optional[str] = None
    #: All events, in order (for ``status`` rendering).
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return any(e.get("event") == "complete" for e in self.events)


class JournalCorruptError(ValueError):
    """A journal line that is not a JSON event, with more lines after it."""


class Journal:
    """Durable event log of one sweep job."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Byte offset of a torn final line :meth:`replay` found; the
        #: next :meth:`append` truncates the file there.
        self._torn_at: Optional[int] = None

    def append(self, event: Dict[str, object]) -> None:
        """Durably append one event (timestamped, fsync'd)."""
        record = dict(event)
        record.setdefault("t", time.time())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            if self._torn_at is not None:
                # Written after it, the torn line would garble this one.
                handle.truncate(self._torn_at)
                self._torn_at = None
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def replay(self) -> JournalState:
        """Fold the journal (if any) into the job's durable state.

        Raises :class:`JournalCorruptError` naming the file and the
        1-based line number when a line that is not a JSON event has
        more lines after it.
        """
        state = JournalState()
        try:
            data = self.path.read_bytes()
        except OSError:
            return state
        lines = data.split(b"\n")
        offset = 0
        for number, raw in enumerate(lines, start=1):
            start, offset = offset, offset + len(raw) + 1
            if not raw.strip():
                continue
            try:
                event = json.loads(raw.decode("utf-8"))
            except ValueError:
                following = sum(1 for rest in lines[number:] if rest.strip())
                if following:
                    raise JournalCorruptError(
                        f"{self.path}: line {number} is not a JSON event "
                        f"and {following} more lines follow it"
                    ) from None
                # A crash mid-append leaves at most one torn final line.
                self._torn_at = start
                break
            if not isinstance(event, dict):
                continue
            kind = event.get("event")
            digest = event.get("unit")
            elapsed = 0.0
            if kind == "done":
                try:
                    elapsed = float(event.get("elapsed", 0.0))  # type: ignore[arg-type]
                except (TypeError, ValueError):
                    # A damaged event is skipped (the unit is then not
                    # done, and a resume re-answers it from the store).
                    continue
            state.events.append(event)
            if kind == "start" and isinstance(digest, str):
                state.attempts[digest] = state.attempts.get(digest, 0) + 1
            elif kind == "done" and isinstance(digest, str):
                state.done[digest] = elapsed
                state.failed.pop(digest, None)
            elif kind == "cached" and isinstance(digest, str):
                state.cached.append(digest)
            elif kind == "failed" and isinstance(digest, str):
                if event.get("permanent"):
                    state.failed[digest] = str(event.get("error", "unknown error"))
            elif kind == "fallback":
                state.last_fallback = str(event.get("error", "unknown error"))
        return state
