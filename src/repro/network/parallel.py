"""The sweep runner: one execution core for every simulated point.

Every point of a load sweep (and every seed of a replication) is an
independent, deterministic simulation: all randomness flows from the
point's own :class:`~repro.network.config.SimulationConfig`, never from
shared state.  So where and in what order points run changes wall-clock
time and nothing else -- results are *bit-identical* to a serial run,
which the equivalence tests and the golden fixtures under
``tests/golden/`` pin down.

:class:`SweepScheduler` is the one place points are executed.  It

* answers units from the point store (anything with ``get(key)`` /
  ``put(key, result)``) before simulating anything;
* runs the misses in-process, or -- with ``workers > 1`` and more than
  one miss -- shards them across worker *processes*.  Each worker owns a
  private task queue (so an assignment is never ambiguous) and a
  private result pipe, on which it sends heartbeats from a daemon
  thread and reports ``done`` / ``error``.  Nothing a worker writes is
  shared with another worker, so one that dies part way through a send
  closes only its own pipe.  A worker whose process exited,
  whose heartbeats went stale, or whose unit exceeded the per-unit
  timeout is killed and replaced, and its unit requeued with
  exponential backoff;
* bounds every unit to ``max_attempts`` tries, in-process or pooled;
* degrades to the in-process loop when the pool cannot be used
  (unpicklable inputs, processes that will not start) and says so: the
  diagnostic is logged on this module's logger, journaled, and returned
  in the report;
* narrates every state change to an optional journal (``append(event)``
  / ``replay()``), always *after* the point record is stored -- so a
  journaled ``done`` implies a durable record, and a killed run resumes
  by re-answering completed units from the store.

:class:`SweepExecutor` is that core over a bare
:class:`~repro.network.cache.SweepCache` directory (or no store at
all) with no journal; :mod:`repro.service` configures the same core
with a crash journal and the indexed result store.  Worker processes
receive the run's :class:`~repro.settings.Settings` as an argument;
they never consult their inherited environment.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..settings import Settings
from .cache import SweepCache, key_digest, point_key
from .config import SimulationConfig
from .stats import SimulationResult

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

_LOGGER = logging.getLogger(__name__)

@dataclass(frozen=True)
class PointSpec:
    """One simulation point: routing + pattern + full configuration.

    The routing algorithm travels by *name* (not instance) so each
    worker builds a fresh instance exactly as the serial sweep loop
    does, and so the spec stays trivially picklable and hashable.
    """

    routing_name: str
    pattern_name: str
    config: SimulationConfig


@dataclass(frozen=True)
class WorkUnit:
    """One content-addressed point of a batch."""

    #: Position in the batch's deterministic unit order.
    index: int
    #: Full auditable cache key (:func:`repro.network.cache.point_key`).
    key: Dict[str, object]
    #: What to simulate: routing + pattern + fully resolved config.
    spec: PointSpec

    @cached_property
    def digest(self) -> str:
        """SHA-256 of :attr:`key` -- the point's content address."""
        return key_digest(self.key)


def work_units(topology, specs: Sequence[PointSpec]) -> List[WorkUnit]:
    """``specs`` on ``topology`` as content-addressed units, in order."""
    return [
        WorkUnit(
            index,
            point_key(topology, spec.routing_name, spec.pattern_name, spec.config),
            spec,
        )
        for index, spec in enumerate(specs)
    ]


def _run_spec(
    topology, spec: PointSpec, settings: Optional[Settings] = None
) -> SimulationResult:
    """Worker body: simulate one point with fresh routing and pattern.

    Looks ``run_point`` up through the module at call time so tests can
    monkeypatch ``repro.network.sweep.run_point`` to count invocations.
    """
    from ..routing.ugal import make_routing
    from . import sweep

    routing = make_routing(spec.routing_name)
    return sweep.run_point(
        topology, routing, spec.pattern_name, spec.config, settings
    )


class ServiceError(RuntimeError):
    """A batch could not be completed (units failed permanently)."""


#: Base of the exponential retry backoff (seconds).
RETRY_BACKOFF = 0.25
#: How long the pool loop waits for a worker event (seconds).
POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class SchedulerOptions:
    """How :class:`~repro.service.client.ServiceExecutor` shards its
    batches; every other knob of a run is a :class:`Settings` field."""

    #: Worker process count; ``1`` runs in-process.
    workers: int = 1


@dataclass
class JobProgress:
    """Live counts of one batch, rendered on the service progress line."""

    total: int = 0
    #: Answered from the point store without simulating.
    cached: int = 0
    #: Of the cached units, how many a previous (crashed) run journaled.
    journaled: int = 0
    simulated: int = 0
    failed: int = 0
    running: int = 0
    retries: int = 0
    started_at: float = field(default_factory=time.monotonic)
    #: Wall-clock seconds of completed simulations (for the ETA).
    sim_elapsed: float = 0.0

    @property
    def done(self) -> int:
        return self.cached + self.simulated

    @property
    def remaining(self) -> int:
        return self.total - self.done - self.failed

    @property
    def hit_rate(self) -> float:
        return self.cached / self.done if self.done else 0.0

    def eta_seconds(self, workers: int = 1) -> Optional[float]:
        """Remaining-work estimate from the mean simulated-unit time."""
        if self.simulated == 0 or self.remaining == 0:
            return None
        mean = self.sim_elapsed / self.simulated
        return self.remaining * mean / max(1, workers)

    def line(self, workers: int = 1) -> str:
        """The one-line progress report (service ``submit`` verb)."""
        parts = [
            f"{self.done}/{self.total} done",
            f"{self.running} running",
            f"{self.failed} failed",
            f"cache {self.cached}/{self.done or 1} "
            f"({100.0 * self.hit_rate:.0f}% hit)",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        eta = self.eta_seconds(workers)
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "cached": self.cached,
            "journaled": self.journaled,
            "simulated": self.simulated,
            "failed": self.failed,
            "retries": self.retries,
            "hit_rate": self.hit_rate,
            "elapsed": time.monotonic() - self.started_at,
        }


@dataclass
class JobReport:
    """Outcome of one scheduler run."""

    job_id: str
    figure: str
    progress: JobProgress
    #: Unit index -> result, for every completed unit.
    results: Dict[int, SimulationResult]
    #: Unit index -> last error text, for permanently failed units.
    failed: Dict[int, str]
    #: Serial-fallback diagnostic (pickling/pool error), if any.
    fallback_error: Optional[str] = None
    #: The last exception an in-process attempt raised, if any.
    cause: Optional[BaseException] = None

    def raise_for_failures(self) -> None:
        """Raise :class:`ServiceError` naming every permanently failed
        unit with its original error text (``Type: message``), chained
        to the exception itself when the attempt ran in this process."""
        if self.failed:
            detail = "; ".join(
                f"unit {index}: {error}" for index, error in sorted(self.failed.items())
            )
            raise ServiceError(
                f"job {self.job_id}: {len(self.failed)} units failed "
                f"permanently ({detail})"
            ) from self.cause

    def ordered_results(self, count: int) -> List[SimulationResult]:
        self.raise_for_failures()
        return [self.results[index] for index in range(count)]


# ----------------------------------------------------------------------
# Worker process body
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    topology,
    settings: Settings,
    task_queue,
    results,
    heartbeat_interval: float,
    crash_flag: Optional[str],
) -> None:
    """Worker loop: heartbeat thread + one unit at a time.

    ``results`` is the write end of this worker's own pipe.  The
    heartbeat thread and the unit loop take turns on it under a
    ``threading.Lock``, which dies with the process: a worker killed in
    the middle of a send leaves nothing held that another process waits
    on.

    ``crash_flag`` is the fault-injection hook the crash-resume tests
    use: the first worker to claim the flag file deletes it and dies
    with ``os._exit`` mid-unit, exactly like a SIGKILL.
    """
    stop = threading.Event()
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            results.send(message)

    def beat() -> None:
        while not stop.is_set():
            try:
                send(("heartbeat", worker_id, None, None))
            except Exception:
                return
            stop.wait(heartbeat_interval)

    threading.Thread(target=beat, daemon=True).start()
    try:
        while True:
            item = task_queue.get()
            if item is None:
                break
            index, spec = item
            if crash_flag is not None:
                try:
                    os.unlink(crash_flag)
                except OSError:
                    pass  # another worker already crashed on the flag
                else:
                    os._exit(43)
            try:
                result = _run_spec(topology, spec, settings)
            except BaseException as exc:
                send(("error", worker_id, index, f"{type(exc).__name__}: {exc}"))
            else:
                send(("done", worker_id, index, result))
    finally:
        stop.set()


@dataclass
class _WorkerHandle:
    process: BaseProcess
    task_queue: object
    #: The read end of the worker's result pipe; ``None`` once it
    #: reached end-of-file (the worker is gone).
    results: Optional["Connection"]
    last_heartbeat: float
    assigned: Optional[int] = None
    assigned_at: float = 0.0


class SweepScheduler:
    """Run one batch of work units to completion (see module docstring).

    One instance runs once: results and attempt counts accumulate on it.
    """

    def __init__(
        self,
        topology,
        units: Sequence[WorkUnit],
        store=None,
        journal=None,
        workers: int = 1,
        settings: Optional[Settings] = None,
        job_id: str = "",
        figure: str = "adhoc",
        crash_flag: Optional[str] = None,
    ) -> None:
        self.topology = topology
        self.units = list(units)
        #: ``get(key)`` / ``put(key, result)``, or ``None`` for no store.
        self.store = store
        #: ``append(event)`` / ``replay()``, or ``None`` for no journal.
        self.journal = journal
        #: Worker process count; ``1`` runs in-process.
        self.workers = workers
        #: What every point's engine is built from, and the retry,
        #: timeout and heartbeat knobs (default: the environment, read
        #: once per run in this process).
        self.settings = settings
        #: Labels on the journal's ``job`` event and on the report.
        self.job_id = job_id
        self.figure = figure
        #: Test-only fault injection; see :func:`_worker_main`.
        self.crash_flag = crash_flag
        self.progress = JobProgress()
        self.results: Dict[int, SimulationResult] = {}
        self.failed: Dict[int, str] = {}
        self.fallback_error: Optional[str] = None
        self._attempts: Dict[int, int] = {}
        self._cause: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def run(
        self,
        on_progress: Optional[Callable[[JobProgress], None]] = None,
    ) -> JobReport:
        """Execute every unit; resume from the journal if it has one."""
        state = self.journal.replay() if self.journal is not None else None
        done = state.done if state is not None else {}
        notify = on_progress or (lambda progress: None)
        progress = self.progress
        progress.total = len(self.units)

        pending: List[int] = []
        for unit in self.units:
            journaled = bool(done) and unit.digest in done
            hit = self.store.get(unit.key) if self.store is not None else None
            if hit is not None:
                self.results[unit.index] = hit
                progress.cached += 1
                if journaled:
                    progress.journaled += 1
                else:
                    self._emit("cached", unit)
                continue
            if journaled:
                # Journaled complete but the record vanished (gc'd or a
                # different store): recompute, loudly.
                self._emit("recompute", unit)
            pending.append(unit.index)

        self._emit(
            "job",
            job=self.job_id,
            figure=self.figure,
            units=len(self.units),
            pending=len(pending),
            resumed=bool(state is not None and state.events),
            workers=self.workers,
        )
        notify(progress)

        if pending:
            settings = self.settings = self.settings or Settings.from_env()
            if self.workers > 1 and len(pending) > 1 and self._picklable(pending):
                try:
                    self._run_pool(pending, notify, settings)
                except OSError as exc:
                    self._note_fallback("worker pool failed", exc)
                pending = [
                    index for index in pending
                    if index not in self.results and index not in self.failed
                ]
            self._run_inline(pending, notify, settings)

        if self.journal is not None:
            self._emit("complete", job=self.job_id, **progress.to_dict())
        notify(progress)
        return JobReport(
            job_id=self.job_id,
            figure=self.figure,
            progress=progress,
            results=self.results,
            failed=self.failed,
            fallback_error=(
                self.fallback_error
                or (state.last_fallback if state is not None else None)
            ),
            cause=self._cause,
        )

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------
    def _emit(
        self, event: str, unit: Optional[WorkUnit] = None, **fields: object
    ) -> None:
        """Journal one event (a no-op, digest included, without one)."""
        if self.journal is None:
            return
        if unit is not None:
            fields["unit"] = unit.digest
        self.journal.append({"event": event, **fields})

    def _picklable(self, pending: Sequence[int]) -> bool:
        """Pre-flight check so unpicklable inputs degrade to the
        in-process loop instead of a half-started pool."""
        specs = [self.units[index].spec for index in pending]
        try:
            pickle.dumps((self.topology, specs, self.settings))
            return True
        except Exception as exc:  # noqa: BLE001 - whatever pickling raised
            self._note_fallback("pre-flight pickle check failed", exc)
            return False

    def _note_fallback(self, why: str, exc: BaseException) -> None:
        """Never silent: a sweep quietly running serial because a
        topology grew an unpicklable member is near-impossible to
        diagnose otherwise."""
        self.fallback_error = (
            f"{why}; running serial: {type(exc).__name__}: {exc}"
        )
        _LOGGER.warning(
            "sweep runner falling back to serial execution (%s)",
            self.fallback_error,
        )
        self._emit("fallback", error=self.fallback_error)

    def _start_attempt(self, index: int, worker: object) -> None:
        self._attempts[index] = self._attempts.get(index, 0) + 1
        self._emit(
            "start", self.units[index],
            attempt=self._attempts[index], worker=worker,
        )

    def _complete_unit(
        self, index: int, result: SimulationResult, elapsed: float
    ) -> None:
        unit = self.units[index]
        # Store first, journal second: a journaled ``done`` implies a
        # durable point record, the invariant resume relies on.
        if self.store is not None:
            self.store.put(unit.key, result)
        self._emit("done", unit, elapsed=elapsed)
        self.results[index] = result
        self.progress.simulated += 1
        self.progress.sim_elapsed += elapsed

    def _fail_attempt(
        self, index: int, error: str, max_attempts: int
    ) -> Optional[float]:
        """Journal a failed attempt; the backoff delay before the unit
        may retry, or ``None`` when it has failed permanently."""
        attempt = self._attempts[index]
        permanent = attempt >= max_attempts
        self._emit(
            "failed", self.units[index],
            attempt=attempt, error=error, permanent=permanent,
        )
        if permanent:
            self.failed[index] = error
            self.progress.failed += 1
            return None
        self.progress.retries += 1
        return RETRY_BACKOFF * (2 ** (attempt - 1))

    # ------------------------------------------------------------------
    # In-process execution
    # ------------------------------------------------------------------
    def _run_inline(
        self,
        pending: Sequence[int],
        notify: Callable[[JobProgress], None],
        settings: Settings,
    ) -> None:
        progress = self.progress
        for index in pending:
            delay: Optional[float] = 0.0
            while delay is not None:
                if delay:
                    time.sleep(delay)
                self._start_attempt(index, "inline")
                progress.running = 1
                notify(progress)
                started = time.monotonic()
                try:
                    result = _run_spec(
                        self.topology, self.units[index].spec, settings
                    )
                except Exception as exc:  # noqa: BLE001 - journaled + retried
                    self._cause = exc
                    delay = self._fail_attempt(
                        index, f"{type(exc).__name__}: {exc}", settings.max_attempts
                    )
                else:
                    self._complete_unit(
                        index, result, time.monotonic() - started
                    )
                    delay = None
            progress.running = 0
            notify(progress)

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    def _run_pool(
        self,
        pending: Sequence[int],
        notify: Callable[[JobProgress], None],
        settings: Settings,
    ) -> None:
        # Imported here, the only code that forks: a batch answered from
        # its store, or run in-process, never loads it.
        import multiprocessing
        from multiprocessing.connection import wait

        progress = self.progress
        ctx = multiprocessing.get_context()
        workers: Dict[int, _WorkerHandle] = {}
        next_worker_id = 0
        #: Units eligible to dispatch: (not-before time, unit index).
        ready: List[tuple] = [(0.0, index) for index in pending]
        outstanding = set(pending)
        heartbeat_grace = max(5.0 * settings.heartbeat_interval, 2.0)

        def spawn() -> None:
            nonlocal next_worker_id
            worker_id = next_worker_id
            next_worker_id += 1
            task_queue = ctx.Queue()
            reader, writer = ctx.Pipe(duplex=False)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    worker_id,
                    self.topology,
                    settings,
                    task_queue,
                    writer,
                    settings.heartbeat_interval,
                    self.crash_flag,
                ),
                daemon=True,
            )
            process.start()
            # Only the worker writes: once it is gone, the reader sees
            # end-of-file.
            writer.close()
            workers[worker_id] = _WorkerHandle(
                process=process,
                task_queue=task_queue,
                results=reader,
                last_heartbeat=time.monotonic(),
            )

        def close_results(handle: _WorkerHandle) -> None:
            if handle.results is not None:
                handle.results.close()
                handle.results = None

        def requeue(index: int, error: str) -> None:
            delay = self._fail_attempt(index, error, settings.max_attempts)
            if delay is None:
                outstanding.discard(index)
            else:
                ready.append((time.monotonic() + delay, index))

        def retire(worker_id: int, error: str) -> None:
            """Kill a dead/wedged worker, requeueing its assignment."""
            handle = workers.pop(worker_id)
            if handle.process.is_alive():
                handle.process.terminate()
            handle.process.join(timeout=5.0)
            close_results(handle)
            assigned = handle.assigned
            self._emit(
                "worker-dead",
                None if assigned is None else self.units[assigned],
                worker=worker_id,
                error=error,
            )
            if assigned is not None:
                requeue(assigned, error)

        try:
            last_progress = 0.0
            while outstanding:
                # Keep the pool full while work is left (first fill, and
                # top-ups after workers died).
                while len(workers) < min(self.workers, len(outstanding)):
                    spawn()
                now = time.monotonic()
                # Dispatch ready units to idle workers.
                idle = [
                    (worker_id, handle) for worker_id, handle in workers.items()
                    if handle.assigned is None
                ]
                if idle and ready:
                    ready.sort()
                    for worker_id, handle in idle:
                        if not ready or ready[0][0] > now:
                            break
                        _, index = ready.pop(0)
                        if index not in outstanding:
                            continue
                        handle.assigned = index
                        handle.assigned_at = now
                        self._start_attempt(index, worker_id)
                        handle.task_queue.put((index, self.units[index].spec))

                # Drain worker events: every message each ready pipe
                # holds.  A pipe at end-of-file -- its worker exited,
                # perhaps part way through a message -- is closed; the
                # liveness check below retires the worker.
                readers = {
                    handle.results: handle for handle in workers.values()
                    if handle.results is not None
                }
                for reader in wait(list(readers), timeout=POLL_INTERVAL):
                    handle = readers[reader]
                    try:
                        while handle.results is not None and reader.poll():
                            kind, _, index, payload = reader.recv()
                            handle.last_heartbeat = time.monotonic()
                            if kind == "done":
                                self._complete_unit(
                                    index, payload,
                                    time.monotonic() - handle.assigned_at,
                                )
                                outstanding.discard(index)
                                handle.assigned = None
                            elif kind == "error":
                                requeue(index, str(payload))
                                handle.assigned = None
                    except (EOFError, OSError):
                        close_results(handle)

                # Detect dead or wedged workers.
                now = time.monotonic()
                for worker_id in list(workers):
                    handle = workers[worker_id]
                    if not handle.process.is_alive():
                        retire(worker_id, "worker process died")
                    elif now - handle.last_heartbeat > heartbeat_grace:
                        retire(worker_id, "worker heartbeat lost")
                    elif (
                        handle.assigned is not None
                        and now - handle.assigned_at > settings.unit_timeout
                    ):
                        retire(
                            worker_id,
                            f"unit exceeded {settings.unit_timeout:.1f}s timeout",
                        )

                progress.running = sum(
                    1 for h in workers.values() if h.assigned is not None
                )
                if now - last_progress > 0.2:
                    last_progress = now
                    notify(progress)
        finally:
            for handle in workers.values():
                try:
                    handle.task_queue.put(None)
                except Exception:
                    pass
            deadline = time.monotonic() + 5.0
            for handle in workers.values():
                handle.process.join(timeout=max(0.1, deadline - time.monotonic()))
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=1.0)
                close_results(handle)
            progress.running = 0


@dataclass
class SweepExecutor:
    """The sweep runner over a plain cache directory, with no journal."""

    #: Worker-process count; ``1`` (the default) runs in-process.
    workers: int = 1
    #: Result cache consulted before and filled after simulation.
    cache: Optional[SweepCache] = None
    #: Counts of how points were satisfied, for reporting.
    stats: Dict[str, int] = field(
        default_factory=lambda: {"cached": 0, "simulated": 0, "fallbacks": 0}
    )
    #: Why the last fall-back to serial execution happened (the
    #: underlying pickling or pool error), ``None`` when it never did.
    last_fallback_error: Optional[str] = None
    #: Engine settings of every point this executor simulates, handed
    #: to in-process runs and to workers alike (default: the
    #: environment, read once per batch that has anything to simulate).
    settings: Optional[Settings] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_point(
        self,
        topology,
        routing_name: str,
        pattern_name: str,
        config: SimulationConfig,
    ) -> SimulationResult:
        """One point through the cache (a single point never forks)."""
        return self.run_points(
            topology, [PointSpec(routing_name, pattern_name, config)]
        )[0]

    def run_points(
        self, topology, specs: Sequence[PointSpec]
    ) -> List[SimulationResult]:
        """Simulate ``specs``, returning results in the same order.

        A point that still raises after ``max_attempts`` tries fails the
        batch with :class:`ServiceError` carrying the original error
        text (see :meth:`JobReport.raise_for_failures`).
        """
        report = self._run(topology, work_units(topology, specs))
        self.stats["cached"] += report.progress.cached
        self.stats["simulated"] += report.progress.simulated
        if report.fallback_error is not None:
            self.stats["fallbacks"] += 1
            self.last_fallback_error = report.fallback_error
        return report.ordered_results(len(specs))

    def _run(self, topology, units: List[WorkUnit]) -> JobReport:
        return SweepScheduler(
            topology,
            units,
            store=self.cache,
            workers=self.workers,
            settings=self.settings,
        ).run()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary_line(self) -> str:
        """One-line account of how the sweep's points were satisfied."""
        answered = self.stats["cached"] + self.stats["simulated"]
        hit_rate = self.stats["cached"] / answered if answered else 0.0
        parts = [
            f"{answered} points: {self.stats['cached']} cached + "
            f"{self.stats['simulated']} simulated "
            f"({100.0 * hit_rate:.1f}% hit rate)"
        ]
        if self.cache is not None:
            counters = self.cache.counters()
            parts.append(
                f"cache {counters['hits']} hits / {counters['misses']} misses"
                f" / {counters['invalidations']} invalidated"
            )
        if self.stats["fallbacks"]:
            parts.append(f"{self.stats['fallbacks']} serial fallbacks")
        if self.last_fallback_error is not None:
            parts.append(f"last fallback: {self.last_fallback_error}")
        return "; ".join(parts)
