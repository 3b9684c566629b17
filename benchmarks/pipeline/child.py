#!/usr/bin/env python
"""One pass of one pipeline-benchmark workload, in a fresh process.

``run.py`` starts this script once per pass and reads the single JSON
line it prints: timing samples per unit of work, exact counts, one
digest per unit and the units that failed.  Every layer is measured
from outside, by timing calls into its public functions; nothing under
``src/`` is instrumented.

Untraced passes drive the real entry points (``SweepExecutor.run_points``,
``ServiceExecutor.run_points``, ``Simulator.run``, ``run_passes``) and
take two clock readings per unit.  Traced passes (``--trace``) record a
span per layer call; for the sweep workloads that means mirroring
``SweepExecutor.run_points`` with the same public calls it makes, and
the digests must come out identical to the untraced ones.

Load model: closed loop, one client -- each unit is issued when the
previous one returns.  All times are host time.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_PROCESS_START = time.monotonic()

WORKLOADS = (
    "sweep72_cold",
    "sweep72_warm",
    "service72_cold",
    "paper1k_array",
    "check_all",
)


def _grid_72() -> Tuple[Tuple[str, str, str, float, Dict[str, object]], ...]:
    """The 14-point Fig. 8-style grid: unit name ("<point class>.<routing>
    [@<load>]"), routing, pattern, load, config overrides.  MIN under
    worst-case traffic saturates at 1/8, so both of its worst-case points
    are ``oversat``: full buffers and a drain of thousands of cycles."""
    grid: List[Tuple[str, str, str, float, Dict[str, object]]] = []
    for routing in ("MIN", "VAL", "UGAL-L", "UGAL-G"):
        grid.append((f"uniform.{routing}", routing, "uniform_random", 0.5, {}))
        for load in (0.2, 0.45):
            name = "oversat" if routing == "MIN" else "worst_case"
            grid.append((f"{name}.{routing}@{load}", routing, "worst_case", load, {}))
    grid.append(("multiflit.UGAL-L", "UGAL-L", "uniform_random", 0.2, {"packet_size": 4}))
    grid.append((
        "reqreply.UGAL-L", "UGAL-L", "uniform_random", 0.2,
        {"request_reply": True, "num_vcs": 6},
    ))
    return tuple(grid)


GRID_72 = _grid_72()

#: The two 1056-terminal points (UGAL-L, array backend).
GRID_1K: Tuple[Tuple[str, str, float], ...] = (
    ("paper1k_wc", "worst_case", 0.2),
    ("paper1k_ur", "uniform_random", 0.5),
)

#: Warm-up = measurement cycles of a 1056-terminal point.
CYCLES_1K = 500

CHECK_PASSES = ("cdg", "symbolic", "tables", "faults", "invariants", "lint")

#: ``sweep72_warm`` reads the grid this many times, each time through a
#: new executor and cache object (70 hits, 0 simulations).
WARM_READINGS = 5

POINT_CLASSES = (
    "uniform", "worst_case", "oversat", "multiflit", "reqreply",
    "paper1k_wc", "paper1k_ur",
)

SpanFactory = Callable[..., "contextlib.AbstractContextManager[object]"]


def point_class(unit: str) -> str:
    return unit.split(".")[0]


def result_digest(result) -> str:
    """sha256 of the canonical JSON of ``SimulationResult.to_dict()``."""
    canonical = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


_CALIBRATION_TABLE = {index: index % 7 for index in range(256)}


def calibration_chunk() -> float:
    """Host time of a fixed pure-Python loop (~5 ms): how fast the
    machine is right now.  Reported as ``machine.chunk_ms`` so a reader
    can tell a slow machine from slow code; no sample is rescaled by it."""
    start = time.perf_counter()
    total = 0
    table = _CALIBRATION_TABLE
    for value in range(60_000):
        total += table[value & 255] + (value * value) % 7
    return time.perf_counter() - start


def _no_span(name: str, **attrs: object) -> "contextlib.AbstractContextManager[object]":
    return contextlib.nullcontext()


class PassLog:
    """What one pass reports to ``run.py``."""

    def __init__(self, span: SpanFactory) -> None:
        self.span = span
        #: ``"<unit>|wall"`` / ``"<unit>|cpu"`` -> seconds.
        self.samples: Dict[str, float] = {}
        #: Exact counts; every pass of a run must report the same ones.
        self.counts: Dict[str, float] = {}
        #: Measured ratios and latencies that are not host-time samples.
        self.values: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        #: name -> {"reason": ..., "units": how many units that fails}.
        self.failed: Dict[str, Dict[str, object]] = {}
        self.attempted = 0
        #: Calibration chunk times, one after set-up and after every unit.
        self.calibration: List[float] = []

    def calibrate(self) -> None:
        self.calibration.append(calibration_chunk())

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def fail(self, name: str, reason: str, units: int = 1) -> None:
        self.failed[name] = {"reason": reason, "units": units}

    def digest(self, name: str, digest: str) -> None:
        if self.digests.setdefault(name, digest) != digest:
            self.fail(name, "digest changed within one pass")

    @contextlib.contextmanager
    def unit(self, name: str, units: int = 1) -> Iterator[None]:
        """Time one unit of work (the calibration loop runs after it,
        outside the timing); an exception marks the unit failed.

        This is the boundary that must keep running: a unit that raises
        is reported with its traceback and the pass goes on.
        """
        self.attempted += units
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            with self.span("unit", unit=name):
                yield
        except Exception as exc:  # noqa: BLE001 - reported per unit
            traceback.print_exc(file=sys.stderr)
            self.fail(name, f"{type(exc).__name__}: {exc}", units)
        finally:
            self.samples[f"{name}|wall"] = time.perf_counter() - start
            self.samples[f"{name}|cpu"] = cpu_seconds() - cpu0
            self.calibrate()


# ----------------------------------------------------------------------
# The 72-terminal sweep workloads
# ----------------------------------------------------------------------
def grid_72(seed: int, smoke: bool):
    """The grid's ``(unit name, PointSpec)`` pairs for ``seed``."""
    from repro.experiments.base import experiment_config
    from repro.network.parallel import PointSpec

    base = dataclasses.replace(experiment_config(quick=True), seed=seed)
    grid = GRID_72[:2] if smoke else GRID_72
    return [
        (name, PointSpec(routing, pattern, dataclasses.replace(base, load=load, **extra)))
        for name, routing, pattern, load, extra in grid
    ]


def simulate_point(span: SpanFactory, topology, spec, backend: Optional[str] = None):
    """``repro.network.sweep.run_point`` with a span per layer call.

    Returns ``(simulator, result)``; the simulator is kept so the caller
    can read ``state_view()`` counters.
    """
    from repro.network.backend import make_simulator
    from repro.network.traffic import make_pattern
    from repro.routing.ugal import make_routing

    with span("routing.make"):
        routing = make_routing(spec.routing_name)
    with span("traffic.make"):
        pattern = make_pattern(spec.pattern_name, topology, seed=spec.config.seed + 17)
    with span("engine.construct"):
        sim = make_simulator(topology, routing, pattern, spec.config, backend=backend)
    with span("engine.run"):
        result = sim.run()
    return sim, result


def count_engine(log: PassLog, unit: str, sim, result) -> None:
    """Simulated-work counts of one point; they must repeat exactly."""
    name = point_class(unit)
    log.count(f"engine.sim_cycles.{name}", result.total_cycles)
    log.count(f"engine.flits_delivered.{name}", sim.state_view().flits_delivered)


def probe_stats(log: PassLog, unit: str, result) -> None:
    """Time the stats layer's own calls beside the unit (traced only).

    ``cache.put``/``cache.get`` call ``to_dict``/``from_dict`` inside
    themselves where no outside span can reach, so the same calls are
    repeated here on the same result.
    """
    from repro.network.stats import SimulationResult

    log.count("stats.samples", len(result.samples))
    with log.span("probe", unit=f"probe:{unit}"):
        with log.span("stats.to_dict"):
            data = result.to_dict()
        with log.span("stats.from_dict"):
            SimulationResult.from_dict(data)
        with log.span("stats.summarise"):
            result.avg_latency
            result.latency_percentile(99.0)
            result.accepted_load
            result.global_channel_utilization()


class Sweep72:
    """``sweep72_cold`` and ``sweep72_warm``: serial executor + cache."""

    def __init__(self, args: argparse.Namespace, warm: bool) -> None:
        self.args = args
        self.warm = warm
        self.cache_dir = Path(args.cache_dir) if warm else Path(args.work_dir) / "cache"

    def setup(self, log: PassLog) -> None:
        from repro.experiments.base import experiment_topology

        with log.span("topology.build"):
            self.topology = experiment_topology(quick=True)
        self.specs = grid_72(self.args.seed, self.args.smoke)
        self.executor = self.new_executor()

    def new_executor(self):
        from repro.network.cache import SweepCache
        from repro.network.parallel import SweepExecutor

        return SweepExecutor(workers=1, cache=SweepCache(self.cache_dir))

    def populate(self, log: PassLog) -> None:
        """Fill the cache directory the warm passes read.  Not timed, so
        it uses both cores to keep the run short."""
        from repro.network.cache import SweepCache
        from repro.network.parallel import SweepExecutor

        executor = SweepExecutor(workers=2, cache=SweepCache(self.cache_dir))
        results = executor.run_points(self.topology, [s for _, s in self.specs])
        for (name, _), result in zip(self.specs, results):
            log.digest(name, result_digest(result))

    def run(self, log: PassLog) -> None:
        trace = self.args.trace
        readings = WARM_READINGS if self.warm and not self.args.smoke else 1
        for reading in range(readings):
            if reading:
                # Every reading starts from a new executor and cache
                # object, as a re-run of a figure script does.
                self.executor = self.new_executor()
            for name, spec in self.specs:
                result = None
                with log.unit(f"{name}#{reading}" if self.warm else name):
                    if trace:
                        result = self.point_traced(log, name, spec)
                    else:
                        result = self.executor.run_points(self.topology, [spec])[0]
                if result is not None:
                    log.digest(name, result_digest(result))
                    if trace and reading == 0:
                        probe_stats(log, name, result)
            served = self.executor.stats["cached" if self.warm else "simulated"]
            if not trace and served != len(self.specs):
                log.fail("executor", f"not every point {self.executor.stats}", len(self.specs))
            counters = self.executor.cache.counters()
            log.count("cache.hits", counters["hits"])
            log.count("cache.misses", counters["misses"])
        if not self.warm:
            log.count(
                "cache.bytes_written",
                sum(path.stat().st_size for path in self.cache_dir.glob("*.json")),
            )

    def point_traced(self, log: PassLog, name: str, spec):
        """``SweepExecutor.run_points([spec])`` call for call, with spans."""
        from repro.network.cache import point_key

        cache = self.executor.cache
        with log.span("cache.key"):
            key = point_key(self.topology, spec.routing_name, spec.pattern_name, spec.config)
        with log.span("cache.get"):
            result = cache.get(key)
        if self.warm:
            if result is None:
                raise RuntimeError("cache miss on a populated directory")
            return result
        if result is not None:
            raise RuntimeError("cache hit in a fresh directory")
        sim, result = simulate_point(log.span, self.topology, spec)
        count_engine(log, name, sim, result)
        with log.span("cache.key"):
            key = point_key(self.topology, spec.routing_name, spec.pattern_name, spec.config)
        with log.span("cache.put"):
            cache.put(key, result)
        return result


# ----------------------------------------------------------------------
# The same grid through the sweep service
# ----------------------------------------------------------------------
class Service72:
    """``service72_cold``: one journaled two-worker batch."""

    #: = nproc of the sizing box; the benchmark's only concurrency.
    WORKERS = 2

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.root = Path(args.work_dir) / "service"

    def setup(self, log: PassLog) -> None:
        from repro.experiments.base import experiment_topology
        from repro.service import SchedulerOptions, ServiceExecutor

        with log.span("topology.build"):
            self.topology = experiment_topology(quick=True)
        self.specs = grid_72(self.args.seed, self.args.smoke)
        self.executor = ServiceExecutor(
            self.root, options=SchedulerOptions(workers=self.WORKERS)
        )

    def run(self, log: PassLog) -> None:
        specs = [spec for _, spec in self.specs]
        results: Sequence[object] = ()
        with log.unit("batch", units=len(specs)):
            with log.span("service.run_points"):
                results = self.executor.run_points(self.topology, specs)
        for (name, _), result in zip(self.specs, results):
            log.digest(name, result_digest(result))
        if results and self.executor.stats["simulated"] != len(specs):
            log.fail("batch", f"not every point simulated: {self.executor.stats}", len(specs))
        if self.args.trace and results:
            self.read_journal(log)
            self.serial_reference(log)
            self.probe_store(log, results)

    def read_journal(self, log: PassLog) -> None:
        """Unit latency and worker idle share from the job's journal."""
        from repro.service.journal import Journal

        journal_path = next(self.root.glob("jobs/*/journal.jsonl"))
        events = Journal(journal_path).replay().events
        started: Dict[object, float] = {}
        latencies: List[float] = []
        for event in events:
            stamp = float(event["t"])  # type: ignore[arg-type]
            if event.get("event") == "start":
                started[event["unit"]] = stamp
            elif event.get("event") == "done" and event["unit"] in started:
                latencies.append(stamp - started[event["unit"]])
        job_span = float(events[-1]["t"]) - float(events[0]["t"])  # type: ignore[arg-type]
        log.values["service.unit_latency_p50_s"] = statistics.median(latencies)
        log.values["service.idle_frac"] = 1.0 - sum(latencies) / (self.WORKERS * job_span)
        log.count("service.journal.events", len(events))
        log.count("service.retries", sum(1 for e in events if e.get("event") == "failed"))

    def serial_reference(self, log: PassLog) -> None:
        """The grid again in-process: the engine time the batch holds."""
        for name, spec in self.specs:
            with log.span("reference", unit=f"ref:{name}"):
                sim, result = simulate_point(log.span, self.topology, spec)
            count_engine(log, name, sim, result)
            if result_digest(result) != log.digests[name]:
                log.fail(name, "service result differs from the in-process result")

    def probe_store(self, log: PassLog, results: Sequence[object]) -> None:
        """Journal and store primitives on scratch files."""
        from repro.network.cache import point_key
        from repro.service.journal import Journal
        from repro.service.store import ResultStore

        scratch = Path(self.args.work_dir) / "scratch"
        journal = Journal(scratch / "journal.jsonl")
        appends = 20 if self.args.smoke else 200
        log.count("service.journal.appends", appends)
        keys = [
            point_key(self.topology, s.routing_name, s.pattern_name, s.config)
            for _, s in self.specs
        ]
        store = ResultStore(scratch / "store")
        with log.span("probe", unit="probe:store"):
            with log.span("service.journal.append"):
                for index in range(appends):
                    journal.append({"event": "probe", "unit": index})
            with log.span("service.store.put"):
                for key, result in zip(keys, results):
                    store.put(key, result, figure="probe")
            with log.span("service.store.query"):
                found = store.query(figure="probe")
            with log.span("service.store.reindex"):
                store.reindex()
        if len(found) != len(keys):
            log.fail("store", "query did not return every stored point")


# ----------------------------------------------------------------------
# The paper's 1056-terminal scale on the array backend
# ----------------------------------------------------------------------
class Paper1kArray:
    """``paper1k_array``: two bare ``make_simulator(...).run()`` points."""

    EXPECTED_ENGINE = {"backend": "array", "kernel": "decide-v1"}

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args

    def setup(self, log: PassLog) -> None:
        from repro.core.params import DragonflyParams
        from repro.network.backend import make_simulator
        from repro.network.config import SimulationConfig
        from repro.network.parallel import PointSpec
        from repro.network.traffic import make_pattern
        from repro.routing.ugal import make_routing
        from repro.topology.dragonfly import Dragonfly

        with log.span("topology.build"):
            self.topology = Dragonfly(DragonflyParams.paper_1k())
        self.points = []
        for name, pattern_name, load in GRID_1K[:1] if self.args.smoke else GRID_1K:
            config = SimulationConfig(
                load=load,
                warmup_cycles=CYCLES_1K,
                measure_cycles=CYCLES_1K,
                drain_max_cycles=5000,
                seed=self.args.seed,
            )
            with log.span("routing.make"):
                routing = make_routing("UGAL-L")
            with log.span("traffic.make"):
                pattern = make_pattern(pattern_name, self.topology, seed=config.seed + 17)
            with log.span("engine.construct"):
                sim = make_simulator(
                    self.topology, routing, pattern, config, backend="array"
                )
            self.points.append((name, PointSpec("UGAL-L", pattern_name, config), sim))

    def run(self, log: PassLog) -> None:
        for name, _, sim in self.points:
            result = None
            with log.unit(name):
                with log.span("engine.run"):
                    result = sim.run()
            if result is None:
                continue
            log.digest(name, result_digest(result))
            if result.backend_info != self.EXPECTED_ENGINE:
                # A kernel fallback is a failed operation, not a slow one.
                log.fail(name, f"engine tier {result.backend_info}")
            if self.args.trace:
                count_engine(log, name, sim, result)
        if self.args.trace and not self.args.smoke:
            self.scalar_reference(log)

    def scalar_reference(self, log: PassLog) -> None:
        """The worst-case point on the scalar engine (speed-up base)."""
        name, spec, _ = self.points[0]
        with log.span("reference", unit="ref:scalar"):
            _, result = simulate_point(log.span, self.topology, spec, backend="scalar")
        if result_digest(result) != log.digests.get(name):
            log.fail(name, "array result differs from the scalar result")


# ----------------------------------------------------------------------
# The static-analysis passes
# ----------------------------------------------------------------------
class CheckAll:
    """``check_all``: the six ``repro.check`` passes once each, in-process."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args

    def setup(self, log: PassLog) -> None:
        from repro.check.__main__ import run_passes

        self.run_passes = run_passes
        self.passes = CHECK_PASSES[-2:] if self.args.smoke else CHECK_PASSES

    def run(self, log: PassLog) -> None:
        for name in self.passes:
            with log.unit(name):
                self.check(log, name)

    def check(self, log: PassLog, name: str) -> None:
        from repro.check.report import Severity, combined_exit_code

        with log.span(f"check.{name}"):
            report = self.run_passes([name])[0]
        tally = {
            severity: sum(1 for f in report.findings if f.severity == severity)
            for severity in Severity
        }
        log.digest(name, (
            f"exit={combined_exit_code([report])} errors={tally[Severity.ERROR]} "
            f"warnings={tally[Severity.WARNING]} infos={tally[Severity.INFO]}"
        ))
        log.count("check.findings", len(report.findings))


def span_samples(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """``"<unit>|<layer>"`` -> self time summed over one pass's spans.

    A span belongs to the nearest enclosing span that names a ``unit``;
    spans outside any belong to ``child``.
    """
    from spans import self_times

    samples: Dict[str, float] = {}
    for index, (record, own) in enumerate(zip(spans, self_times(spans))):
        owner = index
        while spans[owner].get("unit") is None and spans[owner]["parent"] is not None:
            owner = int(spans[owner]["parent"])  # type: ignore[call-overload]
        key = f"{spans[owner].get('unit') or 'child'}|{record['name']}"
        samples[key] = samples.get(key, 0.0) + own
    return samples


def make_workload(args: argparse.Namespace):
    if args.workload == "sweep72_cold":
        return Sweep72(args, warm=False)
    if args.workload == "sweep72_warm":
        return Sweep72(args, warm=True)
    if args.workload == "service72_cold":
        return Service72(args)
    if args.workload == "paper1k_array":
        return Paper1kArray(args)
    return CheckAll(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--work-dir", required=True, help="scratch directory of this pass")
    parser.add_argument("--cache-dir", help="sweep72_warm: the populated cache directory")
    parser.add_argument("--populate", action="store_true",
                        help="sweep72_warm: fill --cache-dir and exit")
    parser.add_argument("--t0", type=float, default=_PROCESS_START,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-file", help="where a traced pass writes its spans")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "sweep72_warm" and not args.cache_dir:
        parser.error("sweep72_warm needs --cache-dir")

    recorder = None
    span: SpanFactory = _no_span
    if args.trace:
        from spans import Recorder

        recorder = Recorder(args.workload)
        span = recorder.span
        root = recorder.begin("child", start=args.t0)
        recorder.end(recorder.begin("python.startup", start=args.t0))

    log = PassLog(span)
    workload = make_workload(args)
    with span("setup", unit="setup"):
        with span("repro.import"):
            import repro  # noqa: F401 - part of every cold start
        workload.setup(log)
    log.samples["setup|wall"] = time.monotonic() - args.t0
    log.samples["setup|cpu"] = cpu_seconds()
    log.calibrate()
    if args.populate:
        workload.populate(log)
    else:
        workload.run(log)

    if recorder is not None:
        recorder.end(root)
        log.samples.update(span_samples(recorder.spans))
        if args.trace_file:
            recorder.write(args.trace_file)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "attempted": log.attempted,
        "failed": log.failed,
        "digests": log.digests,
        "samples": log.samples,
        "calibration": log.calibration,
        "counts": log.counts,
        "values": log.values,
        "peak_rss_mib": peak_rss_mib(),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
