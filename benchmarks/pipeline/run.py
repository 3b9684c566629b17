#!/usr/bin/env python
"""Pipeline benchmark runner: five workloads, end to end and per layer.

Two ways in::

    python benchmarks/pipeline/run.py
        the whole ledger: every workload --reps times, one fresh child
        process per repetition, round-robin, plus one traced repetition
        each; prints every metric by name with unit, median, quartiles
        and n; verifies every digest (exit 1 on a mismatch); compares
        with the baseline in reference.json and writes
        benchmarks/pipeline/out/ledger.json

    python benchmarks/pipeline/run.py --workload W --seed N --seconds S --trace 0|1
        one run of one workload; the last line printed is one JSON
        object {"correct", "attempted", "failed", "metrics"} holding the
        end-to-end metrics (--trace 0) or the per-layer ones (--trace 1)

A *pass* is one fresh ``child.py`` process doing a workload once.  The
ledger reports the median and quartiles over its passes.  A run started
with ``--workload`` has room for only two or three passes of the big
workloads, and on a shared machine other tenants only ever slow a pass
down, so it reports per unit of work the fastest of its passes, summed;
README.md has the measurements behind that choice.  Every number is a
raw clock reading.

Children run with every ``REPRO_*`` variable removed and
``PYTHONHASHSEED=0``; everything they write goes under one temporary
directory inside ``benchmarks/pipeline/out/`` that is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
REFERENCE_PATH = HERE / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from child import CHECK_PASSES, POINT_CLASSES, WORKLOADS, point_class  # noqa: E402

#: Seeds whose digests are pinned in reference.json.
PINNED_SEEDS = (1, 2)
#: A pass that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0
#: A ``--workload`` run takes the fastest of at least this many passes.
MIN_PASSES = 2
#: Span names that are the benchmark's own glue, not a layer.
GLUE_SPANS = ("child", "setup", "unit", "probe", "reference")


def per_layer_catalogue() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in print order."""
    rows = [
        ("topology.build_s", "s", "lower"),
        ("routing.make_s", "s", "lower"),
        ("traffic.make_s", "s", "lower"),
        ("engine.construct_s", "s", "lower"),
    ]
    for name in POINT_CLASSES:
        rows += [
            (f"engine.run_s.{name}", "s", "lower"),
            (f"engine.sim_cycles.{name}", "count", "lower"),
            (f"engine.flits_delivered.{name}", "count", "higher"),
            (f"engine.cycles_per_s.{name}", "1/s", "higher"),
            (f"engine.us_per_flit.{name}", "us", "lower"),
        ]
    rows += [
        ("engine.scalar_run_s", "s", "lower"),
        ("engine.array_speedup", "ratio", "higher"),
        ("stats.to_dict_s", "s", "lower"),
        ("stats.from_dict_s", "s", "lower"),
        ("stats.summarise_s", "s", "lower"),
        ("stats.samples", "count", "higher"),
        ("cache.key_s", "s", "lower"),
        ("cache.get_s", "s", "lower"),
        ("cache.put_s", "s", "lower"),
        ("cache.bytes_written", "count", "lower"),
        ("cache.hits", "count", "higher"),
        ("cache.misses", "count", "lower"),
        ("parallel.overhead_s", "s", "lower"),
        ("service.overhead_cpu_s", "s", "lower"),
        ("service.parallel_efficiency", "ratio", "higher"),
        ("service.unit_latency_p50_s", "s", "lower"),
        ("service.idle_frac", "ratio", "lower"),
        ("service.journal.append_us", "us", "lower"),
        ("service.journal.events", "count", "lower"),
        ("service.store.put_s", "s", "lower"),
        ("service.store.query_s", "s", "lower"),
        ("service.store.reindex_s", "s", "lower"),
        ("service.retries", "count", "lower"),
    ]
    rows += [(f"check.{name}_s", "s", "lower") for name in CHECK_PASSES]
    rows += [
        ("check.findings", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unattributed_frac", "ratio", "lower"),
        ("machine.chunk_ms", "ms", "lower"),
    ]
    return rows


def digest_family(workload: str) -> str:
    """The three 72-terminal workloads simulate the same grid."""
    return "grid72" if "72_" in workload else workload


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "numpy": numpy_version,
    }


def load_reference() -> Dict:
    if not REFERENCE_PATH.exists():
        return {"environment": None, "digests": {}, "baseline": {}}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# One pass = one child process
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def run_child(workload: str, seed: int, work_dir: Path, extra: Sequence[str]) -> Optional[Dict]:
    """Run one pass; ``None`` when it crashed, hung or printed no result."""
    work_dir.mkdir(parents=True)
    command = [
        sys.executable, str(HERE / "child.py"), workload,
        "--seed", str(seed), "--work-dir", str(work_dir),
        "--t0", repr(time.monotonic()), *extra,
    ]
    # Own session: a killed pass takes its service workers with it.
    process = subprocess.Popen(
        command, env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"{workload}: pass killed after {CHILD_TIMEOUT_S:.0f}s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        print(f"{workload}: pass exited with code {process.returncode}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"{workload}: pass printed no JSON result", file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Reducing passes to metrics
# ----------------------------------------------------------------------
Samples = Dict[Tuple[str, str], float]
Pick = Callable[[Iterable[float]], float]


def combine(passes: Sequence[Dict], pick: Pick) -> Samples:
    """``(owner, kind)`` -> ``pick`` over the passes' samples.  A pass
    reports its samples under ``"<owner>|<kind>"``: the owner is
    ``setup``, a unit, or a ``probe:``/``ref:`` measurement beside the
    units; the kind is ``wall``, ``cpu`` or, in traced passes, a span
    name."""
    gathered: Dict[Tuple[str, str], List[float]] = {}
    for record in passes:
        for key, value in record["samples"].items():
            owner, kind = key.rsplit("|", 1)
            gathered.setdefault((owner, kind), []).append(value)
    return {key: pick(values) for key, values in gathered.items()}


def total(samples: Samples, kind: str, *scopes: Callable[[str], bool]) -> float:
    """Sum of the samples of ``kind`` whose owner is in one of the scopes."""
    return sum(
        value for (owner, sample_kind), value in samples.items()
        if sample_kind == kind and any(scope(owner) for scope in scopes)
    )


def is_unit(owner: str) -> bool:
    return owner not in ("setup", "child") and ":" not in owner


def is_setup(owner: str) -> bool:
    return owner == "setup"


def is_probe(owner: str) -> bool:
    return owner.startswith("probe:")


def is_reference(owner: str) -> bool:
    """The service's in-process re-run of its grid (its workers cannot
    be traced from outside); not the 1056-terminal scalar base."""
    return owner.startswith("ref:") and owner != "ref:scalar"


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(passes: Sequence[Dict], pick: Pick) -> Dict[str, float]:
    """The end-to-end metrics of these untraced passes.  ``wall_s`` is
    set-up plus the units: digesting results and the calibration loop
    are the benchmark's own work and stay outside."""
    samples = combine(passes, pick)
    work = total(samples, "wall", is_unit)
    return {
        "wall_s": samples["setup", "wall"] + work,
        "setup_s": samples["setup", "wall"],
        "cpu_s": samples["setup", "cpu"] + total(samples, "cpu", is_unit),
        "units_per_s": ratio(passes[0]["attempted"], work),
        "peak_rss_mb": statistics.median(record["peak_rss_mib"] for record in passes),
    }


def per_layer_metrics(
    workload: str, untraced: Sequence[Dict], traced: Sequence[Dict], pick: Pick
) -> Dict[str, float]:
    plain, spans = combine(untraced, pick), combine(traced, pick)
    counts = traced[0]["counts"]
    metrics = {
        "topology.build_s": total(spans, "topology.build", is_setup),
        "routing.make_s": total(spans, "routing.make", is_setup, is_unit),
        "traffic.make_s": total(spans, "traffic.make", is_setup, is_unit),
        "engine.construct_s": total(spans, "engine.construct", is_setup, is_unit),
    }
    for name in POINT_CLASSES:
        def of_class(owner: str) -> bool:
            return (is_unit(owner) or is_reference(owner)) and (
                point_class(owner.split(":")[-1]) == name
            )

        run_s = total(spans, "engine.run", of_class)
        cycles = counts.get(f"engine.sim_cycles.{name}", 0)
        flits = counts.get(f"engine.flits_delivered.{name}", 0)
        metrics[f"engine.run_s.{name}"] = run_s
        metrics[f"engine.sim_cycles.{name}"] = cycles
        metrics[f"engine.flits_delivered.{name}"] = flits
        metrics[f"engine.cycles_per_s.{name}"] = ratio(cycles, run_s)
        metrics[f"engine.us_per_flit.{name}"] = ratio(run_s * 1e6, flits)
    scalar_run = spans.get(("ref:scalar", "engine.run"), 0.0)
    metrics["engine.scalar_run_s"] = scalar_run
    metrics["engine.array_speedup"] = ratio(
        scalar_run, spans.get(("paper1k_wc", "engine.run"), 0.0)
    )
    for name in ("to_dict", "from_dict", "summarise"):
        metrics[f"stats.{name}_s"] = total(spans, f"stats.{name}", is_probe)
    metrics["stats.samples"] = counts.get("stats.samples", 0)
    for name in ("key", "get", "put"):
        metrics[f"cache.{name}_s"] = total(spans, f"cache.{name}", is_unit)
    for name in ("bytes_written", "hits", "misses"):
        metrics[f"cache.{name}"] = counts.get(f"cache.{name}", 0)

    # What SweepExecutor.run_points costs beyond the layer calls it
    # makes: the untraced executor call minus the mirrored layer spans.
    layers_in_units = sum(
        value for (owner, kind), value in spans.items()
        if is_unit(owner) and kind not in ("wall", "cpu", "unit")
    )
    sweep = workload.startswith("sweep72")
    metrics["parallel.overhead_s"] = (
        total(plain, "wall", is_unit) - layers_in_units if sweep else 0.0
    )

    # The batch's CPU and wall against the engine time it contains.
    service = workload == "service72_cold"
    serial_engine = total(spans, "engine.run", is_reference)
    metrics["service.overhead_cpu_s"] = plain["batch", "cpu"] - serial_engine if service else 0.0
    metrics["service.parallel_efficiency"] = (
        ratio(serial_engine, 2 * plain["batch", "wall"]) if service else 0.0
    )
    for name in ("service.unit_latency_p50_s", "service.idle_frac"):
        metrics[name] = pick(record["values"].get(name, 0.0) for record in traced)
    metrics["service.journal.append_us"] = ratio(
        total(spans, "service.journal.append", is_probe) * 1e6,
        counts.get("service.journal.appends", 0),
    )
    metrics["service.journal.events"] = counts.get("service.journal.events", 0)
    for name in ("put", "query", "reindex"):
        metrics[f"service.store.{name}_s"] = total(spans, f"service.store.{name}", is_probe)
    metrics["service.retries"] = counts.get("service.retries", 0)
    for name in CHECK_PASSES:
        metrics[f"check.{name}_s"] = total(spans, f"check.{name}", is_unit)
    metrics["check.findings"] = counts.get("check.findings", 0)

    traced_wall = spans["setup", "wall"] + total(spans, "wall", is_unit)
    plain_wall = plain["setup", "wall"] + total(plain, "wall", is_unit)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    accounted = spans.get(("child", "python.startup"), 0.0) + sum(
        value for (owner, kind), value in spans.items()
        if (is_unit(owner) or is_setup(owner)) and kind not in ("wall", "cpu") + GLUE_SPANS
    )
    metrics["trace.unattributed_frac"] = 1.0 - accounted / traced_wall
    # How fast the machine was, for the reader; nothing is rescaled by it.
    metrics["machine.chunk_ms"] = 1e3 * statistics.median(
        chunk for record in list(untraced) + list(traced) for chunk in record["calibration"]
    )
    return metrics


class Run:
    """The passes of one workload under one command, and their verdict."""

    def __init__(self, workload: str, seed: int, smoke: bool, reference: Dict, tmp: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.tmp = tmp / workload
        self.base = ["--smoke"] if smoke else []
        if workload == "sweep72_warm":
            self.base += ["--cache-dir", str(self.tmp / "warm-cache")]
        #: Digest per unit: the pinned reference for this seed, or --
        #: for an unpinned seed -- the first digest this run sees.  A
        #: simulation repeats exactly, so any difference is a failure.
        self.expected: Dict[str, str] = dict(
            reference["digests"].get(str(seed), {}).get(digest_family(workload), {})
        )
        self.pinned = bool(self.expected)
        self.passes: List[Dict] = []
        self.crashed = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[str, str] = {}
        #: Filled by ``reduce``: the end-to-end metrics of every untraced
        #: pass, of all of them combined, and the per-layer metrics.
        self.per_pass: List[Dict[str, float]] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}

    def kind(self, traced: bool) -> List[Dict]:
        return [record for record in self.passes if record["traced"] == traced]

    def check_digests(self, digests: Dict[str, str], where: str) -> Set[str]:
        bad = set()
        for name, digest in digests.items():
            if not self.pinned:
                self.expected.setdefault(name, digest)
            if self.expected.get(name) != digest:
                bad.add(name)
                self.problems.append(
                    f"{where}: digest of {name} is {digest[:16]}, "
                    f"{'reference.json' if self.pinned else 'an earlier pass'} "
                    f"has {str(self.expected.get(name))[:16]}"
                )
        self.digests.update(digests)
        return bad

    def populate(self) -> bool:
        """Set-up that is no pass: ``sweep72_warm``'s cache is filled by
        a process of its own.  False when that failed."""
        if self.workload != "sweep72_warm":
            return True
        filled = run_child(self.workload, self.seed, self.tmp / "populate",
                           self.base + ["--populate"])
        if filled is None:
            self.problems.append("populating the cache failed")
            self.attempted += 1
            self.failed += 1
            return False
        self.attempted += len(filled["digests"])
        self.failed += len(self.check_digests(filled["digests"], "populate"))
        return True

    def one_pass(self, traced: bool) -> None:
        extra = list(self.base)
        if traced:
            extra += ["--trace", "--trace-file", str(OUT_DIR / f"trace-{self.workload}.json")]
        index = len(self.passes) + self.crashed
        record = run_child(self.workload, self.seed, self.tmp / f"pass-{index}", extra)
        if record is None:
            self.crashed += 1
            units = self.passes[-1]["attempted"] if self.passes else 1
            self.attempted += units
            self.failed += units
            self.problems.append("a pass crashed or timed out")
            return
        self.passes.append(record)
        self.attempted += record["attempted"]
        failed = sum(int(entry["units"]) for entry in record["failed"].values())
        for name, entry in record["failed"].items():
            self.problems.append(f"{name}: {entry['reason']}")
        bad = self.check_digests(record["digests"], f"pass {len(self.passes)}")
        failed += len(bad - set(record["failed"]))
        first = self.kind(record["traced"])[0]
        if first["counts"] != record["counts"]:
            failed += 1
            self.problems.append(
                f"counts changed between passes: {first['counts']} != {record['counts']}"
            )
        self.failed += min(failed, record["attempted"])

    def reduce(self, pick: Pick) -> None:
        untraced, traced = self.kind(False), self.kind(True)
        if not untraced:
            self.problems.append("no complete pass to measure")
            self.attempted = max(self.attempted, 1)
            self.failed = max(self.failed, 1)
            return
        self.per_pass = [end_to_end_metrics([record], pick) for record in untraced]
        self.end_to_end = end_to_end_metrics(untraced, pick)
        if traced:
            self.per_layer = per_layer_metrics(self.workload, untraced, traced, pick)

    @property
    def failed_frac(self) -> float:
        return ratio(self.failed, self.attempted)

    def exact(self) -> Dict[str, object]:
        """What must repeat exactly: counts and digests."""
        traced = self.kind(True)
        return {"counts": traced[0]["counts"] if traced else {}, "digests": self.digests}

    def result_line(self, spec: Dict, trace: bool) -> str:
        metrics = self.per_layer if trace else self.end_to_end
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        return json.dumps({
            "correct": self.failed == 0 and bool(metrics),
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]} for name, value in metrics.items()
            },
        })


def measure(
    workload: str, seed: int, seconds: float, trace: bool, reference: Dict,
    smoke: bool = False,
) -> Run:
    """One ``--workload`` run: passes of ``workload`` one after another
    until the next would end after ``seconds``, at least ``MIN_PASSES``
    (one of each kind when traced); per unit, the fastest pass counts."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        run = Run(workload, seed, smoke, reference, Path(tmp))
        ready = run.populate()
        started = time.monotonic()
        longest = 0.0
        needed = 1 if trace or smoke else MIN_PASSES
        while ready and run.crashed < 3:
            untraced, traced = len(run.kind(False)), len(run.kind(True))
            enough = untraced >= needed and (traced >= 1 or not trace)
            if enough and time.monotonic() - started + longest > seconds:
                break
            # A traced run alternates untraced and traced passes, so
            # both kinds see the same machine.
            pass_started = time.monotonic()
            run.one_pass(traced=trace and traced < untraced)
            longest = max(longest, time.monotonic() - pass_started)
    run.reduce(min)
    return run


# ----------------------------------------------------------------------
# The ledger: every workload, summaries, comparisons
# ----------------------------------------------------------------------
def run_ledger(args: argparse.Namespace, reference: Dict, label: str) -> Dict[str, Run]:
    """``--reps`` untraced passes and one traced pass of every workload."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as tmp:
        runs = {
            name: Run(name, args.seed, args.smoke, reference, Path(tmp)) for name in WORKLOADS
        }
        ready = [name for name, run in runs.items() if run.populate()]
        # Round-robin over the workloads, so machine drift hits them all.
        for rep in range(args.reps + 1):
            traced = rep == args.reps
            for name in ready:
                kind = "traced" if traced else f"rep {rep + 1}/{args.reps}"
                print(f"[{label}] {name} {kind} ...", file=sys.stderr, flush=True)
                runs[name].one_pass(traced)
    for run in runs.values():
        run.reduce(statistics.median)
    return runs


def problems_of(runs: Dict[str, Run]) -> List[str]:
    problems = [f"{name}: {problem}" for name, run in runs.items() for problem in run.problems]
    # The 72-terminal workloads simulate one grid: cold, warm and
    # service results must agree digest for digest.
    grid: Dict[str, str] = {}
    for name, run in runs.items():
        if digest_family(name) != "grid72":
            continue
        for unit, digest in run.digests.items():
            if grid.setdefault(unit, digest) != digest:
                problems.append(f"{name}: {unit} differs from another workload's")
    return problems


def summarise(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(summary: Dict[str, float]) -> float:
    """Interquartile distance as a share of the median."""
    return ratio(summary["q3"] - summary["q1"], abs(summary["median"]))


def summaries(run: Run) -> Dict[str, Dict[str, float]]:
    """Metric name -> median/quartiles/n over the run's passes (the
    per-layer ones come from the one traced pass: n=1)."""
    table = {
        name: summarise([metrics[name] for metrics in run.per_pass])
        for name in (run.per_pass[0] if run.per_pass else ())
    }
    table.update({name: summarise([value]) for name, value in run.per_layer.items()})
    return table


def verdict(now: Dict, base: Optional[Dict], metric: Dict, same_environment: bool) -> str:
    """Compare a median with the baseline's, by the metric's own bound."""
    if base is None:
        return "no baseline"
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (now["median"] - base["median"]) / base["median"]
    text = f"{worse:+.1%} vs baseline"
    if not same_environment:
        return f"unresolved ({text}; environment differs)"
    if max(spread(now), spread(base)) > metric["bound"]:
        return f"unresolved ({text}; spread above the {metric['bound']:.0%} bound)"
    return f"{'REGRESSED' if worse > metric['bound'] else 'ok'} ({text})"


def print_ledger(
    runs: Dict[str, Run], spec: Dict, reference: Dict, args: argparse.Namespace
) -> None:
    baseline = (reference.get("baseline") or {}).get("metrics", {})
    same_environment = reference.get("environment") == environment()
    if baseline and args.smoke:
        print("smoke run: the workloads are cut down, so nothing is compared with the baseline")
        baseline = {}
    elif baseline and not same_environment:
        print("baseline environment differs; timing comparisons are unresolved:")
        print(f"  baseline: {json.dumps(reference.get('environment'), sort_keys=True)}")
        print(f"  now:      {json.dumps(environment(), sort_keys=True)}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"All times are host time. seed={args.seed} reps={args.reps} smoke={args.smoke}")
    for workload, run in runs.items():
        table = summaries(run)
        base = baseline.get(workload, {})
        print(f"\n== {workload}: {why.get(workload, '')}")
        print(f"   {'end to end':34s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'n':>3s}")
        for metric in spec["end_to_end"]:
            row = table.get(metric["name"])
            if row is None:
                print(f"   {metric['name']:34s} not measured")
                continue
            print(f"   {metric['name']:34s} {metric['unit']:6s} {row['median']:12.4f} "
                  f"{row['q1']:12.4f} {row['q3']:12.4f} {row['n']:3d}  "
                  f"spread {spread(row):.1%}; "
                  f"{verdict(row, base.get(metric['name']), metric, same_environment)}")
        print(f"   {'failed_frac':34s} {'ratio':6s} {run.failed_frac:12.4f} "
              f"({run.failed} of {run.attempted} units; any above 0 fails the command)")
        print(f"   {'per layer (one traced pass)':34s} {'unit':6s} {'value':>12s}")
        for metric in spec["per_layer"]:
            row = table.get(metric["name"])
            value = f"{row['median']:12.6g}" if row else "not measured"
            print(f"   {metric['name']:34s} {metric['unit']:6s} {value}")


def ledger_record(runs: Dict[str, Run], args: argparse.Namespace) -> Dict[str, object]:
    return {
        "seed": args.seed,
        "reps": args.reps,
        "smoke": args.smoke,
        "metrics": {name: summaries(run) for name, run in runs.items()},
        "failed_frac": {name: run.failed_frac for name, run in runs.items()},
    }


def selfcheck(args: argparse.Namespace, spec: Dict, reference: Dict) -> int:
    """Two sets of passes of the same tree must agree within the bounds."""
    args.reps = max(args.reps, 3)
    first, second = run_ledger(args, reference, "set A"), run_ledger(args, reference, "set B")
    failures = problems_of(first) + problems_of(second)
    print(f"{'workload':15s} {'metric':12s} {'median A':>11s} {'median B':>11s} "
          f"{'B vs A':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in WORKLOADS:
        a, b = summaries(first[workload]), summaries(second[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a or name not in b:
                continue  # no complete pass; already among the failures
            change = ratio(b[name]["median"] - a[name]["median"], a[name]["median"])
            flag = ""
            if abs(change) > metric["bound"]:
                flag = "  <-- differs by more than the bound"
                failures.append(f"{workload} {name}: medians differ by {change:+.1%}")
            elif max(spread(a[name]), spread(b[name])) > metric["bound"]:
                flag = "  (spread above the bound: too tight for this machine)"
            print(f"{workload:15s} {name:12s} {a[name]['median']:11.4f} {b[name]['median']:11.4f} "
                  f"{change:+8.1%} {spread(a[name]):9.1%} {spread(b[name]):9.1%} "
                  f"{metric['bound']:6.0%}{flag}")
        if first[workload].exact() != second[workload].exact():
            failures.append(f"{workload}: counts or digests differ between the sets")
    for failure in failures:
        print(f"FAILED: {failure}")
    print("selfcheck:", "FAILED" if failures else "the two sets agree")
    return 1 if failures else 0


def update_reference(args: argparse.Namespace, spec: Dict) -> int:
    """Re-pin digests for the pinned seeds and re-measure the baseline."""
    unpinned: Dict = {"environment": None, "digests": {}, "baseline": {}}
    runs = run_ledger(args, unpinned, "baseline")
    problems = problems_of(runs)
    digests: Dict[str, Dict[str, Dict[str, str]]] = {}
    for seed in PINNED_SEEDS:
        digests[str(seed)] = {}
        for workload in WORKLOADS:
            if seed == args.seed:
                run = runs[workload]
            else:
                print(f"[digests] {workload} seed {seed} ...", file=sys.stderr, flush=True)
                run = measure(workload, seed, 0.0, False, unpinned)
                problems += [f"{workload}: {problem}" for problem in run.problems]
            family = digests[str(seed)].setdefault(digest_family(workload), {})
            for name, digest in run.digests.items():
                if family.setdefault(name, digest) != digest:
                    problems.append(f"seed {seed}: {name} differs between workloads")
    print_ledger(runs, spec, unpinned, args)
    if problems:
        for problem in problems:
            print(f"FAILED: {problem}")
        print("reference.json not updated")
        return 1
    REFERENCE_PATH.write_text(json.dumps({
        "environment": environment(),
        "digests": digests,
        "baseline": ledger_record(runs, args),
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this workload once and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: how long the run measures "
                        "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics")
    parser.add_argument("--reps", type=int, default=5, help="passes per workload in the ledger")
    parser.add_argument("--smoke", action="store_true",
                        help="each workload cut to 2 points / 2 check passes, 1 rep")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two sets and fail if they disagree beyond the bounds")
    parser.add_argument("--update-reference", action="store_true",
                        help="re-pin reference.json (digests, environment, baseline)")
    args = parser.parse_args(argv)
    if args.smoke and args.update_reference:
        parser.error("--update-reference pins the full workloads, not the --smoke ones")

    if not (ROOT / "src" / "repro" / "__init__.py").exists() or not SPEC_PATH.exists():
        print("run.py: needs the repository's src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    reference = load_reference()

    if args.workload:
        seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
        run = measure(args.workload, args.seed, seconds, bool(args.trace), reference, args.smoke)
        for problem in run.problems:
            print(f"{args.workload}: {problem}", file=sys.stderr)
        if not (run.per_layer if args.trace else run.end_to_end):
            return 1
        print(run.result_line(spec, bool(args.trace)))
        return 0 if run.failed == 0 else 1

    if args.smoke:
        args.reps = 1
    if args.update_reference:
        return update_reference(args, spec)
    if args.selfcheck:
        return selfcheck(args, spec, reference)
    runs = run_ledger(args, reference, "ledger")
    print_ledger(runs, spec, reference, args)
    record = ledger_record(runs, args)
    record["environment"] = environment()
    (OUT_DIR / "ledger.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    problems = problems_of(runs)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("pipeline benchmark:", "FAILED" if problems else "every digest verified")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
