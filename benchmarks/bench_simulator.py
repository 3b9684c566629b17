#!/usr/bin/env python
"""Simulator-core throughput benchmark (``BENCH_simulator.json``).

Measures the cycle rate (simulated cycles per wall-clock second) of the
active-set simulator core on the configurations the acceptance criteria
name:

* ``fig9_point_load20`` -- the Figure 9 single-point configuration: the
  72-terminal paper network (p=2, a=4, h=2), worst-case traffic,
  UGAL-L, 20% offered load.
* ``fig9_point_saturation`` -- the same network and pattern at 45%
  load, past the WC/UGAL-L saturation point, so the switch loop runs
  with full buffers.
* ``uniform_low_load`` -- uniform random at 20% load (the benign
  pattern; exercises the decide fast path rather than backpressure).
* ``multi_flit`` -- uniform random at 20% load with 4-flit packets
  (virtual cut-through allocation; the generic switch loop).
* ``request_reply`` -- uniform random at 20% load with the
  request-reply protocol (two VC classes, reply injection from the
  ejection path).

A second section, ``backend_ab``, times the scalar engine against the
batched numpy array backend (``repro.network.array_backend``) on the
same source tree -- interleaved scalar/array samples, best-of-N each,
``array_speedup = min(scalar)/min(array)``:

* ``paper1k_fig9_point`` -- the paper's 1056-node maximum network
  (p=h=4, a=8), worst-case traffic, UGAL-L at 20% load: the Figure 9
  single point at the scale the array backend was built for.
* ``paper1k_uniform_low_load`` -- the same network, benign traffic at
  10% load (the injection scan dominates).
* ``scale16k_uniform_trickle`` -- a 16512-terminal dragonfly (p=8,
  a=16, h=8) at 2% load, where the scalar engine's O(terminals)
  injection scan dwarfs the traffic and the array backend's batched
  Bernoulli draw shows its structural advantage.

Methodology: every timing sample is a fresh subprocess (no warm caches
shared between engine versions), each case is run ``--reps`` times and
the *minimum* wall time is reported -- on a busy machine the minimum is
the best estimator of the true cost, and anything else measures the
noise.  With ``--baseline REV`` the script additionally checks out
``REV`` into a temporary git worktree and interleaves baseline/current
samples (A/B/A/B), so slow drifts in background load hit both engines
equally; the recorded ``speedup`` is min(baseline)/min(current).

Usage::

    python benchmarks/bench_simulator.py                  # current engine only
    python benchmarks/bench_simulator.py --baseline REV   # + speedup vs REV
    python benchmarks/bench_simulator.py --smoke          # CI: tiny cycle
                                                          # counts, 1 rep
    python benchmarks/bench_simulator.py --profile        # + cProfile top-20
                                                          # per case, to file
    python benchmarks/bench_simulator.py --perf-gate      # CI: 1056-node A/B
                                                          # speedup-floor gate

The result is written to ``BENCH_simulator.json`` (override with
``--output``); the report header records the interpreter, platform and
numpy/BLAS identity so two artifacts are never compared across silently
different environments.  The committed copy was generated with
``--baseline <seed>`` against the pre-optimisation engine; CI
regenerates a ``--smoke`` copy on every push as an artifact to prove
the benchmark itself still runs, and ``--perf-gate`` fails the build if
the array backend's advantage at the 1056-node Figure 9 point drops
below the floor.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Child process: build one configuration, time sim.run() once, print the
# wall time.  Receives the case config as JSON on argv so the same
# source runs against any engine version via PYTHONPATH.
_CHILD_SRC = """
import json, sys, time
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.traffic import make_pattern
from repro.routing.ugal import make_routing
from repro.topology.dragonfly import Dragonfly

try:
    from repro.network.backend import make_simulator
except ImportError:  # pre-backend engine versions (--baseline REV)
    from repro.network.simulator import Simulator

    def make_simulator(topology, routing, pattern, config, backend=None):
        return Simulator(topology, routing, pattern, config)

spec = json.loads(sys.argv[1])
topology = Dragonfly(DragonflyParams(**spec["params"]))
config = SimulationConfig(**spec["config"])
pattern = make_pattern(spec["pattern"], topology, seed=config.seed + 17)
simulator = make_simulator(
    topology, make_routing(spec["routing"]), pattern, config,
    backend=spec.get("backend"),
)
start = time.perf_counter()
simulator.run()
print(time.perf_counter() - start)
"""

# Profiling child: same construction, but the run executes under
# cProfile and the child prints the top-20 functions by cumulative time
# instead of a wall-clock number.
_PROFILE_CHILD_SRC = _CHILD_SRC.replace(
    """start = time.perf_counter()
simulator.run()
print(time.perf_counter() - start)""",
    """import cProfile, io, pstats
profiler = cProfile.Profile()
profiler.enable()
simulator.run()
profiler.disable()
buffer = io.StringIO()
pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(20)
print(buffer.getvalue())""",
)
assert _PROFILE_CHILD_SRC != _CHILD_SRC, "profile child template drifted"

# The Figure 5 / Figure 9 example network: p=h=2, a=4, N=72 terminals.
PAPER_72 = {"p": 2, "a": 4, "h": 2}

# The paper's maximum single-stage dragonfly: g=33, 264 routers,
# N=1056 terminals.
PAPER_1K = {"p": 4, "a": 8, "h": 4}

# Beyond the paper: p=8, a=16, h=8 -> N=16512 terminals, where the
# scalar engine's per-terminal injection scan dominates the cycle cost.
SCALE_16K = {"p": 8, "a": 16, "h": 8}

ACCEPTANCE = {
    # The active-set rewrite's bar: >= 2x cycle rate at the Figure 9
    # single point (20% load) and >= 1.2x at saturation, versus the
    # seed engine.
    "fig9_point_load20_min_speedup": 2.0,
    "fig9_point_saturation_min_speedup": 1.2,
    # The array backend's bar: the 1056-node Figure 9 point must finish
    # well inside the 5-minute CI smoke budget on the array backend.
    "paper1k_fig9_point_max_array_seconds": 300.0,
    # The array engine's bar: scalar/array interleaved A/B at the
    # 1056-node Figure 9 point.  The recorded full-mode number is the
    # >= 3.0x claim; the CI --perf-gate floor is deliberately lower
    # (shared runners are noisy, same margin as before) but above the
    # 1.75-1.9x the engine reached while its per-flit tails were still
    # Python loops, so a disabled kernel or a reintroduced loop fails
    # fast.
    "paper1k_fig9_point_min_array_speedup": 3.0,
    "perf_gate_min_array_speedup": 2.0,
}


def environment_info() -> dict:
    """Interpreter / platform / numpy-BLAS identity for the report header."""
    import platform

    info = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is baked in
        info["numpy"] = None
        return info
    info["numpy"] = numpy.__version__
    try:
        # numpy >= 1.25; older versions only have the printing variant.
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
        }
    except TypeError:
        info["blas"] = "unknown"
    return info


def make_cases(smoke: bool) -> dict:
    warm, meas = (40, 80) if smoke else (200, 400)
    base = {
        "warmup_cycles": warm,
        "measure_cycles": meas,
        "drain_max_cycles": 0,
        "seed": 7,
    }
    return {
        "fig9_point_load20": {
            "params": PAPER_72,
            "routing": "UGAL-L",
            "pattern": "worst_case",
            "config": dict(base, load=0.2),
        },
        "fig9_point_saturation": {
            "params": PAPER_72,
            "routing": "UGAL-L",
            "pattern": "worst_case",
            "config": dict(base, load=0.45),
        },
        "uniform_low_load": {
            "params": PAPER_72,
            "routing": "UGAL-L",
            "pattern": "uniform_random",
            "config": dict(base, load=0.2),
        },
        "multi_flit": {
            "params": PAPER_72,
            "routing": "UGAL-L",
            "pattern": "uniform_random",
            "config": dict(base, load=0.2, packet_size=4),
        },
        "request_reply": {
            "params": PAPER_72,
            "routing": "UGAL-L",
            "pattern": "uniform_random",
            "config": dict(base, load=0.2, request_reply=True, num_vcs=6),
        },
    }


def make_backend_cases(smoke: bool) -> dict:
    """Scalar-vs-array A/B configurations (run on the current source)."""
    warm, meas = (20, 40) if smoke else (200, 400)
    base = {
        "warmup_cycles": warm,
        "measure_cycles": meas,
        "drain_max_cycles": 0,
        "seed": 7,
    }
    cases = {
        "paper1k_fig9_point": {
            "params": PAPER_1K,
            "routing": "UGAL-L",
            "pattern": "worst_case",
            "config": dict(base, load=0.2),
        },
        "paper1k_uniform_low_load": {
            "params": PAPER_1K,
            "routing": "UGAL-L",
            "pattern": "uniform_random",
            "config": dict(base, load=0.1),
        },
        "scale16k_uniform_trickle": {
            "params": SCALE_16K,
            "routing": "UGAL-L",
            "pattern": "uniform_random",
            "config": dict(
                base,
                load=0.02,
                warmup_cycles=warm // 2 or 10,
                measure_cycles=meas // 2 or 20,
            ),
        },
    }
    return cases


def run_backend_ab(cases, current_src, reps):
    results = {}
    for name, spec in cases.items():
        cycles = spec["config"]["warmup_cycles"] + spec["config"]["measure_cycles"]
        best = {"scalar": None, "array": None}
        # Interleave scalar/array samples (same reasoning as --baseline).
        for _ in range(reps):
            for backend in ("scalar", "array"):
                sample = time_once(current_src, dict(spec, backend=backend))
                if best[backend] is None or sample < best[backend]:
                    best[backend] = sample
        entry = {
            "params": spec["params"],
            "routing": spec["routing"],
            "pattern": spec["pattern"],
            "load": spec["config"]["load"],
            "simulated_cycles": cycles,
            "scalar_wall_time_s": round(best["scalar"], 6),
            "scalar_cycles_per_sec": round(cycles / best["scalar"], 1),
            "array_wall_time_s": round(best["array"], 6),
            "array_cycles_per_sec": round(cycles / best["array"], 1),
            "array_speedup": round(best["scalar"] / best["array"], 3),
        }
        results[name] = entry
        print(
            f"{name:24s} scalar {entry['scalar_cycles_per_sec']:>9.0f} c/s"
            f"  array {entry['array_cycles_per_sec']:>9.0f} c/s"
            f"  ({entry['array_speedup']:.2f}x)",
            flush=True,
        )
    return results


def time_once(pythonpath: pathlib.Path, spec: dict) -> float:
    # PYTHONPATH (prepended to sys.path) picks the engine version; it
    # shadows any pip-installed repro in the child.
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD_SRC, json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    if out.returncode != 0:
        raise RuntimeError(f"benchmark child failed:\n{out.stderr}")
    return float(out.stdout.strip())


def profile_once(pythonpath: pathlib.Path, spec: dict) -> str:
    """One profiled run; returns the child's top-20 cumulative report."""
    env = dict(os.environ, PYTHONPATH=str(pythonpath))
    out = subprocess.run(
        [sys.executable, "-c", _PROFILE_CHILD_SRC, json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    if out.returncode != 0:
        raise RuntimeError(f"profile child failed:\n{out.stderr}")
    return out.stdout


def run_profiles(cases, backend_cases, current_src, output: pathlib.Path):
    """cProfile every case once, top-20 cumulative each, to one artifact."""
    sections = []
    for name, spec in cases.items():
        sections.append((name, profile_once(current_src, spec)))
        print(f"profiled {name}", flush=True)
    for name, spec in backend_cases.items():
        for backend in ("scalar", "array"):
            sections.append(
                (f"{name}[{backend}]", profile_once(current_src, dict(spec, backend=backend)))
            )
            print(f"profiled {name}[{backend}]", flush=True)
    text = "\n".join(
        f"{'=' * 72}\n{name}\n{'=' * 72}\n{body}" for name, body in sections
    )
    output.write_text(text)
    print(f"wrote {output}", flush=True)


def run_perf_gate(current_src, output: pathlib.Path, reps: int) -> int:
    """CI gate: 1056-node Figure 9 point, interleaved scalar/array A/B.

    Passes when the array point stays inside the wall-clock budget AND
    the decide-kernel speedup clears the gate floor.  Cycle counts sit
    between smoke and full: long enough that per-cycle advantage (not
    process startup) dominates, short enough for every push.
    """
    spec = {
        "params": PAPER_1K,
        "routing": "UGAL-L",
        "pattern": "worst_case",
        "config": {
            "warmup_cycles": 100,
            "measure_cycles": 200,
            "drain_max_cycles": 0,
            "seed": 7,
            "load": 0.2,
        },
    }
    results = run_backend_ab({"paper1k_fig9_point": spec}, current_src, reps)
    entry = results["paper1k_fig9_point"]
    report = {
        "schema": "repro.bench_simulator/v1",
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "generated_by": "benchmarks/bench_simulator.py --perf-gate",
        "mode": "perf-gate",
        "reps_per_case": reps,
        "environment": environment_info(),
        "backend_ab": results,
        "acceptance": ACCEPTANCE,
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}", flush=True)

    ok = True
    budget = ACCEPTANCE["paper1k_fig9_point_max_array_seconds"]
    status = "ok" if entry["array_wall_time_s"] <= budget else "OVER BUDGET"
    print(
        f"perf-gate budget: array {entry['array_wall_time_s']:.2f}s "
        f"(<= {budget:.0f}s): {status}"
    )
    ok = ok and entry["array_wall_time_s"] <= budget
    floor = ACCEPTANCE["perf_gate_min_array_speedup"]
    status = "ok" if entry["array_speedup"] >= floor else "BELOW FLOOR"
    print(
        f"perf-gate speedup: {entry['array_speedup']:.2f}x "
        f"(>= {floor}x): {status}"
    )
    ok = ok and entry["array_speedup"] >= floor
    return 0 if ok else 1


def run_cases(cases, current_src, baseline_src, reps):
    results = {}
    for name, spec in cases.items():
        cycles = spec["config"]["warmup_cycles"] + spec["config"]["measure_cycles"]
        best = None
        base_best = None
        # Interleave baseline/current samples so background-load drift
        # affects both engines equally.
        for _ in range(reps):
            if baseline_src is not None:
                sample = time_once(baseline_src, spec)
                base_best = sample if base_best is None else min(base_best, sample)
            sample = time_once(current_src, spec)
            best = sample if best is None else min(best, sample)
        entry = {
            "params": spec["params"],
            "routing": spec["routing"],
            "pattern": spec["pattern"],
            "load": spec["config"]["load"],
            "simulated_cycles": cycles,
            "wall_time_s": round(best, 6),
            "cycles_per_sec": round(cycles / best, 1),
        }
        if base_best is not None:
            entry["baseline_wall_time_s"] = round(base_best, 6)
            entry["baseline_cycles_per_sec"] = round(cycles / base_best, 1)
            entry["speedup"] = round(base_best / best, 3)
        results[name] = entry
        line = f"{name:24s} {entry['cycles_per_sec']:>10.0f} cycles/s"
        if "speedup" in entry:
            line += f"  ({entry['speedup']:.2f}x vs baseline)"
        print(line, flush=True)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny cycle counts and a single rep; proves the benchmark "
        "runs (CI), does not produce meaningful timings",
    )
    parser.add_argument(
        "--baseline",
        metavar="REV",
        help="git revision to A/B against (checked out into a "
        "temporary worktree); adds speedup numbers to the output",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=None,
        help="timing repetitions per case, best-of-N (default: 5, or 1 "
        "with --smoke)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_simulator.json",
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="additionally cProfile every case once (both backends for "
        "the A/B cases) and write the top-20 cumulative reports to "
        "--profile-output",
    )
    parser.add_argument(
        "--profile-output",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_simulator_profile.txt",
        help="where --profile writes its per-case reports",
    )
    parser.add_argument(
        "--perf-gate",
        action="store_true",
        help="CI gate mode: run only the 1056-node Figure 9 scalar/array "
        "A/B point; exit non-zero if the array wall time exceeds the "
        "budget or the speedup falls below the gate floor",
    )
    args = parser.parse_args(argv)
    reps = args.reps if args.reps is not None else (1 if args.smoke else 5)

    cases = make_cases(smoke=args.smoke)
    current_src = REPO_ROOT / "src"

    if args.perf_gate:
        return run_perf_gate(current_src, args.output, max(reps, 3))

    if args.profile:
        run_profiles(
            cases, make_backend_cases(args.smoke), current_src,
            args.profile_output,
        )

    worktree = None
    baseline_src = None
    try:
        if args.baseline:
            worktree = tempfile.mkdtemp(prefix="bench-baseline-")
            subprocess.run(
                ["git", "worktree", "add", "--detach", worktree, args.baseline],
                cwd=REPO_ROOT,
                check=True,
                capture_output=True,
            )
            baseline_src = pathlib.Path(worktree) / "src"
            print(f"baseline: {args.baseline} in {worktree}", flush=True)
        started = time.strftime("%Y-%m-%dT%H:%M:%S")
        results = run_cases(cases, current_src, baseline_src, reps)
        backend_results = run_backend_ab(make_backend_cases(args.smoke), current_src, reps)
    finally:
        if worktree is not None:
            subprocess.run(
                ["git", "worktree", "remove", "--force", worktree],
                cwd=REPO_ROOT,
                capture_output=True,
            )

    report = {
        "schema": "repro.bench_simulator/v1",
        "generated": started,
        "generated_by": "benchmarks/bench_simulator.py",
        "mode": "smoke" if args.smoke else "full",
        "reps_per_case": reps,
        "baseline_rev": args.baseline,
        "python": sys.version.split()[0],
        "environment": environment_info(),
        "cases": results,
        "backend_ab": backend_results,
        "acceptance": ACCEPTANCE,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}", flush=True)

    ok = True
    # The 1056-node array smoke budget holds in every mode (smoke runs
    # fewer cycles, so a smoke pass is a necessary, full a sufficient
    # check).
    array_wall = backend_results["paper1k_fig9_point"]["array_wall_time_s"]
    budget = ACCEPTANCE["paper1k_fig9_point_max_array_seconds"]
    status = "ok" if array_wall <= budget else "OVER BUDGET"
    print(
        f"acceptance paper1k_fig9_point: array {array_wall:.2f}s "
        f"(<= {budget:.0f}s): {status}"
    )
    ok = ok and array_wall <= budget

    if not args.smoke:
        speedup = backend_results["paper1k_fig9_point"]["array_speedup"]
        bar = ACCEPTANCE["paper1k_fig9_point_min_array_speedup"]
        status = "ok" if speedup >= bar else "BELOW BAR"
        print(
            f"acceptance paper1k_fig9_point speedup: {speedup:.2f}x "
            f"(>= {bar}x): {status}"
        )
        ok = ok and speedup >= bar

    if args.baseline and not args.smoke:
        for case, key in (
            ("fig9_point_load20", "fig9_point_load20_min_speedup"),
            ("fig9_point_saturation", "fig9_point_saturation_min_speedup"),
        ):
            speedup = results[case]["speedup"]
            bar = ACCEPTANCE[key]
            status = "ok" if speedup >= bar else "BELOW BAR"
            print(f"acceptance {case}: {speedup:.2f}x (>= {bar}x): {status}")
            ok = ok and speedup >= bar
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
