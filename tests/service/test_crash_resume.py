"""Kill the whole service mid-sweep; resume must not recompute.

This is the subsystem's acceptance test: a ``repro.serve submit``
subprocess is SIGKILLed (whole process group, workers included) after
some points have landed, then the same manifest is resumed in-process.
The resume must simulate exactly the missing units -- journaled/stored
points are served from the result store -- and the merged results must
be bit-identical to an uninterrupted serial run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.network.config import SimulationConfig
from repro.network.parallel import _run_spec
from repro.service.journal import Journal
from repro.service.manifest import SweepManifest, TopologySpec
from repro.service.scheduler import run_manifest


@pytest.fixture()
def crash_manifest() -> SweepManifest:
    """16 units of ~0.2 s each: a wide-enough window to kill into."""
    return SweepManifest(
        figure="figcrash",
        topology=TopologySpec(family="dragonfly", p=2, a=2, h=1),
        routings=("MIN", "VAL"),
        patterns=("uniform_random",),
        loads=(0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45),
        seeds=(1,),
        config=SimulationConfig(
            load=0.1,
            warmup_cycles=3000,
            measure_cycles=6000,
            drain_max_cycles=20_000,
        ),
    )


def _point_files(root):
    points_dir = root / "store" / "points"
    if not points_dir.is_dir():
        return []
    return sorted(points_dir.glob("*.json"))


def test_sigkilled_service_resumes_without_recomputation(
    tmp_path, crash_manifest, monkeypatch
):
    root = tmp_path / "svc"
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(
        json.dumps(crash_manifest.to_dict()), encoding="utf-8"
    )
    total = crash_manifest.num_units()

    # --- run 1: real CLI subprocess, SIGKILLed mid-sweep -------------
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--root",
            str(root),
            "submit",
            "--manifest",
            str(manifest_path),
            "--workers",
            "2",
        ],
        env=dict(os.environ, PYTHONPATH="src"),
        cwd=os.getcwd(),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # its own process group: workers die too
    )
    try:
        deadline = time.monotonic() + 60.0
        while len(_point_files(root)) < 2:
            if process.poll() is not None:
                pytest.fail("service finished before it could be killed")
            if time.monotonic() > deadline:
                pytest.fail("service produced no points to kill into")
            time.sleep(0.01)
        os.killpg(process.pid, signal.SIGKILL)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)

    # Atomic writes mean every surviving point file is complete.
    completed = _point_files(root)
    assert 0 < len(completed) < total, "kill did not land mid-sweep"
    job_dir = root / "jobs" / crash_manifest.job_id
    state = Journal(job_dir / "journal.jsonl").replay()
    assert not state.complete
    # Store-put-before-journal: journaled done implies a stored record.
    stored_digests = {path.stem for path in completed}
    assert set(state.done) <= stored_digests

    # --- run 2: resume in-process, counting every simulation ---------
    import repro.network.sweep as sweep

    calls = []
    real_run_point = sweep.run_point

    def counted(topology, routing, pattern, config, settings=None):
        calls.append(pattern)
        return real_run_point(topology, routing, pattern, config, settings)

    monkeypatch.setattr(sweep, "run_point", counted)
    report = run_manifest(root, crash_manifest, workers=1)
    report.raise_for_failures()

    # Zero recomputation: exactly the missing units were simulated.
    assert len(calls) == total - len(completed)
    assert report.progress.cached == len(completed)
    assert report.progress.simulated == total - len(completed)
    assert report.progress.journaled == len(state.done)

    # The journal now narrates a resumed, complete job.
    resumed = Journal(job_dir / "journal.jsonl").replay()
    assert resumed.complete
    job_events = [e for e in resumed.events if e["event"] == "job"]
    assert job_events[-1]["resumed"] is True

    # --- bit-identical to an uninterrupted serial run ----------------
    monkeypatch.setattr(sweep, "run_point", real_run_point)
    topology = crash_manifest.topology.build()
    reference = [
        _run_spec(topology, unit.spec).to_dict()
        for unit in crash_manifest.work_units(topology)
    ]
    produced = [r.to_dict() for r in report.ordered_results(total)]
    assert produced == reference
