"""Scheduler: inline/pool runs, journaling, retries, crash recovery."""

import pytest

import repro.network.parallel as parallel_module
from repro.network.parallel import ServiceError, _run_spec
from repro.service.journal import Journal, JournalCorruptError
from repro.service.scheduler import job_scheduler, run_manifest
from repro.service.store import ResultStore
from repro.settings import Settings


@pytest.fixture(autouse=True)
def fast_retries(monkeypatch):
    """Retry backoff of 10 ms instead of 250 ms."""
    monkeypatch.setattr(parallel_module, "RETRY_BACKOFF", 0.01)


def reference_dicts(manifest):
    """Serial ground truth for every unit of the manifest, in order."""
    topology = manifest.topology.build()
    return [
        _run_spec(topology, unit.spec).to_dict()
        for unit in manifest.work_units(topology)
    ]


def make_scheduler(tmp_path, manifest, units=None, workers=1, **settings_kwargs):
    store = ResultStore(tmp_path / "store")
    topology = manifest.topology.build()
    all_units = manifest.work_units(topology)
    job_dir = tmp_path / "jobs" / manifest.job_id
    scheduler = job_scheduler(
        store,
        job_dir,
        topology,
        all_units if units is None else units,
        workers=workers,
        figure=manifest.figure,
        settings=Settings(**settings_kwargs),
    )
    scheduler.job_dir = job_dir  # where the tests read the journal back
    return scheduler


def counting_run_point(monkeypatch):
    """Patch ``sweep.run_point`` with a pass-through call counter."""
    import repro.network.sweep as sweep

    calls = []
    real = sweep.run_point

    def counted(topology, routing, pattern, config, settings=None):
        calls.append(pattern)
        return real(topology, routing, pattern, config, settings)

    monkeypatch.setattr(sweep, "run_point", counted)
    return calls


class TestInlineExecution:
    def test_run_matches_serial_reference(self, tmp_path, tiny_manifest):
        scheduler = make_scheduler(tmp_path, tiny_manifest)
        report = scheduler.run()
        produced = [
            r.to_dict()
            for r in report.ordered_results(tiny_manifest.num_units())
        ]
        assert produced == reference_dicts(tiny_manifest)
        assert report.progress.simulated == tiny_manifest.num_units()
        assert report.progress.failed == 0

    def test_journal_records_the_whole_lifecycle(self, tmp_path, tiny_manifest):
        scheduler = make_scheduler(tmp_path, tiny_manifest)
        scheduler.run()
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        assert state.complete
        expected = {unit.digest for unit in scheduler.units}
        assert set(state.done) == expected
        assert state.attempts == {digest: 1 for digest in expected}
        kinds = [e["event"] for e in state.events]
        assert kinds[0] == "job"
        assert kinds[-1] == "complete"

    def test_rerun_serves_everything_from_the_store(
        self, tmp_path, tiny_manifest, monkeypatch
    ):
        make_scheduler(tmp_path, tiny_manifest).run()
        calls = counting_run_point(monkeypatch)
        report = make_scheduler(tmp_path, tiny_manifest).run()
        assert calls == []
        assert report.progress.cached == tiny_manifest.num_units()
        assert report.progress.journaled == tiny_manifest.num_units()
        assert report.progress.simulated == 0
        assert report.progress.hit_rate == 1.0

    def test_resume_simulates_only_the_remainder(
        self, tmp_path, tiny_manifest, monkeypatch
    ):
        partial = make_scheduler(tmp_path, tiny_manifest)
        partial.units = partial.units[:2]
        partial.run()

        calls = counting_run_point(monkeypatch)
        full = make_scheduler(tmp_path, tiny_manifest)
        report = full.run(on_progress=lambda p: None)
        assert len(calls) == tiny_manifest.num_units() - 2
        assert report.progress.journaled == 2
        produced = [
            r.to_dict()
            for r in report.ordered_results(tiny_manifest.num_units())
        ]
        assert produced == reference_dicts(tiny_manifest)

    def test_recompute_event_when_record_vanished(self, tmp_path, tiny_manifest):
        scheduler = make_scheduler(tmp_path, tiny_manifest)
        scheduler.run()
        victim = scheduler.units[0]
        (scheduler.store.store.points_dir / f"{victim.digest}.json").unlink()
        report = make_scheduler(tmp_path, tiny_manifest).run()
        assert report.progress.simulated == 1
        assert report.progress.cached == tiny_manifest.num_units() - 1
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        recomputed = [
            e["unit"] for e in state.events if e["event"] == "recompute"
        ]
        assert recomputed == [victim.digest]


class TestRetries:
    def test_flaky_unit_retries_and_succeeds(
        self, tmp_path, tiny_manifest, monkeypatch
    ):
        import repro.network.sweep as sweep

        real = sweep.run_point
        tripped = []

        def flaky(topology, routing, pattern, config, settings=None):
            if config.load == 0.2 and not tripped:
                tripped.append(config.load)
                raise RuntimeError("injected transient failure")
            return real(topology, routing, pattern, config, settings)

        monkeypatch.setattr(sweep, "run_point", flaky)
        report = make_scheduler(tmp_path, tiny_manifest).run()
        assert report.progress.retries == 1
        assert report.progress.failed == 0
        produced = [
            r.to_dict()
            for r in report.ordered_results(tiny_manifest.num_units())
        ]
        assert produced == reference_dicts(tiny_manifest)

    def test_permanent_failure_is_bounded_and_reported(
        self, tmp_path, tiny_manifest, monkeypatch
    ):
        import repro.network.sweep as sweep

        real = sweep.run_point
        attempts = []

        def broken(topology, routing, pattern, config, settings=None):
            if config.load == 0.3:
                attempts.append(config.load)
                raise RuntimeError("injected permanent failure")
            return real(topology, routing, pattern, config, settings)

        monkeypatch.setattr(sweep, "run_point", broken)
        scheduler = make_scheduler(tmp_path, tiny_manifest, max_attempts=2)
        report = scheduler.run()
        broken_indices = [
            unit.index for unit in scheduler.units if unit.spec.config.load == 0.3
        ]
        assert sorted(report.failed) == broken_indices
        assert all(
            "injected permanent failure" in error
            for error in report.failed.values()
        )
        # Two broken units, two attempts each -- never more.
        assert len(attempts) == 2 * len(broken_indices)
        with pytest.raises(ServiceError, match="failed"):
            report.raise_for_failures()
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        assert len(state.failed) == len(broken_indices)
        permanents = [
            e for e in state.events
            if e["event"] == "failed" and e["permanent"]
        ]
        assert len(permanents) == len(broken_indices)

    def test_failed_units_fail_ordered_results(self, tmp_path, tiny_manifest,
                                               monkeypatch):
        import repro.network.sweep as sweep

        def always_broken(topology, routing, pattern, config, settings=None):
            raise RuntimeError("nope")

        monkeypatch.setattr(sweep, "run_point", always_broken)
        report = make_scheduler(
            tmp_path, tiny_manifest, max_attempts=1
        ).run()
        assert len(report.failed) == tiny_manifest.num_units()
        with pytest.raises(ServiceError):
            report.ordered_results(tiny_manifest.num_units())


class TestPoolExecution:
    def test_pool_matches_serial_reference(self, tmp_path, tiny_manifest):
        report = make_scheduler(tmp_path, tiny_manifest, workers=2).run()
        produced = [
            r.to_dict()
            for r in report.ordered_results(tiny_manifest.num_units())
        ]
        assert produced == reference_dicts(tiny_manifest)
        assert report.progress.simulated == tiny_manifest.num_units()

    def test_killed_worker_is_detected_and_unit_requeued(
        self, tmp_path, tiny_manifest
    ):
        """A worker dying mid-unit (os._exit, same as SIGKILL) costs one
        retry, never the sweep."""
        crash_flag = tmp_path / "crash-now"
        crash_flag.write_text("arm")
        scheduler = make_scheduler(tmp_path, tiny_manifest, workers=2)
        scheduler.crash_flag = str(crash_flag)
        report = scheduler.run()
        assert not crash_flag.exists()
        assert report.progress.failed == 0
        assert report.progress.retries >= 1
        produced = [
            r.to_dict()
            for r in report.ordered_results(tiny_manifest.num_units())
        ]
        assert produced == reference_dicts(tiny_manifest)
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        dead = [e for e in state.events if e["event"] == "worker-dead"]
        assert dead
        assert "died" in dead[0]["error"]

    def test_wedged_unit_hits_the_timeout(
        self, tmp_path, tiny_spec, tiny_config, monkeypatch
    ):
        """A unit exceeding the per-unit timeout kills its worker; with
        a single allowed attempt it fails permanently."""
        import dataclasses
        import time as time_module

        import repro.network.sweep as sweep

        from repro.service.manifest import SweepManifest

        def wedge(topology, routing, pattern, config, settings=None):
            time_module.sleep(60.0)

        # Patched before fork, so workers inherit the wedged function.
        monkeypatch.setattr(sweep, "run_point", wedge)
        manifest = SweepManifest(
            figure="figtest",
            topology=tiny_spec,
            routings=("MIN",),
            patterns=("uniform_random",),
            loads=(0.1, 0.2),
            seeds=(1,),
            config=dataclasses.replace(tiny_config),
        )
        scheduler = make_scheduler(
            tmp_path, manifest, workers=2, unit_timeout=0.5, max_attempts=1,
            heartbeat_interval=0.1,
        )
        report = scheduler.run()
        assert sorted(report.failed) == [0, 1]
        assert all("timeout" in error for error in report.failed.values())
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        assert any(e["event"] == "worker-dead" for e in state.events)

    def test_unpicklable_topology_falls_back_and_journals(
        self, tmp_path, tiny_manifest
    ):
        scheduler = make_scheduler(tmp_path, tiny_manifest, workers=2)
        scheduler.topology.unpicklable = lambda: None
        report = scheduler.run()
        assert report.fallback_error is not None
        assert "pickle" in report.fallback_error
        assert report.progress.simulated == tiny_manifest.num_units()
        state = Journal(scheduler.job_dir / "journal.jsonl").replay()
        assert state.last_fallback == report.fallback_error
        # The diagnostic is part of the job's durable status (the
        # ``status`` verb renders it).
        from repro.service.status import job_statuses

        (status,) = job_statuses(tmp_path)
        assert status.last_fallback == report.fallback_error
        assert "fallback" in status.line()


class TestRunManifest:
    def test_persists_manifest_next_to_journal(self, tmp_path, tiny_manifest):
        import json

        report = run_manifest(tmp_path / "svc", tiny_manifest)
        report.raise_for_failures()
        job_dir = tmp_path / "svc" / "jobs" / tiny_manifest.job_id
        saved = json.loads((job_dir / "manifest.json").read_text())
        assert saved == tiny_manifest.to_dict()
        assert (job_dir / "journal.jsonl").exists()

    def test_progress_callback_sees_completion(self, tmp_path, tiny_manifest):
        seen = []
        run_manifest(
            tmp_path / "svc",
            tiny_manifest,
            on_progress=lambda p: seen.append((p.done, p.total)),
        )
        assert seen[0] == (0, tiny_manifest.num_units())
        assert seen[-1] == (tiny_manifest.num_units(), tiny_manifest.num_units())

    def test_progress_line_mentions_the_counts(self, tmp_path, tiny_manifest):
        report = run_manifest(tmp_path / "svc", tiny_manifest)
        line = report.progress.line()
        total = tiny_manifest.num_units()
        assert f"{total}/{total} done" in line
        assert "0 failed" in line


class TestJournalReplay:
    def test_truncated_final_line_is_ignored(self, tmp_path):
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "start", "unit": "aaa", "attempt": 1})
        journal.append({"event": "done", "unit": "aaa", "elapsed": 0.5})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "unit": "bbb", "ela')
        state = journal.replay()
        assert set(state.done) == {"aaa"}
        assert not state.complete

    def test_garbled_middle_line_is_a_named_error(self, tmp_path):
        """Events after a garbled line used to vanish silently."""
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "start", "unit": "aaa", "attempt": 1})
        with open(journal.path, "ab") as handle:
            handle.write(b'{"event": "do\xff\n')
        journal.append({"event": "done", "unit": "aaa", "elapsed": 0.5})
        with pytest.raises(JournalCorruptError) as raised:
            journal.replay()
        assert str(raised.value).startswith(f"{journal.path}: line 2 ")

    def test_torn_final_line_is_cut_before_the_next_append(self, tmp_path):
        """A resumed job appends after a crash's torn line without
        garbling its own first event."""
        journal = Journal(tmp_path / "journal.jsonl")
        journal.append({"event": "start", "unit": "aaa", "attempt": 1})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "unit": "aaa", "ela')
        resumed = Journal(journal.path)
        assert not resumed.replay().done
        resumed.append({"event": "done", "unit": "aaa", "elapsed": 0.5})
        state = Journal(journal.path).replay()
        assert set(state.done) == {"aaa"}
        assert [e["event"] for e in state.events] == ["start", "done"]

    def test_missing_journal_is_empty_state(self, tmp_path):
        state = Journal(tmp_path / "missing.jsonl").replay()
        assert state.events == []
        assert not state.complete
