"""``python -m repro.serve``: submit / status / query / gc verbs."""

import json

import pytest

from repro.serve.__main__ import main
from repro.service.status import job_statuses
from repro.topology.base import build


@pytest.fixture()
def manifest_file(tmp_path, tiny_manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(tiny_manifest.to_dict()), encoding="utf-8")
    return path


@pytest.fixture()
def root(tmp_path):
    return tmp_path / "svc"


def run_cli(*argv):
    return main(list(argv))


#: The dragonfly-only ``topology`` that schema-1 manifests held.
SCHEMA_1_TOPOLOGY = {"family": "dragonfly", "p": 1, "a": 2, "h": 1, "num_groups": None}


def schema_1_forms(manifest):
    """A manifest as a schema-1 checkout wrote it, and the same with
    only its ``topology`` in the old form: (payload, refused field)."""
    old_topology = {**manifest.to_dict(), "topology": SCHEMA_1_TOPOLOGY}
    return [({**old_topology, "schema": 1}, "schema"), (old_topology, "topology")]


class TestSubmit:
    def test_submit_manifest_runs_to_completion(
        self, root, manifest_file, tiny_manifest, capsys
    ):
        code = run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert tiny_manifest.job_id in out
        assert "6/6 done" in out

    def test_resubmit_is_pure_cache(
        self, root, manifest_file, tiny_manifest, capsys, monkeypatch
    ):
        assert run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file),
        ) == 0
        capsys.readouterr()

        import repro.network.sweep as sweep

        def explode(*args, **kwargs):
            raise AssertionError("resubmit must not simulate")

        monkeypatch.setattr(sweep, "run_point", explode)
        code = run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file), "--json",
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        assert summary["simulated"] == 0
        assert summary["cached"] == tiny_manifest.num_units()
        assert summary["failed"] == 0
        (job,) = summary["jobs"]
        assert job["hit_rate"] == 1.0

    def test_loads_override_shrinks_the_grid(
        self, root, manifest_file, capsys
    ):
        code = run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file),
            "--loads", "0.1", "--json",
        )
        summary = json.loads(capsys.readouterr().out)
        assert code == 0
        (job,) = summary["jobs"]
        assert job["total"] == 2  # 2 routings x 1 pattern x 1 load x 1 seed

    @pytest.mark.parametrize("tty, flags, live", [
        (True, (), True),
        (False, (), False),
        (True, ("--json",), False),
    ], ids=["tty", "pipe", "tty-json"])
    def test_progress_line_needs_a_tty_and_no_json(
        self, root, manifest_file, capsys, monkeypatch, tty, flags, live
    ):
        monkeypatch.setattr("sys.stderr.isatty", lambda: tty)
        code = run_cli(
            "--root", str(root), "submit", "--manifest", str(manifest_file),
            *flags,
        )
        assert code == 0
        err = capsys.readouterr().err
        assert ("\r  " in err) is live
        if live:
            assert "6/6 done" in err

    def test_zero_workers_is_one_error_line(self, root, manifest_file):
        with pytest.raises(SystemExit, match=r"^error: --workers must be >= 1$"):
            run_cli(
                "--root", str(root), "submit",
                "--manifest", str(manifest_file), "--workers", "0",
            )
        assert not (root / "jobs").exists()

    def test_submit_without_figure_or_manifest_errors(self, root):
        with pytest.raises(SystemExit, match="FIGURE"):
            run_cli("--root", str(root), "submit")

    def test_unknown_figure_errors(self, root):
        with pytest.raises(SystemExit, match="no sweep preset"):
            run_cli("--root", str(root), "submit", "fig99")

    @pytest.mark.parametrize("loads", ["1.5", "0", "0.1,1.5"])
    def test_out_of_range_load_is_one_line_not_a_traceback(
        self, root, loads, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--root", str(root), "submit", "fig09", "--loads", loads)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: load") and loads.split(",")[-1] in line
        assert captured.out == ""

    def test_unknown_pattern_is_a_bad_manifest(
        self, root, tmp_path, tiny_manifest
    ):
        path = tmp_path / "nope.json"
        path.write_text(
            json.dumps({**tiny_manifest.to_dict(), "patterns": ["nope"]}),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit, match="error: bad manifest .*'nope'"):
            run_cli("--root", str(root), "submit", "--manifest", str(path))
        assert not (root / "jobs").exists()

    def test_other_family_routing_is_a_bad_manifest(
        self, root, tmp_path, tiny_manifest
    ):
        path = tmp_path / "fb.json"
        path.write_text(
            json.dumps({**tiny_manifest.to_dict(), "routings": ["FB-MIN"]}),
            encoding="utf-8",
        )
        with pytest.raises(
            SystemExit, match="error: bad manifest .*'FB-MIN' drives a FlattenedButterfly"
        ):
            run_cli("--root", str(root), "submit", "--manifest", str(path))
        assert not (root / "jobs").exists()

    @pytest.mark.parametrize("form", [0, 1], ids=["schema-1", "old-topology"])
    def test_schema_1_manifest_is_one_error_line(
        self, root, tmp_path, tiny_manifest, form, capsys
    ):
        payload, field = schema_1_forms(tiny_manifest)[form]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(
            SystemExit, match=f"^error: bad manifest {path}: {field}: [^\n]*$"
        ):
            run_cli("--root", str(root), "submit", "--manifest", str(path))
        assert not (root / "jobs").exists()

    @pytest.mark.parametrize("topology, message", [
        ({"family": "Torus", "dims": [0, 3], "concentration": 1},
         "torus dimensions must all be >= 2"),
        ({"family": "Dragonfly", "params": {"p": 1, "a": 2, "h": 1},
          "max_channels_per_pair": 0}, "max_channels_per_pair must be >= 1"),
    ], ids=["torus", "taper"])
    def test_network_the_constructor_refuses_is_one_error_line(
        self, root, tmp_path, tiny_manifest, topology, message
    ):
        payload = {**tiny_manifest.to_dict(), "topology": topology}
        if topology["family"] == "Torus":
            payload.update(routings=["TORUS-DOR"], config={**payload["config"], "num_vcs": 4})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(
            SystemExit, match=f"^error: bad manifest {path}: topology: {message}[^\n]*$"
        ):
            run_cli("--root", str(root), "submit", "--manifest", str(path))
        assert not (root / "jobs").exists()

    def test_non_utf8_manifest_file_is_one_error_line(self, root, tmp_path):
        path = tmp_path / "garbled.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(SystemExit, match=f"error: cannot read manifest {path}: "):
            run_cli("--root", str(root), "submit", "--manifest", str(path))

    def test_out_of_range_load_override_is_a_bad_manifest(self, root, manifest_file):
        with pytest.raises(SystemExit, match="error: bad manifest .*got 1.5"):
            run_cli(
                "--root", str(root), "submit",
                "--manifest", str(manifest_file), "--loads", "1.5",
            )

    def test_bad_loads_errors(self, root, manifest_file):
        with pytest.raises(SystemExit, match="--loads"):
            run_cli(
                "--root", str(root), "submit",
                "--manifest", str(manifest_file), "--loads", "fast",
            )

    def test_missing_root_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_SERVICE", raising=False)
        with pytest.raises(SystemExit, match="REPRO_SWEEP_SERVICE"):
            run_cli("submit", "fig09")

    def test_root_defaults_to_env(
        self, root, manifest_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_SWEEP_SERVICE", str(root))
        code = run_cli(
            "submit", "--manifest", str(manifest_file),
        )
        assert code == 0
        assert (root / "store" / "index.json").exists()


class TestStatusQueryGc:
    @pytest.fixture()
    def submitted(self, root, manifest_file, capsys):
        run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file),
        )
        capsys.readouterr()
        return root

    def test_status_lists_the_job(self, submitted, tiny_manifest, capsys):
        assert run_cli("--root", str(submitted), "status") == 0
        out = capsys.readouterr().out
        assert tiny_manifest.job_id in out
        assert "complete" in out
        assert "6/6 done" in out
        assert "store: 6 points (figtest: 6)" in out

    def test_status_on_empty_root(self, root, capsys):
        assert run_cli("--root", str(root), "status") == 0
        out = capsys.readouterr().out
        assert "no jobs submitted" in out

    def test_query_filters_and_renders(self, submitted, capsys):
        assert run_cli(
            "--root", str(submitted), "query",
            "--figure", "figtest", "--routing", "MIN",
        ) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 1 + 3  # header + three MIN points at 0.1-0.3
        assert "VAL" not in out

    def test_query_json_rows(self, submitted, capsys):
        assert run_cli(
            "--root", str(submitted), "query", "--routing", "VAL", "--json",
        ) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["load"] for row in rows] == [0.1, 0.2, 0.3]
        assert all(row["routing"] == "VAL" for row in rows)

    def test_query_no_matches(self, submitted, capsys):
        assert run_cli(
            "--root", str(submitted), "query", "--figure", "nothing",
        ) == 0
        assert "no matching points" in capsys.readouterr().out

    def test_gc_reports_counts(self, submitted, capsys):
        (submitted / "store" / "points" / "junk.tmp").write_text("x")
        assert run_cli("--root", str(submitted), "gc", "--json") == 0
        counts = json.loads(capsys.readouterr().out)
        assert counts["indexed"] == 6
        assert counts["tmp_removed"] == 1
        assert counts["corrupt"] == counts["stale_removed"] == 0

    def test_gc_prints_stale_and_corrupt_counts(self, submitted, capsys):
        points = submitted / "store" / "points"
        (points / "old.json").write_text('{"schema": 1, "key": {}, "result": {}}')
        (points / "bad.json").write_text("[]")
        assert run_cli("--root", str(submitted), "gc") == 0
        out = capsys.readouterr().out
        assert "1 corrupt records skipped" in out
        assert "1 stale records removed" in out
        assert not (points / "old.json").exists()
        assert (points / "bad.json").exists()


class TestStatusOnDamagedJobs:
    """``status`` lists a damaged job as corrupt, naming the file; it
    used to die with a traceback."""

    @pytest.fixture()
    def job_dir(self, root, manifest_file, tiny_manifest, capsys):
        run_cli(
            "--root", str(root), "submit",
            "--manifest", str(manifest_file),
        )
        capsys.readouterr()
        return root / "jobs" / tiny_manifest.job_id

    @pytest.mark.parametrize("payload", ["[]", "3", "{}", "{not json"])
    def test_damaged_manifest_is_listed_as_corrupt(
        self, root, job_dir, payload, capsys
    ):
        (job_dir / "manifest.json").write_text(payload)
        assert run_cli("--root", str(root), "status") == 0
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert str(job_dir / "manifest.json") in out
        # The journal still says what the job was.
        assert "6/6 done" in out

        (job,) = job_statuses(root)
        assert job.state == "corrupt"
        assert job.figure == "figtest"
        assert str(job_dir / "manifest.json") in job.damaged

    @pytest.mark.parametrize("form", [0, 1], ids=["schema-1", "old-topology"])
    def test_schema_1_manifest_is_listed_as_corrupt(
        self, root, job_dir, tiny_manifest, form, capsys
    ):
        payload, field = schema_1_forms(tiny_manifest)[form]
        (job_dir / "manifest.json").write_text(json.dumps(payload))
        assert run_cli("--root", str(root), "status") == 0
        assert "corrupt" in capsys.readouterr().out
        (job,) = job_statuses(root)
        assert job.state == "corrupt"
        assert f"{job_dir / 'manifest.json'}: ValueError: {field}: " in job.damaged

    def test_damaged_done_event_is_skipped(self, root, job_dir):
        journal = job_dir / "journal.jsonl"
        lines = journal.read_text().splitlines()
        victim = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["event"] == "done"
        )
        event = json.loads(lines[victim])
        event["elapsed"] = "x"
        lines[victim] = json.dumps(event)
        journal.write_text("\n".join(lines) + "\n")
        (job,) = job_statuses(root)
        assert job.state == "complete"
        assert job.done == 5

    def test_damaged_job_event_is_listed_as_corrupt(self, root, job_dir, capsys):
        journal = job_dir / "journal.jsonl"
        lines = [json.loads(line) for line in journal.read_text().splitlines()]
        for event in lines:
            if event["event"] == "job":
                event["units"] = "many"
        journal.write_text("".join(json.dumps(e) + "\n" for e in lines))
        assert run_cli("--root", str(root), "status") == 0
        out = capsys.readouterr().out
        assert "corrupt" in out
        assert str(journal) in out

    @pytest.fixture()
    def garbled(self, job_dir):
        """The job's journal with its second line garbled."""
        journal = job_dir / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff garbled\n"
        journal.write_bytes(b"".join(lines))
        return journal

    def test_garbled_journal_line_is_listed_as_corrupt(self, root, garbled):
        (job,) = job_statuses(root)
        assert job.state == "corrupt"
        assert job.damaged.startswith(f"{garbled}: line 2 ")
        assert job.figure == "figtest", "the manifest still names the job"

    def test_resuming_a_garbled_journal_is_one_error_line(
        self, root, garbled, manifest_file, monkeypatch
    ):
        import repro.network.sweep as sweep

        def explode(*args, **kwargs):
            raise AssertionError("a corrupt journal must not be recomputed")

        monkeypatch.setattr(sweep, "run_point", explode)
        with pytest.raises(SystemExit) as exit_info:
            run_cli(
                "--root", str(root), "submit",
                "--manifest", str(manifest_file),
            )
        (line,) = str(exit_info.value.code).splitlines()
        assert line.startswith("error: cannot resume ")
        assert f"{garbled}: line 2 " in line


class TestQueryEngineColumn:
    @pytest.fixture()
    def mixed_root(self, root, tiny_manifest):
        """A store populated directly with mixed engine provenance."""
        from repro.network.parallel import _run_spec
        from repro.service.store import ResultStore

        store = ResultStore(root / "store")
        topology = build(tiny_manifest.topology)
        provenances = [
            {"backend": "scalar", "kernel": "none"},
            {"backend": "array", "kernel": "ugal"},
            {
                "backend": "array",
                "kernel": "none",
                "kernel_fallback": "routing has no kernel lowering",
            },
        ]
        for index, unit in enumerate(tiny_manifest.work_units(topology)):
            result = _run_spec(topology, unit.spec)
            result.backend_info = dict(provenances[index % len(provenances)])
            store.put(unit.key, result, figure=tiny_manifest.figure)
        return root

    def test_rows_carry_backend_kernel_and_digest(self, mixed_root, capsys):
        assert run_cli("--root", str(mixed_root), "query", "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert sorted((row["backend"], row["kernel"]) for row in rows) == sorted(
            [("scalar", "none"), ("array", "ugal"), ("array", "none")] * 2
        )
        assert all(len(row["digest"]) == 64 for row in rows)

    def test_engine_column_rendered_in_text_output(self, mixed_root, capsys):
        assert run_cli("--root", str(mixed_root), "query") == 0
        out = capsys.readouterr().out
        assert "engine" in out.splitlines()[0]
        assert "array/ugal" in out
        assert "scalar" in out
