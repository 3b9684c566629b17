"""Tests for the command-line entry point."""

import dataclasses
import json
import os

import pytest

from repro.experiments.__main__ import main
from repro.service.store import ResultStore


class TestCli:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out and "table2" in out

    def test_run_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "dragonfly" in out
        assert "2*hl + 1*hg" in out

    def test_run_multiple(self, capsys):
        assert main(["fig01", "fig02"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig02" in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_mixed_with_valid(self, capsys):
        assert main(["table1", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "Intel Connects" in captured.out
        assert "fig99" in captured.err


class TestBackendFlag:
    """``--backend`` reaches every point as an argument -- workers
    included -- and leaves the process environment untouched (it used
    to be exported, so later in-process callers silently switched
    engines)."""

    @pytest.fixture()
    def fast_fig08(self, monkeypatch):
        """fig08 (batched sweeps, so workers are used) on a two-load
        grid with short windows."""
        import repro.experiments.routing_sim as routing_sim
        from repro.network.config import SimulationConfig

        figure = routing_sim.Figure8RoutingComparison
        uniform, worst = figure.blocks
        monkeypatch.setattr(figure, "blocks", (
            dataclasses.replace(uniform, quick_loads=(0.1, 0.2)),
            dataclasses.replace(worst, quick_loads=(0.05, 0.1)),
        ))
        monkeypatch.setattr(
            routing_sim, "experiment_config",
            lambda quick=True, load=0.1, vc_buffer_depth=16: SimulationConfig(
                load=load, warmup_cycles=100, measure_cycles=100,
                drain_max_cycles=3000, vc_buffer_depth=vc_buffer_depth,
            ),
        )

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_backend_flag_does_not_leak_into_the_environment(
        self, fast_fig08, monkeypatch, tmp_path, capsys, workers
    ):
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", workers)
        monkeypatch.setenv("REPRO_SWEEP_SERVICE", str(tmp_path / "svc"))
        before = dict(os.environ)
        assert main(["fig08", "--backend", "array"]) == 0
        assert dict(os.environ) == before
        assert "16 points: 0 cached + 16 simulated" in capsys.readouterr().out
        points = ResultStore(tmp_path / "svc" / "store").query(figure="fig08")
        assert len(points) == 16
        assert {(p.backend, p.kernel) for p in points} == {("array", "decide-v1")}
        # One batch, journaled under the experiment id (not ``adhoc``).
        (job,) = (tmp_path / "svc" / "jobs").iterdir()
        assert job.name.startswith("fig08-")

    def test_environment_still_selects_the_backend(
        self, fast_fig08, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "cache"))
        assert main(["fig08"]) == 0
        entries = [
            json.loads(path.read_text())
            for path in (tmp_path / "cache").glob("*.json")
        ]
        assert len(entries) == 16
        assert {entry["provenance"]["backend"] for entry in entries} == {"array"}
