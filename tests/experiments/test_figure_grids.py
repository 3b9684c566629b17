"""The simulated figures as declarations: grid identity, one batch per
figure, tabulation, and the structure that keeps the grid declared once.

The job-id digests were recorded at the commit that still had the
hand-written ``run()`` loops and the ``manifests_for_figure`` ladder;
they pin every point key of every figure, quick and full.
"""

import hashlib
from pathlib import Path

import pytest

import repro.experiments.routing_sim as routing_sim
from repro.experiments import get_experiment, manifests_for_figure
from repro.network.stats import LatencySamples, SimulationResult

SRC = Path(routing_sim.__file__).resolve().parents[2]

FIGURES = ("fig08", "fig09", "fig10", "fig11", "fig12", "fig14", "fig16")
QUICK_POINTS = dict(zip(FIGURES, (48, 2, 48, 8, 2, 20, 72)))

UNIFORM = (0.1, 0.3, 0.5, 0.7, 0.8, 0.9)
WORST = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)
MID = (0.1, 0.2, 0.3, 0.4)
LOADS = {"uniform_random": UNIFORM, "worst_case": WORST}

ROUTINGS = ("MIN", "VAL", "UGAL-L", "UGAL-L_VC", "UGAL-L_VCH", "UGAL-L_CR", "UGAL-G")
PATTERNS = ("uniform_random", "worst_case")


def encoded_latency(routing, pattern, depth, load):
    """A latency that names its point, so a mis-indexed cell shows."""
    return (
        round(load * 1000) + 1000 * depth
        + 10**6 * ROUTINGS.index(routing) + 10**8 * PATTERNS.index(pattern)
    )


def synthetic_result(spec, drained=True):
    config = spec.config
    latency = encoded_latency(
        spec.routing_name, spec.pattern_name, config.vc_buffer_depth, config.load
    )
    return SimulationResult(
        routing_name=spec.routing_name,
        pattern_name=spec.pattern_name,
        offered_load=config.load,
        num_terminals=1,
        measure_cycles=10**9,
        drained=drained,
        samples=LatencySamples([latency], [1]),
        # accepted_load = latency / 1e9: names the point as well.
        ejected_flits_in_window=latency,
    )


def tabulate(figure, drained=True):
    """``rows()`` of ``figure`` over synthetic points, no simulation."""
    experiment = get_experiment(figure)
    manifests = experiment.manifests(quick=True)
    points = {
        (s.routing_name, s.pattern_name, s.config.vc_buffer_depth, s.config.load):
            synthetic_result(s, drained)
        for manifest in manifests for s in manifest.specs()
    }
    assert len(points) == QUICK_POINTS[figure]
    return experiment, experiment.rows(None, manifests, points)


class StubExecutor:
    """Answers every batch with synthetic results and records it."""

    def __init__(self):
        self.batches = []

    def run_points(self, topology, specs):
        self.batches.append(list(specs))
        return [synthetic_result(spec) for spec in specs]

    def run_point(self, *args, **kwargs):
        raise AssertionError("a figure submits one batch, never single points")


class TestGridIdentity:
    @pytest.mark.parametrize("quick,units,digest", [
        (True, 200,
         "1323f1f44bdab9ab4a4cf8b05e030d65e8fdc7ce8cd9619d8351226a9d782e54"),
        (False, 291,
         "4ac0e7cb25a8c49e3b6ec907f462c35583b67a496714085cb591679708b5785c"),
    ])
    def test_job_ids_are_the_recorded_ones(self, quick, units, digest):
        manifests = [
            manifest for figure in FIGURES
            for manifest in manifests_for_figure(figure, quick=quick)
        ]
        assert len(manifests) == 18
        assert sum(manifest.num_units() for manifest in manifests) == units
        job_ids = "\n".join(sorted(manifest.job_id for manifest in manifests))
        assert hashlib.sha256(job_ids.encode()).hexdigest() == digest


class TestOneBatchPerFigure:
    @pytest.mark.parametrize("figure", FIGURES)
    def test_run_submits_its_own_manifests_once(self, figure, monkeypatch):
        stub = StubExecutor()
        monkeypatch.setattr(routing_sim, "experiment_executor", lambda: stub)
        experiment = get_experiment(figure)
        result = experiment.run(quick=True)
        (batch,) = stub.batches
        assert batch == [
            spec for manifest in experiment.manifests(quick=True)
            for spec in manifest.specs()
        ]
        assert len(batch) == len(set(batch)) == QUICK_POINTS[figure]
        assert result.experiment_id == figure
        assert result.columns == list(experiment.columns)
        assert result.rows


class TestTabulation:
    def check_latency_table(self, figure, expected_order, accepted):
        experiment, rows = tabulate(figure)
        assert len(rows) == len(expected_order)
        for row, (pattern, depth, load) in zip(rows, expected_order):
            assert set(row) == set(experiment.columns)
            assert (row["pattern"], row["load"]) == (pattern, load)
            if "buffer_depth" in experiment.columns:
                assert row["buffer_depth"] == depth
            for name in experiment.routing_names:
                latency = encoded_latency(name, pattern, depth, load)
                assert row[name] == latency
                if accepted:
                    assert row[f"{name}:accepted"] == latency / 10**9

    def test_fig08_every_cell(self):
        order = [(p, 16, load) for p in PATTERNS for load in LOADS[p]]
        self.check_latency_table("fig08", order, accepted=False)

    def test_fig10_every_cell_and_accepted_columns(self):
        order = [(p, 16, load) for p in PATTERNS for load in LOADS[p]]
        self.check_latency_table("fig10", order, accepted=True)

    def test_fig16_is_pattern_major_depth_minor(self):
        order = [
            (p, depth, load)
            for p in ("worst_case", "uniform_random")
            for depth in (16, 256)
            for load in LOADS[p]
        ]
        self.check_latency_table("fig16", order, accepted=False)

    @pytest.mark.parametrize("figure,depths,column", [
        ("fig11", (16, 256), "average"),
        ("fig14", (4, 8, 16, 32, 64), "latency"),
    ])
    def test_depth_tables_are_depth_major(self, figure, depths, column):
        _, rows = tabulate(figure)
        assert [(row["buffer_depth"], row["load"]) for row in rows] == [
            (depth, load) for depth in depths for load in MID
        ]
        for row in rows:
            assert row[column] == encoded_latency(
                "UGAL-L", "worst_case", row["buffer_depth"], row["load"]
            )

    def test_saturated_points_read_infinite(self):
        _, rows = tabulate("fig14", drained=False)
        assert {row["latency"] for row in rows} == {float("inf")}


class TestDeclaredOnce:
    def test_deep_buffer_warmup_rule_has_one_copy(self):
        hits = [
            path for path in SRC.rglob("*.py")
            if "warmup_cycles * 5" in path.read_text(encoding="utf-8")
        ]
        assert hits == [Path(routing_sim.__file__).resolve()]
        assert Path(routing_sim.__file__).read_text().count("warmup_cycles * 5") == 1

    @pytest.mark.parametrize("figure", FIGURES)
    def test_no_figure_class_defines_run(self, figure):
        cls = type(get_experiment(figure))
        assert issubclass(cls, routing_sim.SimulatedFigure)
        assert "run" not in vars(cls) and "manifests" not in vars(cls)

    def test_deep_buffers_warm_up_five_times_longer(self):
        shallow, deep = manifests_for_figure("fig12", quick=True)
        assert (shallow.config.vc_buffer_depth, deep.config.vc_buffer_depth) == (16, 256)
        assert deep.config.warmup_cycles == 5 * shallow.config.warmup_cycles


class TestFigurePresets:
    def test_fig09_preset(self):
        manifests = manifests_for_figure("fig09", quick=True)
        assert len(manifests) == 1
        manifest = manifests[0]
        assert manifest.figure == "fig09"
        assert manifest.routings == ("UGAL-L", "UGAL-G")
        assert manifest.patterns == ("worst_case",)
        # Figure 9 (and Figure9ChannelUtilization) is the one load 0.2.
        assert manifest.loads == (0.2,)
        assert manifest.num_units() == 2

    def test_loads_override(self):
        (manifest,) = manifests_for_figure("fig09", quick=True, loads=[0.05, 0.1])
        assert manifest.loads == (0.05, 0.1)

    def test_depth_figures_expand_to_one_manifest_per_depth(self):
        manifests = manifests_for_figure("fig14", quick=True)
        depths = sorted(m.config.vc_buffer_depth for m in manifests)
        assert depths == [4, 8, 16, 32, 64]
        assert {m.figure for m in manifests} == {"fig14"}

    def test_every_preset_decomposes(self):
        for figure in FIGURES:
            for manifest in manifests_for_figure(figure, quick=True):
                assert manifest.num_units() > 0

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="no sweep preset"):
            manifests_for_figure("fig99")

    def test_analytic_experiment_has_no_preset(self):
        with pytest.raises(KeyError, match="available: fig08 fig09 fig10"):
            manifests_for_figure("table2")
