"""Every configuration of the sweep runner is bit-identical to a
plain serial loop.

The contract of :mod:`repro.network.parallel`: a sweep point is a pure
function of its :class:`PointSpec`, so where it runs -- in-process, in
a worker pool, as a journaled service job -- changes wall-clock time
and nothing else.  These tests pin the equivalence over the three
configurations (the CI workflow re-runs the equivalence class with
``REPRO_SWEEP_WORKERS=2``), the ordered reassembly, the serial
fallback and its diagnostics, and the pool's fault tolerance without a
journal.
"""

import dataclasses
import logging
import multiprocessing
import pickle

import pytest

import repro.network.parallel as parallel_module
import repro.network.sweep as sweep_module
from repro.core.params import DragonflyParams
from repro.network.config import SimulationConfig
from repro.network.parallel import (
    PointSpec,
    SchedulerOptions,
    ServiceError,
    SweepExecutor,
    SweepScheduler,
    _run_spec,
    work_units,
)
from repro.network.sweep import load_sweep
from repro.service import ServiceExecutor
from repro.settings import Settings
from repro.topology.dragonfly import Dragonfly


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(
        load=0.1, seed=5, warmup_cycles=100, measure_cycles=100,
        drain_max_cycles=2000,
    )


def point_dicts(points):
    return [(p.load, p.result.to_dict()) for p in points]


def serial_reference(topology, routing, pattern, loads, config):
    """The oracle: a plain loop over ``_run_spec``, no executor at all."""
    return [
        (load, _run_spec(
            topology, PointSpec(routing, pattern, config.with_load(load))
        ).to_dict())
        for load in loads
    ]


#: The three configurations of the one execution core.
CONFIGURATIONS = {
    "inline": lambda tmp_path, workers: SweepExecutor(workers=1),
    "pool": lambda tmp_path, workers: SweepExecutor(workers=workers),
    "service": lambda tmp_path, workers: ServiceExecutor(
        tmp_path / "svc", options=SchedulerOptions(workers=2)
    ),
}


@pytest.fixture(params=sorted(CONFIGURATIONS))
def make_executor(request, tmp_path):
    """``make_executor(workers)`` for each configuration in turn."""
    return lambda workers=2: CONFIGURATIONS[request.param](tmp_path, workers)


class TestParallelSerialEquivalence:
    LOADS = (0.1, 0.2, 0.3, 0.4)

    def test_matches_serial(self, df, config, make_executor):
        """The acceptance-criterion equivalence: 4 workers, same bits,
        whether the points differ in load or only in seed."""
        executor = make_executor(4)
        points = load_sweep(
            df, "UGAL-L", "uniform_random", self.LOADS, config,
            executor=executor,
        )
        assert point_dicts(points) == serial_reference(
            df, "UGAL-L", "uniform_random", self.LOADS, config
        )
        seeded = [
            PointSpec("MIN", "uniform_random", dataclasses.replace(config, seed=seed))
            for seed in (1, 2, 3)
        ]
        assert [r.to_dict() for r in executor.run_points(df, seeded)] == [
            _run_spec(df, spec).to_dict() for spec in seeded
        ]

    def test_matches_serial_adversarial(self, df, config, make_executor):
        points = load_sweep(
            df, "VAL", "worst_case", (0.05, 0.15), config,
            executor=make_executor(2),
        )
        assert point_dicts(points) == serial_reference(
            df, "VAL", "worst_case", (0.05, 0.15), config
        )

    def test_results_keep_submission_order(self, df, config, make_executor):
        loads = (0.4, 0.1, 0.3, 0.2)  # deliberately unsorted
        points = load_sweep(
            df, "MIN", "uniform_random", loads, config,
            executor=make_executor(4),
        )
        assert [p.load for p in points] == list(loads)
        assert [p.result.offered_load for p in points] == list(loads)

    def test_env_configured_executor_matches_serial(self, df, config):
        """CI re-runs this class with ``REPRO_SWEEP_WORKERS=2``; locally
        the environment usually selects the serial executor."""
        from_env = load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config,
            executor=SweepExecutor(workers=Settings.from_env().workers),
        )
        assert point_dicts(from_env) == serial_reference(
            df, "MIN", "uniform_random", self.LOADS, config
        )


def no_pool(monkeypatch):
    """Make any attempt to start worker processes an assertion failure."""

    def explode(*args, **kwargs):
        raise AssertionError("no worker pool may be created here")

    monkeypatch.setattr(multiprocessing, "get_context", explode)


def unpicklable_topology():
    topology = Dragonfly(DragonflyParams.paper_example_72())
    topology.unpicklable = lambda: None  # closures cannot pickle
    with pytest.raises(Exception):
        pickle.dumps(topology)
    return topology


class TestSerialFallback:
    def test_single_point_never_forks(self, df, config, monkeypatch):
        """One miss runs in-process even with workers > 1."""
        no_pool(monkeypatch)
        executor = SweepExecutor(workers=4)
        result = executor.run_point(df, "MIN", "uniform_random", config)
        assert result.routing_name == "MIN"

    def test_one_worker_never_forks(self, df, config, monkeypatch):
        no_pool(monkeypatch)
        points = load_sweep(
            df, "MIN", "uniform_random", (0.1, 0.2), config,
            executor=SweepExecutor(workers=1),
        )
        assert len(points) == 2

    def test_unpicklable_topology_degrades_to_serial(self, config, monkeypatch):
        no_pool(monkeypatch)
        executor = SweepExecutor(workers=2)
        points = load_sweep(
            unpicklable_topology(), "MIN", "uniform_random", (0.1, 0.2),
            config, executor=executor,
        )
        assert executor.stats["fallbacks"] >= 1
        assert point_dicts(points) == serial_reference(
            Dragonfly(DragonflyParams.paper_example_72()),
            "MIN", "uniform_random", (0.1, 0.2), config,
        )

    def test_fallback_is_logged_and_surfaced(self, config, caplog):
        """The pre-flight pickle failure is never silent: it is logged,
        kept on the executor, and lands in the summary line."""
        executor = SweepExecutor(workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.network.parallel"):
            load_sweep(
                unpicklable_topology(), "MIN", "uniform_random", (0.1, 0.2),
                config, executor=executor,
            )
        assert executor.last_fallback_error is not None
        assert "pickle" in executor.last_fallback_error
        assert any("serial" in record.message for record in caplog.records)
        summary = executor.summary_line()
        assert "fallback" in summary
        assert "pickle" in summary

    def test_pool_that_cannot_start_degrades_to_serial(
        self, df, config, monkeypatch, caplog
    ):
        """The other old-executor fallback: worker processes that will
        not start (``OSError``) cost a diagnostic, not the sweep."""
        context = multiprocessing.get_context()

        def no_processes(*args, **kwargs):
            raise OSError("cannot allocate a process")

        monkeypatch.setattr(context, "Process", no_processes)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda: context
        )
        executor = SweepExecutor(workers=2)
        with caplog.at_level(logging.WARNING, logger="repro.network.parallel"):
            points = load_sweep(
                df, "MIN", "uniform_random", (0.1, 0.2), config,
                executor=executor,
            )
        assert "worker pool failed" in executor.last_fallback_error
        assert "cannot allocate a process" in executor.summary_line()
        assert point_dicts(points) == serial_reference(
            df, "MIN", "uniform_random", (0.1, 0.2), config
        )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)


class TestBareExecutorFaultTolerance:
    """What the bare executor gained from the shared core: the pool's
    requeue and the bounded retries, with no journal anywhere."""

    def test_killed_worker_is_requeued_without_a_journal(
        self, df, config, tmp_path, monkeypatch
    ):
        """A worker dying mid-unit (``os._exit``, same as SIGKILL) costs
        one retry; the batch is still bit-identical."""
        crash_flag = tmp_path / "crash-now"
        crash_flag.write_text("arm")
        loads = (0.1, 0.2, 0.3)
        specs = [
            PointSpec("MIN", "uniform_random", config.with_load(load))
            for load in loads
        ]
        monkeypatch.setattr(parallel_module, "RETRY_BACKOFF", 0.01)
        scheduler = SweepScheduler(
            df, work_units(df, specs), workers=2, crash_flag=str(crash_flag),
        )
        report = scheduler.run()
        assert not crash_flag.exists()
        assert report.progress.retries >= 1
        assert report.progress.failed == 0
        produced = [r.to_dict() for r in report.ordered_results(len(specs))]
        assert produced == [
            result for _, result in serial_reference(
                df, "MIN", "uniform_random", loads, config
            )
        ]
        assert list(tmp_path.iterdir()) == [], "nothing may be journaled"

    def test_python_exception_surfaces_its_original_text(
        self, df, config, monkeypatch
    ):
        """A point that raises fails the batch with ``ServiceError``
        carrying ``Type: message`` and chained to the exception, after
        the bounded number of attempts."""
        attempts = []

        def broken(topology, routing, pattern, config, settings=None):
            attempts.append(config.load)
            raise RuntimeError("injected simulator bug")

        monkeypatch.setattr(sweep_module, "run_point", broken)
        monkeypatch.setattr(parallel_module.time, "sleep", lambda seconds: None)
        executor = SweepExecutor(settings=Settings())
        with pytest.raises(ServiceError) as excinfo:
            executor.run_point(df, "MIN", "uniform_random", config)
        assert "RuntimeError: injected simulator bug" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert len(attempts) == Settings().max_attempts

    def test_pooled_exception_surfaces_its_original_text(
        self, df, config, monkeypatch
    ):
        def broken(topology, routing, pattern, config, settings=None):
            raise RuntimeError("injected simulator bug")

        # Patched before fork, so the workers inherit the broken function.
        monkeypatch.setattr(sweep_module, "run_point", broken)
        specs = [
            PointSpec("MIN", "uniform_random", config.with_load(load))
            for load in (0.1, 0.2)
        ]
        report = SweepScheduler(
            df, work_units(df, specs), workers=2, settings=Settings(max_attempts=1),
        ).run()
        with pytest.raises(ServiceError, match="RuntimeError: injected simulator bug"):
            report.raise_for_failures()


class TestSettingsReachWorkers:
    def test_workers_get_settings_as_an_argument(self, df, config, monkeypatch):
        """An executor's settings reach pool workers even when the
        environment says otherwise."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", "scalar")
        executor = SweepExecutor(workers=2, settings=Settings(backend="array"))
        points = load_sweep(
            df, "MIN", "uniform_random", (0.1, 0.2), config, executor=executor
        )
        assert [p.result.backend_info["backend"] for p in points] == [
            "array", "array",
        ]
        assert point_dicts(points) == serial_reference(
            df, "MIN", "uniform_random", (0.1, 0.2), config
        )


class TestPointSpec:
    def test_hashable_and_picklable(self, config):
        spec = PointSpec("MIN", "uniform_random", config)
        assert spec == pickle.loads(pickle.dumps(spec))
        assert hash(spec) == hash(
            PointSpec("MIN", "uniform_random", dataclasses.replace(config))
        )
