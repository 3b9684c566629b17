"""Service client: the drop-in executor and its env-var activation."""

import pytest

from repro.experiments.base import executor_for, experiment_executor
from repro.network.parallel import SchedulerOptions, ServiceError, SweepExecutor
from repro.network.sweep import load_sweep
from repro.service.client import ServiceExecutor
from repro.settings import Settings
from repro.topology.base import build

SERVICE_ENV_VAR = "REPRO_SWEEP_SERVICE"


@pytest.fixture()
def topology(tiny_spec):
    return build(tiny_spec)


def point_dicts(points):
    return [(p.load, p.result.to_dict()) for p in points]


class TestEnvActivation:
    """``executor_for`` is the one place a ``Settings`` becomes an
    executor (the parsing contract is tests/network/test_env_config.py)."""

    def test_defaults_are_serial_and_uncached(self):
        executor = executor_for(Settings())
        assert type(executor) is SweepExecutor
        assert executor.workers == 1
        assert executor.cache is None

    def test_workers_and_cache_reach_the_bare_executor(self, tmp_path):
        settings = Settings(workers=3, cache_dir=tmp_path / "cache")
        executor = executor_for(settings)
        assert type(executor) is SweepExecutor
        assert executor.workers == 3
        assert executor.cache.directory == tmp_path / "cache"
        assert executor.settings is settings

    def test_service_root_returns_service_executor(self, tmp_path):
        settings = Settings(
            service_root=tmp_path / "svc", workers=2, max_attempts=5,
            unit_timeout=12.0, heartbeat_interval=0.25,
        )
        executor = executor_for(settings)
        assert isinstance(executor, ServiceExecutor)
        assert executor.root == tmp_path / "svc"
        assert executor.workers == 2
        assert executor.settings is settings
        assert executor.figure == "adhoc"
        assert executor_for(settings, figure="fig08").figure == "fig08"

    def test_file_root_rejected_naming_the_variable(self, monkeypatch, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        monkeypatch.setenv(SERVICE_ENV_VAR, str(not_a_dir))
        with pytest.raises(ValueError, match=SERVICE_ENV_VAR):
            experiment_executor()

    def test_experiment_executor_becomes_a_service_client(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.delenv(SERVICE_ENV_VAR, raising=False)
        assert not isinstance(experiment_executor(), ServiceExecutor)
        monkeypatch.setenv(SERVICE_ENV_VAR, str(tmp_path / "svc"))
        assert isinstance(experiment_executor(), ServiceExecutor)


class TestSchedulerObeysSettings:
    """The retry bound is read from the run's ``Settings`` on both
    paths: a bare executor used to run its class default (3 tries)."""

    @pytest.fixture()
    def attempts(self, monkeypatch):
        import repro.network.parallel as parallel

        calls = []
        real = parallel._run_spec

        def counted(topology, spec, settings=None):
            calls.append(spec.routing_name)
            return real(topology, spec, settings)

        monkeypatch.setattr(parallel, "_run_spec", counted)
        return calls

    def test_plain_executor_makes_one_attempt(
        self, topology, tiny_config, attempts
    ):
        executor = SweepExecutor(settings=Settings(max_attempts=1))
        with pytest.raises(ServiceError, match="unknown routing"):
            executor.run_point(topology, "NOPE", "uniform_random", tiny_config)
        assert attempts == ["NOPE"]

    def test_service_executor_makes_one_journaled_attempt(
        self, tmp_path, topology, tiny_config, attempts
    ):
        from repro.service.journal import Journal

        executor = executor_for(
            Settings(service_root=tmp_path / "svc", max_attempts=1)
        )
        with pytest.raises(ServiceError, match="unknown routing"):
            executor.run_point(topology, "NOPE", "uniform_random", tiny_config)
        assert attempts == ["NOPE"]
        (journal,) = (tmp_path / "svc" / "jobs").glob("adhoc-*/journal.jsonl")
        failed = [
            event for event in Journal(journal).replay().events
            if event["event"] == "failed"
        ]
        assert [(e["attempt"], e["permanent"]) for e in failed] == [(1, True)]


class TestServiceExecutor:
    def test_sweep_matches_plain_executor(
        self, tmp_path, topology, tiny_config
    ):
        executor = ServiceExecutor(tmp_path / "svc")
        points = load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2), tiny_config,
            executor=executor,
        )
        reference = load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2), tiny_config
        )
        assert point_dicts(points) == point_dicts(reference)
        assert executor.stats["simulated"] == 2
        assert executor.stats["cached"] == 0

    def test_second_run_is_all_cache_hits_zero_simulation(
        self, tmp_path, topology, tiny_config, monkeypatch
    ):
        first = ServiceExecutor(tmp_path / "svc")
        points = load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2, 0.3), tiny_config,
            executor=first,
        )

        import repro.network.sweep as sweep

        def explode(*args, **kwargs):
            raise AssertionError("second run must not simulate")

        monkeypatch.setattr(sweep, "run_point", explode)
        second = ServiceExecutor(tmp_path / "svc")
        again = load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2, 0.3), tiny_config,
            executor=second,
        )
        assert point_dicts(again) == point_dicts(points)
        assert second.stats == {"cached": 3, "simulated": 0, "fallbacks": 0}
        assert "100.0% hit rate" in second.summary_line()

    def test_results_land_in_the_queryable_store(
        self, tmp_path, topology, tiny_config
    ):
        executor = ServiceExecutor(tmp_path / "svc", figure="figx")
        load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2), tiny_config,
            executor=executor,
        )
        rows = executor.store.query(figure="figx", routing="MIN")
        assert [row.load for row in rows] == [0.1, 0.2]

    def test_run_point_single(self, tmp_path, topology, tiny_config):
        executor = ServiceExecutor(tmp_path / "svc")
        result = executor.run_point(
            topology, "MIN", "uniform_random", tiny_config
        )
        assert result.routing_name == "MIN"
        assert executor.stats["simulated"] == 1

    def test_batches_journal_as_adhoc_jobs(
        self, tmp_path, topology, tiny_config
    ):
        from repro.service.status import job_statuses

        executor = ServiceExecutor(tmp_path / "svc")
        load_sweep(
            topology, "MIN", "uniform_random", (0.1, 0.2), tiny_config,
            executor=executor,
        )
        statuses = job_statuses(tmp_path / "svc")
        assert len(statuses) == 1
        assert statuses[0].state == "complete"
        assert statuses[0].job_id.startswith("adhoc-")

    def test_fallback_error_is_surfaced(self, tmp_path, tiny_config):
        from repro.core.params import DragonflyParams
        from repro.topology.dragonfly import Dragonfly

        unpicklable = Dragonfly(DragonflyParams(p=1, a=2, h=1))
        unpicklable.bad = lambda: None
        executor = ServiceExecutor(
            tmp_path / "svc", options=SchedulerOptions(workers=2)
        )
        load_sweep(
            unpicklable, "MIN", "uniform_random", (0.1, 0.2), tiny_config,
            executor=executor,
        )
        assert executor.stats["fallbacks"] == 1
        assert executor.last_fallback_error is not None
        assert "pickle" in executor.last_fallback_error
        assert "fallback" in executor.summary_line()

    def test_summary_line_names_the_root(self, tmp_path, topology, tiny_config):
        executor = ServiceExecutor(tmp_path / "svc")
        load_sweep(
            topology, "MIN", "uniform_random", (0.1,), tiny_config,
            executor=executor,
        )
        assert str(tmp_path / "svc") in executor.summary_line()
