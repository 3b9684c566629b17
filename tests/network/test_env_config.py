"""Environment-variable parsing contracts: ``Settings.from_env``.

Each ``REPRO_*`` variable must either parse to a sane value or fail
loudly with a :class:`ValueError` that names the offending variable --
a typo'd setting silently degrading to a default has bitten real
sweeps.  ``repro.settings`` is the only reader, so this file is the
whole contract.
"""

import dataclasses
import os

import pytest

from repro.network.backend import make_simulator
from repro.settings import ENV_VARS, Settings

DEFAULTS = Settings()


def from_env(**variables):
    """``Settings.from_env`` over exactly these ``field=raw`` pairs."""
    return Settings.from_env(
        {ENV_VARS[name]: raw for name, raw in variables.items()}
    )


def test_nine_variables_with_their_historical_names():
    assert ENV_VARS == {
        "backend": "REPRO_SIM_BACKEND",
        "sanitize": "REPRO_SANITIZE",
        "sanitize_stride": "REPRO_SANITIZE_STRIDE",
        "workers": "REPRO_SWEEP_WORKERS",
        "cache_dir": "REPRO_SWEEP_CACHE",
        "service_root": "REPRO_SWEEP_SERVICE",
        "unit_timeout": "REPRO_SWEEP_SERVICE_TIMEOUT",
        "max_attempts": "REPRO_SWEEP_SERVICE_RETRIES",
        "heartbeat_interval": "REPRO_SWEEP_SERVICE_HEARTBEAT",
    }
    assert set(ENV_VARS) == {f.name for f in dataclasses.fields(Settings)}


def test_empty_environment_is_all_defaults():
    assert Settings.from_env({}) == DEFAULTS
    assert DEFAULTS == Settings(
        backend="scalar", sanitize=False, sanitize_stride=64, workers=1,
        cache_dir=None, service_root=None, unit_timeout=3600.0,
        max_attempts=3, heartbeat_interval=0.5,
    )


@pytest.mark.parametrize("name", sorted(ENV_VARS))
def test_blank_means_unset(name):
    assert from_env(**{name: "   "}) == DEFAULTS


def test_default_environ_is_the_process_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
    assert Settings.from_env().workers == 3
    monkeypatch.delenv("REPRO_SWEEP_WORKERS")
    assert Settings.from_env().workers == 1


def test_settings_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULTS.workers = 2


class TestSanitize:
    @pytest.mark.parametrize("raw, enabled", [("1", True), ("yes", True), ("0", False)])
    def test_switch(self, raw, enabled):
        assert from_env(sanitize=raw).sanitize is enabled

    def test_valid_stride(self):
        assert from_env(sanitize_stride="17").sanitize_stride == 17

    @pytest.mark.parametrize("raw", ["0", "-3", "garbage", "nope", "1.5"])
    def test_bad_stride_raises_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SANITIZE_STRIDE"):
            from_env(sanitize_stride=raw)


class TestSweepWorkers:
    @pytest.mark.parametrize("raw", ["0", "auto", "AUTO"])
    def test_auto_means_cpu_count(self, raw):
        assert from_env(workers=raw).workers == (os.cpu_count() or 1)

    def test_explicit_value(self):
        assert from_env(workers="3").workers == 3

    @pytest.mark.parametrize("raw", ["-1", "-8", "two", "1.5", "none", "many"])
    def test_bad_values_raise_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SWEEP_WORKERS"):
            from_env(workers=raw)


@pytest.mark.parametrize("name", ["cache_dir", "service_root"])
class TestDirectories:
    def test_directory_accepted_even_before_it_exists(self, name, tmp_path):
        target = tmp_path / "not-yet"
        assert getattr(from_env(**{name: str(target)}), name) == target

    def test_existing_file_rejected_naming_variable(self, name, tmp_path):
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("x")
        with pytest.raises(ValueError, match=ENV_VARS[name]):
            from_env(**{name: str(bogus)})

    def test_direct_construction_takes_a_path_not_a_string(self, name, tmp_path):
        assert getattr(Settings(**{name: tmp_path}), name) == tmp_path
        with pytest.raises(ValueError, match=rf"{ENV_VARS[name]} \({name}\)"):
            Settings(**{name: str(tmp_path)})


class TestSchedulerKnobs:
    def test_valid_values_parse(self):
        settings = from_env(
            workers="4", unit_timeout="120.5", max_attempts="5",
            heartbeat_interval="0.25",
        )
        assert settings.workers == 4
        assert settings.unit_timeout == 120.5
        assert settings.max_attempts == 5
        assert settings.heartbeat_interval == 0.25

    @pytest.mark.parametrize("raw", ["0", "-1", "garbage", "1.5s"])
    def test_bad_timeout_raises_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SWEEP_SERVICE_TIMEOUT"):
            from_env(unit_timeout=raw)

    @pytest.mark.parametrize("raw", ["0", "-2", "three", "1.5"])
    def test_bad_retries_raises_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SWEEP_SERVICE_RETRIES"):
            from_env(max_attempts=raw)

    @pytest.mark.parametrize("raw", ["0", "-0.5", "beat"])
    def test_bad_heartbeat_raises_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SWEEP_SERVICE_HEARTBEAT"):
            from_env(heartbeat_interval=raw)


class TestSimBackend:
    @pytest.mark.parametrize("raw", ["scalar", "array", " Array ", "SCALAR"])
    def test_valid_values_normalise(self, raw):
        assert from_env(backend=raw).backend == raw.strip().lower()

    @pytest.mark.parametrize("raw", ["numpy", "arry", "fast", "0", "both"])
    def test_bad_values_raise_naming_variable(self, raw):
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
            from_env(backend=raw)

    def test_direct_construction_is_validated_too(self):
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
            Settings(backend="gpu")

    @pytest.fixture()
    def engine(self, paper72_dragonfly):
        """``engine(**kwargs)``: the backend ``make_simulator`` built."""
        from repro.network.config import SimulationConfig
        from repro.network.traffic import make_pattern
        from repro.routing import make_routing

        def build(**kwargs):
            return make_simulator(
                paper72_dragonfly,
                make_routing("MIN"),
                make_pattern("uniform_random", paper72_dragonfly),
                SimulationConfig(),
                **kwargs,
            ).backend_provenance()["backend"]

        return build

    def test_explicit_arguments_override_env(self, monkeypatch, engine):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "array")
        assert engine() == "array"
        assert engine(backend=" Scalar ") == "scalar"
        assert engine(settings=DEFAULTS) == "scalar"
        assert engine(backend="array", settings=DEFAULTS) == "array"

    def test_explicit_garbage_raises(self, engine):
        with pytest.raises(ValueError, match="must be one of"):
            engine(backend="gpu")

    def test_env_garbage_fails_at_run_time(self, monkeypatch, engine):
        # The error must surface where a sweep would build its engine,
        # not only in the parsing helper.
        monkeypatch.setenv("REPRO_SIM_BACKEND", "vector")
        with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
            engine()
