"""The result cache: hits skip simulation, and only exact keys hit.

The headline property (an ISSUE satellite): a second ``load_sweep`` with
an identical configuration performs *zero* ``run_point`` invocations --
counted by monkeypatching the function the executor's worker body looks
up at call time -- and returns equal results; any mutation of the key
(seed, load, routing, topology parameters) misses.
"""

import dataclasses
import json

import pytest

import repro.network.sweep as sweep_module
from repro.core.params import DragonflyParams
from repro.network.cache import (
    SCHEMA_VERSION,
    SweepCache,
    key_digest,
    point_key,
)
from repro.network.config import SimulationConfig
from repro.network.parallel import SweepExecutor
from repro.network.sweep import load_sweep, saturation_load
from repro.topology.dragonfly import Dragonfly
from repro.topology.flattened_butterfly import FlattenedButterfly
from repro.topology.folded_clos import FoldedClos
from repro.topology.group_variants import FlattenedButterflyGroupDragonfly
from repro.topology.torus import Torus


@pytest.fixture(scope="module")
def df():
    return Dragonfly(DragonflyParams.paper_example_72())


@pytest.fixture(scope="module")
def config():
    return SimulationConfig(
        load=0.1, seed=9, warmup_cycles=100, measure_cycles=100,
        drain_max_cycles=2000,
    )


@pytest.fixture()
def counted_run_point(monkeypatch):
    """Count (and forward) every real simulation the sweep performs."""
    calls = []
    real = sweep_module.run_point

    def counting(topology, routing, pattern_name, config, settings=None):
        calls.append(config)
        return real(topology, routing, pattern_name, config, settings)

    monkeypatch.setattr(sweep_module, "run_point", counting)
    return calls


def point_dicts(points):
    return [(p.load, p.result.to_dict()) for p in points]


class TestCacheHits:
    LOADS = (0.1, 0.2)

    def test_second_sweep_simulates_nothing(
        self, df, config, tmp_path, counted_run_point
    ):
        executor = SweepExecutor(cache=SweepCache(tmp_path / "cache"))
        first = load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config, executor=executor
        )
        assert len(counted_run_point) == len(self.LOADS)

        counted_run_point.clear()
        second = load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config, executor=executor
        )
        assert counted_run_point == []
        assert point_dicts(first) == point_dicts(second)

    def test_cache_shared_across_executors(
        self, df, config, tmp_path, counted_run_point
    ):
        """The cache lives on disk, not in the executor instance."""
        load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config,
            executor=SweepExecutor(cache=SweepCache(tmp_path / "cache")),
        )
        counted_run_point.clear()
        load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config,
            executor=SweepExecutor(cache=SweepCache(tmp_path / "cache")),
        )
        assert counted_run_point == []

    def test_mutations_miss(self, df, config, tmp_path, counted_run_point):
        executor = SweepExecutor(cache=SweepCache(tmp_path / "cache"))
        load_sweep(
            df, "MIN", "uniform_random", self.LOADS, config, executor=executor
        )

        counted_run_point.clear()
        load_sweep(
            df, "MIN", "uniform_random", self.LOADS,
            dataclasses.replace(config, seed=config.seed + 1),
            executor=executor,
        )
        assert len(counted_run_point) == len(self.LOADS), "seed change must miss"

        counted_run_point.clear()
        load_sweep(
            df, "VAL", "uniform_random", self.LOADS, config, executor=executor
        )
        assert len(counted_run_point) == len(self.LOADS), "routing change must miss"

        counted_run_point.clear()
        other = Dragonfly(DragonflyParams(p=1, a=2, h=1))
        load_sweep(
            other, "MIN", "uniform_random", self.LOADS, config, executor=executor
        )
        assert len(counted_run_point) == len(self.LOADS), "topology change must miss"


class TestCacheInvalidation:
    def test_schema_bump_invalidates_and_removes(self, df, config, tmp_path):
        cache = SweepCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run_point(df, "MIN", "uniform_random", config)
        key = point_key(df, "MIN", "uniform_random", config)
        path = tmp_path / f"{key_digest(key)}.json"
        assert path.is_file()

        entry = json.loads(path.read_text())
        entry["schema"] = SCHEMA_VERSION + 1
        entry["key"]["schema"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert not path.exists(), "stale entry must self-heal"

    def test_key_mismatch_is_a_miss(self, df, config, tmp_path):
        cache = SweepCache(tmp_path)
        SweepExecutor(cache=cache).run_point(df, "MIN", "uniform_random", config)
        key = point_key(df, "MIN", "uniform_random", config)
        path = tmp_path / f"{key_digest(key)}.json"
        entry = json.loads(path.read_text())
        entry["key"]["routing"] = "VAL"  # hand-edited / colliding entry
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None

    @pytest.mark.parametrize(
        "payload, invalidated",
        [
            ("{not json", False),
            # Valid JSON that is not an entry object is a stale entry
            # like any other: dropped and counted, never a crash.
            ("[]", True),
            ("null", True),
            ("3", True),
            ('"x"', True),
        ],
    )
    def test_corrupt_file_is_a_miss(
        self, df, config, tmp_path, payload, invalidated
    ):
        cache = SweepCache(tmp_path)
        key = point_key(df, "MIN", "uniform_random", config)
        path = tmp_path / f"{key_digest(key)}.json"
        path.write_text(payload)
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.invalidations == int(invalidated)
        assert path.exists() != invalidated

    def test_non_utf8_file_is_a_miss(self, df, config, tmp_path):
        """Not a crash: the file is unreadable, so it is left in place."""
        cache = SweepCache(tmp_path)
        key = point_key(df, "MIN", "uniform_random", config)
        path = tmp_path / f"{key_digest(key)}.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert (cache.misses, cache.invalidations) == (1, 0)
        assert path.exists()

    def test_clear_and_len(self, df, config, tmp_path):
        cache = SweepCache(tmp_path)
        executor = SweepExecutor(cache=cache)
        executor.run_point(df, "MIN", "uniform_random", config)
        executor.run_point(df, "VAL", "uniform_random", config)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestKeyStability:
    def test_digest_is_order_insensitive_and_stable(self, df, config):
        key = point_key(df, "MIN", "uniform_random", config)
        reordered = dict(reversed(list(key.items())))
        assert key_digest(key) == key_digest(reordered)
        assert key_digest(key) == key_digest(
            point_key(df, "MIN", "uniform_random", dataclasses.replace(config))
        )

    def test_key_captures_every_config_field(self, df, config):
        key = point_key(df, "MIN", "uniform_random", config)
        assert set(key["config"]) == {
            field.name for field in dataclasses.fields(SimulationConfig)
        }
        assert key["topology"]["params"] == {
            "p": 2, "a": 4, "h": 2, "num_groups": 9,
        }

    def test_default_key_digest_is_pinned(self, df):
        """The wiring fields are keyed only away from their defaults, so
        a default network's key keeps its bytes."""
        key = point_key(df, "UGAL-L", "uniform_random", SimulationConfig(load=0.1))
        assert key_digest(key) == (
            "93e2b3eea35af63e27af07a3a1c55fb5bd33fcbc93cf6240ae9120755ca586c6"
        )
        assert set(key["topology"]) == {"family", "params"}

    @pytest.mark.parametrize("wiring, value", [
        ("max_channels_per_pair", 1),
        ("local_latency", 2),
        ("global_latency", 10),
        ("terminal_latency", 3),
    ])
    def test_taper_and_latencies_name_the_network(self, config, wiring, value):
        """Same params, another network: a tapered dragonfly wires 10
        global cables where the untapered one wires 20."""
        params = DragonflyParams(2, 4, 2, 5)
        plain = Dragonfly(params)
        other = Dragonfly(params, **{wiring: value})
        key = point_key(other, "MIN", "uniform_random", config)
        assert key["topology"][wiring] == value
        assert key_digest(key) != key_digest(
            point_key(plain, "MIN", "uniform_random", config)
        )


class TestSaturationProbeReuse:
    def test_each_load_simulated_at_most_once(
        self, df, config, counted_run_point
    ):
        saturation_load(
            df, "MIN", "worst_case", config,
            low=0.05, high=0.4, tolerance=0.04, latency_limit=60.0,
        )
        probed = [c.load for c in counted_run_point]
        assert len(probed) == len(set(probed)), f"re-simulated loads: {probed}"

    def test_repeated_bisection_hits_cache(
        self, df, config, tmp_path, counted_run_point
    ):
        executor = SweepExecutor(cache=SweepCache(tmp_path / "cache"))
        kwargs = dict(
            low=0.05, high=0.4, tolerance=0.04, latency_limit=60.0,
            executor=executor,
        )
        first = saturation_load(df, "MIN", "worst_case", config, **kwargs)
        assert counted_run_point, "first bisection must simulate"

        counted_run_point.clear()
        second = saturation_load(df, "MIN", "worst_case", config, **kwargs)
        assert counted_run_point == [], "second bisection must be all cache hits"
        assert first == second

    def test_dragonfly_digest_is_pinned(self, df, config):
        """Keys of existing cache and store entries must not move."""
        assert key_digest(point_key(df, "MIN", "uniform_random", config)) == (
            "2604c765f4565190aa59b8b471d1c0e687d67bebfd8cc2d6898d0cece10d732e"
        )

    @pytest.mark.parametrize("build", [
        lambda: FlattenedButterfly(dims=(4, 4), concentration=4),
        lambda: FlattenedButterfly(dims=(8, 8), concentration=8),
        lambda: FlattenedButterflyGroupDragonfly(p=1, group_dims=(2,), h=1),
        lambda: Torus(dims=(3, 3), concentration=1),
        lambda: FoldedClos(num_terminals=16, radix=8),
    ], ids=["fb4x4", "fb8x8", "variant", "torus", "clos"])
    def test_topology_without_params_is_refused(self, build, config):
        """Two sizes of one such class would share one key."""
        topology = build()
        with pytest.raises(ValueError, match=f"cannot key a {type(topology).__name__}:"):
            point_key(topology, "FB-MIN", "uniform_random", config)
