"""The latency-sample codec: two columns from the engines to the disk.

``SimulationResult.to_dict()`` is the oracle (goldens, differential
corpus, benchmark digests) and keeps its ``[latency, minimal]`` pairs;
the sweep cache, the result store and pickle carry the packed columns.
These tests pin that the packed form is lossless, small, and that every
malformed record ends as a cache invalidation, never an exception.
"""

import base64
import json
import pickle
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.cache import SCHEMA_VERSION, SweepCache, key_digest
from repro.network.stats import LatencySample, LatencySamples, SimulationResult
from repro.service.store import ResultStore

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
LATENCY_MAX = 2**32 - 1


def _result(latencies=(), minimal=(), **fields):
    defaults = dict(
        routing_name="UGAL-L",
        pattern_name="worst_case",
        offered_load=0.3,
        num_terminals=72,
        measure_cycles=1000,
        drained=True,
        samples=LatencySamples(latencies, minimal),
        ejected_flits_in_window=123,
        global_channel_flits={3: 7, 11: 2},
        warmup_cycles=1000,
        total_cycles=2100,
        avg_source_queue_at_end=0.25,
    )
    defaults.update(fields)
    return SimulationResult(**defaults)


def _canonical(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _through_json(data):
    return json.loads(json.dumps(data, sort_keys=True))


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    @given(
        st.lists(st.tuples(st.integers(0, LATENCY_MAX), st.booleans()), max_size=200)
    )
    @example([])
    @example([(17, True)])
    @example([(5, True)] * 40)
    @example([(5, False)] * 40)
    @example([(LATENCY_MAX, False), (0, True), (2**31, True)])
    @settings(max_examples=60, deadline=None)
    def test_every_form_is_lossless(self, pairs):
        result = _result([lat for lat, _ in pairs], [flag for _, flag in pairs])
        oracle = _canonical(result.to_dict())
        assert result.to_dict()["samples"] == [list(pair) for pair in pairs]

        packed = SimulationResult.from_dict(_through_json(result.to_record()))
        assert packed == result
        assert _canonical(packed.to_dict()) == oracle

        legacy = SimulationResult.from_dict(_through_json(result.to_dict()))
        assert legacy == result
        assert _canonical(legacy.to_dict()) == oracle

        pickled = pickle.loads(pickle.dumps(result))
        assert pickled == result
        assert _canonical(pickled.to_dict()) == oracle

    def test_record_is_to_dict_with_packed_samples(self):
        result = _result([9, 30, 12], [True, False, True])
        record, plain = result.to_record(), result.to_dict()
        assert set(record["samples"]) == {"n", "latency", "minimal"}
        assert record["samples"]["n"] == 3
        raw = zlib.decompress(base64.b64decode(record["samples"]["latency"]))
        assert raw == b"".join(v.to_bytes(4, "little") for v in (9, 30, 12))
        assert zlib.decompress(
            base64.b64decode(record["samples"]["minimal"])
        ) == b"\x01\x00\x01"
        del record["samples"], plain["samples"]
        assert record == plain

    @pytest.mark.parametrize(
        "path",
        sorted(GOLDEN_DIR.rglob("*.json")),
        ids=lambda path: str(path.relative_to(GOLDEN_DIR)),
    )
    def test_golden_points_survive_packing_byte_for_byte(self, path):
        for point in json.loads(path.read_text())["points"]:
            record = SimulationResult.from_dict(point).to_record()
            restored = SimulationResult.from_dict(_through_json(record))
            assert _canonical(restored.to_dict()) == _canonical(point)

    def test_pickle_is_a_tenth_of_the_object_list(self):
        rng = random.Random(7)
        latencies = [rng.randint(8, 200) for _ in range(25_000)]
        minimal = [rng.random() < 0.7 for _ in range(25_000)]
        # What a result pickled as before this codec: one object a sample.
        before = len(pickle.dumps(list(map(LatencySample, latencies, minimal))))
        after = len(pickle.dumps(_result(latencies, minimal)))
        assert after < 0.10 * before, (after, before)


class TestColumns:
    def test_engine_columns_are_narrowed_with_a_check(self):
        """The array engine hands over an int64 and a bool numpy column."""
        import numpy as np

        def hand_over(latencies, minimal):
            return LatencySamples(
                memoryview(np.array(latencies, np.int64)),
                np.array(minimal, np.bool_),
            )

        assert list(hand_over([3, LATENCY_MAX], [True, False])) == [
            LatencySample(3, True), LatencySample(LATENCY_MAX, False),
        ]
        assert not hand_over([], [])
        for bad in (-1, LATENCY_MAX + 1):
            with pytest.raises(OverflowError):
                hand_over([bad], [True])
        with pytest.raises(ValueError):
            hand_over([1, 2], [True])

    @pytest.mark.parametrize("bad", [-1, LATENCY_MAX + 1])
    def test_append_raises_instead_of_wrapping(self, bad):
        samples = LatencySamples([4], [True])
        with pytest.raises(OverflowError):
            samples.append(bad, True)
        assert list(samples) == [LatencySample(4, True)]


# ----------------------------------------------------------------------
# Malformed records
# ----------------------------------------------------------------------
def _b64(raw):
    return base64.b64encode(raw).decode("ascii")


def _column(raw):
    return _b64(zlib.compress(raw))


def _set(field, value):
    def mutate(record):
        record[field] = value
    return mutate


def _set_samples(**fields):
    def mutate(record):
        record["samples"] = {**record["samples"], **fields}
    return mutate


def _truncate_latency(record):
    payload = base64.b64decode(record["samples"]["latency"])
    record["samples"]["latency"] = _b64(payload[: len(payload) // 2])


MALFORMED = {
    "flits-list": _set("global_channel_flits", [1, 2]),
    "flits-null": _set("global_channel_flits", None),
    "no-terminals": _set("num_terminals", 0),
    "negative-window": _set("measure_cycles", -5),
    "negative-latency": _set("samples", [[12, True], [-1, False]]),
    "latency-too-wide": _set("samples", [[LATENCY_MAX + 1, True]]),
    "ragged-pairs": _set("samples", [[12, True], [13]]),
    "n-too-large": _set_samples(n=4),
    "n-too-small": _set_samples(n=2),
    "n-not-a-count": _set_samples(n="3"),
    "columns-disagree": _set_samples(minimal=_column(b"\x01\x00")),
    "minimal-not-a-flag": _set_samples(minimal=_column(b"\x01\x00\x02")),
    "truncated-payload": _truncate_latency,
    "garbled-zlib": _set_samples(latency=_b64(b"not a zlib stream")),
    "garbled-base64": _set_samples(latency="@@@@"),
    "payload-not-text": _set_samples(latency=7),
    "result-not-an-object": None,
}


@pytest.fixture()
def stored(tmp_path):
    """A store holding one valid three-sample record; returns the store,
    its key and the record's path."""
    store = ResultStore(tmp_path / "store")
    key = {"schema": SCHEMA_VERSION, "routing": "UGAL-L", "config": {"load": 0.3, "seed": 1}}
    store.put(key, _result([9, 30, 12], [True, False, True]))
    return store, key, store.points_dir / f"{key_digest(key)}.json"


class TestMalformedRecords:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_from_dict_raises_value_error(self, case):
        record = _result([9, 30, 12], [True, False, True]).to_record()
        if MALFORMED[case] is None:
            record = []
        else:
            MALFORMED[case](record)
        with pytest.raises(ValueError):
            SimulationResult.from_dict(_through_json(record))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cache_invalidates_and_gc_counts_corrupt(self, stored, case):
        store, key, path = stored
        entry = json.loads(path.read_text())
        if MALFORMED[case] is None:
            entry["result"] = []
        else:
            MALFORMED[case](entry["result"])
        path.write_text(json.dumps(entry))

        counts = store.gc()
        assert counts["corrupt"] == 1 and counts["indexed"] == 0
        assert counts["stale_removed"] == 0
        assert path.exists(), "gc leaves a corrupt record for inspection"

        cache = SweepCache(store.points_dir)
        assert cache.get(key) is None
        assert cache.counters() == {"hits": 0, "misses": 1, "invalidations": 1}
        assert not path.exists(), "the cache self-heals"

    def test_valid_record_is_a_hit(self, stored):
        store, key, _ = stored
        assert store.get(key) == _result([9, 30, 12], [True, False, True])
        assert store.gc()["corrupt"] == 0


class TestSchemaOneRecords:
    """A record written before the packed format: its key carried
    ``schema: 1``, so its file name is a digest no current key has."""

    @pytest.fixture()
    def v1(self, stored):
        store, key, _ = stored
        old_key = {**key, "schema": 1}
        path = store.points_dir / f"{key_digest(old_key)}.json"
        path.write_text(json.dumps({
            "schema": 1,
            "key": old_key,
            "result": _result([9, 30, 12], [True, False, True]).to_dict(),
        }))
        return store, old_key, path

    def test_is_a_miss_for_the_cache(self, v1):
        store, old_key, path = v1
        cache = SweepCache(store.points_dir)
        assert cache.get(old_key) is None
        assert cache.counters() == {"hits": 0, "misses": 1, "invalidations": 1}
        assert not path.exists()

    def test_is_removed_by_gc_not_counted_corrupt(self, v1):
        store, _, path = v1
        counts = store.gc()
        assert counts["stale_removed"] == 1
        assert counts["corrupt"] == 0
        assert counts["indexed"] == 1, "the current record stays"
        assert not path.exists()
        assert store.gc()["stale_removed"] == 0

