"""Result store: indexed puts, queries, figure tags, gc/reindex."""

import json

import pytest

from repro.network.parallel import _run_spec
from repro.service.store import ResultStore

#: A point or index file whose bytes are not UTF-8.
NOT_UTF8 = b"\xff\xfe\x00garbage"


@pytest.fixture()
def populated(tmp_path, tiny_manifest):
    """A store holding the tiny manifest's six points."""
    store = ResultStore(tmp_path / "store")
    topology = tiny_manifest.topology.build()
    units = tiny_manifest.work_units(topology)
    for unit in units:
        result = _run_spec(topology, unit.spec)
        store.put(unit.key, result, figure=tiny_manifest.figure)
    return store, topology, units


@pytest.fixture()
def mixed_backends(tmp_path, tiny_manifest):
    """A store whose six points carry three distinct engine provenances:
    scalar, array-with-kernel, and array-with-kernel-fallback (the shape
    a ``TableRouting`` produces -- no kernel lowering)."""
    store = ResultStore(tmp_path / "store")
    topology = tiny_manifest.topology.build()
    units = tiny_manifest.work_units(topology)
    provenances = [
        {"backend": "scalar", "kernel": "none"},
        {"backend": "array", "kernel": "ugal"},
        {
            "backend": "array",
            "kernel": "none",
            "kernel_fallback": (
                "routing TableRouting has no kernel lowering"
            ),
        },
    ]
    for index, unit in enumerate(units):
        result = _run_spec(topology, unit.spec)
        result.backend_info = dict(provenances[index % len(provenances)])
        store.put(unit.key, result, figure=tiny_manifest.figure)
    return store, units


def stored(store, unit):
    """The indexed point of ``unit``."""
    (point,) = [p for p in store.query() if p.digest == unit.digest]
    return point


class TestPutGetQuery:
    def test_put_then_get_round_trips(self, populated):
        store, topology, units = populated
        for unit in units:
            result = store.get(unit.key)
            assert result is not None
            assert result.to_dict() == _run_spec(topology, unit.spec).to_dict()

    def test_query_by_figure(self, populated):
        store, _, units = populated
        points = store.query(figure="figtest")
        assert len(points) == len(units)
        assert store.query(figure="other") == []

    def test_query_by_routing_and_load_range(self, populated):
        store, _, _ = populated
        points = store.query(routing="MIN", max_load=0.25)
        assert [p.load for p in points] == [0.1, 0.2]
        assert all(p.routing == "MIN" for p in points)

    def test_query_orders_like_a_figure_table(self, populated):
        store, _, _ = populated
        points = store.query(figure="figtest")
        keys = [(p.routing, p.pattern, p.load, p.seed) for p in points]
        assert keys == sorted(keys)

    def test_stored_point_result_is_bit_exact(self, populated):
        store, topology, units = populated
        point = stored(store, units[0])
        assert point.result().to_dict() == _run_spec(topology, units[0].spec).to_dict()

    def test_query_never_simulates(self, populated, monkeypatch):
        store, _, _ = populated
        import repro.network.sweep as sweep

        def explode(*args, **kwargs):
            raise AssertionError("query must not simulate")

        monkeypatch.setattr(sweep, "run_point", explode)
        assert len(store.query(figure="figtest")) == 6


class TestBackendProvenance:
    def test_kernel_provenance_survives_the_index(self, mixed_backends, tmp_path):
        _, units = mixed_backends
        fresh = ResultStore(tmp_path / "store")
        engines = [(p.backend, p.kernel) for p in fresh.query()]
        assert sorted(engines) == sorted(
            [("scalar", "none"), ("array", "ugal"), ("array", "none")] * 2
        )

    def test_engine_column_distinguishes_kernel_and_fallback(
        self, mixed_backends
    ):
        from repro.service.status import render_query_rows

        store, _ = mixed_backends
        rendered = render_query_rows(store.query(figure="figtest"))
        lines = rendered.splitlines()
        assert "engine" in lines[0]
        engines = {line.split()[7] for line in lines[1:]}
        # Kernel-fallback points render as bare "array" (kernel "none"),
        # kernel-lowered points as "array/ugal".
        assert engines == {"scalar", "array", "array/ugal"}


class TestFigureTags:
    def test_second_figure_tag_merges(self, populated):
        store, _, units = populated
        store.tag(units[0].key, "other")
        point = stored(store, units[0])
        assert point.figures == ["figtest", "other"]
        # The point is served to both figure queries.
        assert store.query(figure="other")[0].digest == units[0].digest

    def test_figures_summary_counts(self, populated):
        store, _, units = populated
        assert store.figures() == {"figtest": len(units)}


class TestMaintenance:
    def test_index_survives_fresh_handle(self, populated, tmp_path):
        _, _, units = populated
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == len(units)

    def test_reindex_recovers_unindexed_records(self, populated, tmp_path):
        store, _, units = populated
        store.index_path.unlink()
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 0
        counts = fresh.reindex()
        assert counts["indexed"] == len(units)
        assert counts["recovered"] == len(units)
        # Figure tags lived only in the index; recovered points are adhoc.
        assert fresh.figures() == {"adhoc": len(units)}

    def test_reindex_preserves_existing_tags(self, populated):
        store, _, units = populated
        counts = store.reindex()
        assert counts == {
            "indexed": len(units), "recovered": 0, "dropped": 0, "corrupt": 0,
        }
        assert store.figures() == {"figtest": len(units)}

    def test_gc_drops_stale_index_entries_and_litter(self, populated):
        store, _, units = populated
        victim = store.points_dir / f"{units[0].digest}.json"
        victim.unlink()
        (store.points_dir / "leftover.tmp").write_text("junk")
        counts = store.gc()
        assert counts["indexed"] == len(units) - 1
        assert counts["dropped"] == 1
        assert counts["tmp_removed"] == 1
        assert len(store.query(figure="figtest")) == len(units) - 1

    def test_gc_skips_corrupt_records(self, populated):
        store, _, units = populated
        (store.points_dir / f"{units[0].digest}.json").write_text("{not json")
        counts = store.gc()
        assert counts["corrupt"] == 1
        assert counts["indexed"] == len(units) - 1

    def test_non_utf8_record_is_corrupt_and_left_in_place(self, populated):
        """Bytes that are not UTF-8 used to crash ``reindex``/``gc`` with
        UnicodeDecodeError."""
        store, _, units = populated
        victim = store.points_dir / f"{units[0].digest}.json"
        victim.write_bytes(NOT_UTF8)
        assert store.reindex()["corrupt"] == 1
        counts = store.gc()
        assert counts["corrupt"] == 1
        assert counts["indexed"] == len(units) - 1
        assert victim.read_bytes() == NOT_UTF8

    def test_non_utf8_index_is_rebuilt(self, populated, tmp_path):
        store, _, units = populated
        store.index_path.write_bytes(NOT_UTF8)
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 0
        assert fresh.reindex()["indexed"] == len(units)
        assert len(ResultStore(tmp_path / "store")) == len(units)

    @pytest.mark.parametrize("payload", ["[]", "null", "3", '"x"', "{}"])
    def test_gc_counts_non_entry_json_as_corrupt(self, populated, payload):
        """Valid JSON that is not an entry object used to crash
        ``reindex``/``gc`` with AttributeError; it is a corrupt record."""
        store, _, units = populated
        (store.points_dir / f"{units[0].digest}.json").write_text(payload)
        (store.points_dir / "stray.json").write_text(payload)
        counts = store.gc()
        assert counts["corrupt"] == 2
        assert counts["indexed"] == len(units) - 1
        assert counts["dropped"] == 1

    def test_unknown_index_layout_is_rebuilt_not_trusted(self, populated, tmp_path):
        store, _, units = populated
        store.index_path.write_text(json.dumps({"schema": 999, "points": {}}))
        fresh = ResultStore(tmp_path / "store")
        assert len(fresh) == 0
        assert fresh.reindex()["indexed"] == len(units)
