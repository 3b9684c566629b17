"""Indexed, queryable, content-addressed result store.

The store keeps :class:`~repro.network.cache.SweepCache`'s per-point
discipline -- one JSON record per simulated point, written atomically,
addressed by the SHA-256 of its full recipe, stale records self-healing
on read -- and layers an index over it so results are *queryable*
without touching every point file:

``<root>/store/points/<digest>.json``
    The point records (exactly the ``SweepCache`` format, so a store's
    points directory doubles as a plain ``REPRO_SWEEP_CACHE``).

``<root>/store/index.json``
    A schema'd index: digest -> flat metadata (figure tags, routing,
    VC assignment, pattern, load, seed, topology signature, summary
    metrics).  Rewritten atomically on every put; rebuildable at any
    time from the point records (:meth:`ResultStore.reindex`), so the
    index is an accelerator, never the ground truth.

Queries (:meth:`ResultStore.query`) filter the index -- by figure tag,
routing and a load ceiling -- and never run a simulation; the full
bit-exact result of a matching point loads lazily from its record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..network.cache import (
    SCHEMA_VERSION,
    SweepCache,
    UnreadableJSON,
    entry_schema,
    key_digest,
    read_entry,
    read_json,
    unlink_all,
    write_json_atomic,
)
from ..network.stats import SimulationResult

#: Bump when the index layout changes; a mismatched index is rebuilt
#: from the point records instead of trusted.
INDEX_SCHEMA_VERSION = 1


@dataclass
class StoredPoint:
    """One indexed point: flat metadata plus a lazy result loader."""

    digest: str
    figures: List[str]
    routing: str
    vc_assignment: str
    pattern: str
    load: float
    seed: int
    topology: Dict[str, object]
    saturated: bool
    avg_latency: float
    accepted_load: float
    #: Engine provenance: which backend computed the point and, for the
    #: array backend, which kernel variant ("unknown" for records
    #: written before provenance existed).
    backend: str = "unknown"
    kernel: str = "unknown"
    _store: Optional["ResultStore"] = None
    _key: Optional[Dict[str, object]] = None

    def result(self) -> SimulationResult:
        """The full bit-exact stored result (loads the point record)."""
        if self._store is None or self._key is None:
            raise ValueError("stored point is not attached to a store")
        result = self._store.get(self._key)
        if result is None:
            raise KeyError(
                f"point record for {self.digest[:16]} is missing or stale; "
                "run gc/reindex and resubmit the sweep"
            )
        return result

    def to_row(self) -> Dict[str, object]:
        """Flat JSON-able row for CLI/report output."""
        return {
            "digest": self.digest,
            "figures": list(self.figures),
            "routing": self.routing,
            "pattern": self.pattern,
            "load": self.load,
            "seed": self.seed,
            "saturated": self.saturated,
            "avg_latency": self.avg_latency,
            "accepted_load": self.accepted_load,
            "backend": self.backend,
            "kernel": self.kernel,
        }


@dataclass(frozen=True)
class FigureStore:
    """A :class:`ResultStore` as the sweep runner sees it on behalf of
    one figure: hits are tagged ``figure``, puts are filed under it."""

    store: "ResultStore"
    figure: str

    def get(self, key: Dict[str, object]) -> Optional[SimulationResult]:
        result = self.store.get(key)
        if result is not None:
            self.store.tag(key, self.figure)
        return result

    def put(self, key: Dict[str, object], result: SimulationResult) -> None:
        self.store.put(key, result, figure=self.figure)


class ResultStore:
    """Content-addressed point records plus a queryable index."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.points_dir = self.root / "points"
        self.index_path = self.root / "index.json"
        #: The underlying point records; its hit/miss/invalidation
        #: counters feed the service progress line.
        self.cache = SweepCache(self.points_dir)
        self._index: Optional[Dict[str, Dict[str, object]]] = None

    # ------------------------------------------------------------------
    # Point records
    # ------------------------------------------------------------------
    def get(self, key: Dict[str, object]) -> Optional[SimulationResult]:
        """The stored result for a full point key, or ``None``."""
        return self.cache.get(key)

    def put(
        self,
        key: Dict[str, object],
        result: SimulationResult,
        figure: str = "adhoc",
    ) -> str:
        """Store a point record and index it under ``figure``.

        The record is written first (atomic rename), the index after --
        a crash between the two loses only the index entry, which
        :meth:`reindex` recovers from the record.  Returns the digest.
        """
        digest = key_digest(key)
        self.cache.put(key, result)
        index = self._load_index()
        entry = self._entry_from_key(key, result)
        previous = index.get(digest)
        figures = set(previous.get("figures", [])) if previous else set()  # type: ignore[union-attr]
        figures.add(figure)
        entry["figures"] = sorted(figures)
        index[digest] = entry
        self._write_index(index)
        return digest

    def tag(self, key: Dict[str, object], figure: str) -> None:
        """Add a figure tag to an already stored point (e.g. a point
        first computed for another figure that this sweep reuses)."""
        digest = key_digest(key)
        index = self._load_index()
        entry = index.get(digest)
        if entry is None:
            result = self.cache.get(key)
            if result is None:
                return
            entry = self._entry_from_key(key, result)
            entry["figures"] = []
        figures = set(entry.get("figures", []))  # type: ignore[arg-type]
        if figure in figures:
            return
        figures.add(figure)
        entry["figures"] = sorted(figures)
        index[digest] = entry
        self._write_index(index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        figure: Optional[str] = None,
        routing: Optional[str] = None,
        max_load: Optional[float] = None,
    ) -> List[StoredPoint]:
        """Indexed points matching every given filter (no simulation).

        Results are ordered by (routing, pattern, load, seed) so a
        figure query reads like the figure's table.
        """
        points: List[StoredPoint] = []
        for point_digest, entry in self._load_index().items():
            point = self._point_from_entry(point_digest, entry)
            if point is None:
                continue
            if figure is not None and figure not in point.figures:
                continue
            if routing is not None and point.routing != routing:
                continue
            if max_load is not None and point.load > max_load:
                continue
            points.append(point)
        points.sort(key=lambda p: (p.routing, p.pattern, p.load, p.seed))
        return points

    def figures(self) -> Dict[str, int]:
        """Figure tag -> number of indexed points."""
        counts: Dict[str, int] = {}
        for entry in self._load_index().values():
            for figure in entry.get("figures", []):  # type: ignore[union-attr]
                counts[str(figure)] = counts.get(str(figure), 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self._load_index())

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def reindex(self) -> Dict[str, int]:
        """Rebuild the index from the point records on disk.

        Figure tags of surviving entries are preserved (they exist only
        in the index); entries whose record vanished are dropped;
        records missing from the index are added under their journaled
        figures or ``"adhoc"``.  Returns maintenance counts.
        """
        old_index = self._load_index()
        new_index: Dict[str, Dict[str, object]] = {}
        recovered = dropped = corrupt = 0
        for path in sorted(self.points_dir.glob("*.json")):
            try:
                entry = read_entry(path)
            except UnreadableJSON:
                entry = None
            if entry is None or key_digest(entry[0]) != path.stem:
                corrupt += 1
                continue
            key, result = entry
            digest = path.stem
            record = self._entry_from_key(key, result)
            previous = old_index.get(digest)
            if previous is not None:
                record["figures"] = sorted(
                    set(previous.get("figures", [])) or {"adhoc"}  # type: ignore[arg-type]
                )
            else:
                record["figures"] = ["adhoc"]
                recovered += 1
            new_index[digest] = record
        dropped = len([d for d in old_index if d not in new_index])
        self._write_index(new_index)
        return {
            "indexed": len(new_index),
            "recovered": recovered,
            "dropped": dropped,
            "corrupt": corrupt,
        }

    def gc(self) -> Dict[str, int]:
        """Clean the store: drop temp litter and records stamped with
        another schema version (``stale_removed``; no key can reach
        them again), rebuild the index.  Never deletes a valid point
        record, and leaves corrupt ones in place for inspection."""
        removed = {
            "tmp_removed": unlink_all(self.points_dir.glob("*.tmp")),
            "stale_removed": unlink_all(
                path for path in self.points_dir.glob("*.json")
                if entry_schema(path) not in (None, SCHEMA_VERSION)
            ),
        }
        return {**self.reindex(), **removed}

    # ------------------------------------------------------------------
    # Index plumbing
    # ------------------------------------------------------------------
    def _entry_from_key(
        self, key: Dict[str, object], result: SimulationResult
    ) -> Dict[str, object]:
        config = key.get("config")
        load = seed = None
        if isinstance(config, dict):
            load = config.get("load")
            seed = config.get("seed")
        avg_latency: Optional[float] = None
        if not result.saturated:
            value = result.avg_latency
            if not math.isnan(value):
                avg_latency = value
        provenance = result.backend_info or {}
        return {
            "routing": key.get("routing"),
            "vc_assignment": key.get("vc_assignment"),
            "pattern": key.get("pattern"),
            "load": load,
            "seed": seed,
            "topology": key.get("topology"),
            "saturated": result.saturated,
            "avg_latency": avg_latency,
            "accepted_load": result.accepted_load,
            "backend": str(provenance.get("backend", "unknown")),
            "kernel": str(provenance.get("kernel", "unknown")),
            "key": key,
        }

    def _point_from_entry(
        self, digest: str, entry: Dict[str, object]
    ) -> Optional[StoredPoint]:
        try:
            avg_latency = entry.get("avg_latency")
            return StoredPoint(
                digest=digest,
                figures=[str(f) for f in entry.get("figures", [])],  # type: ignore[union-attr]
                routing=str(entry["routing"]),
                vc_assignment=str(entry["vc_assignment"]),
                pattern=str(entry["pattern"]),
                load=float(entry["load"]),  # type: ignore[arg-type]
                seed=int(entry["seed"]),  # type: ignore[arg-type]
                topology=dict(entry.get("topology") or {}),  # type: ignore[arg-type]
                saturated=bool(entry["saturated"]),
                avg_latency=(
                    float("inf") if avg_latency is None else float(avg_latency)  # type: ignore[arg-type]
                ),
                accepted_load=float(entry["accepted_load"]),  # type: ignore[arg-type]
                backend=str(entry.get("backend", "unknown")),
                kernel=str(entry.get("kernel", "unknown")),
                _store=self,
                _key=dict(entry.get("key") or {}),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _load_index(self) -> Dict[str, Dict[str, object]]:
        if self._index is not None:
            return self._index
        try:
            data = read_json(self.index_path)
        except UnreadableJSON:
            self._index = {}
            return self._index
        if (
            not isinstance(data, dict)
            or data.get("schema") != INDEX_SCHEMA_VERSION
            or not isinstance(data.get("points"), dict)
        ):
            # Unknown layout: rebuild rather than guess.
            self._index = {}
            return self._index
        self._index = {
            str(digest): dict(entry)
            for digest, entry in data["points"].items()
            if isinstance(entry, dict)
        }
        return self._index

    def _write_index(self, index: Dict[str, Dict[str, object]]) -> None:
        self._index = index
        write_json_atomic(
            self.index_path, {"schema": INDEX_SCHEMA_VERSION, "points": index}
        )
