"""On-disk cache of simulation results, keyed by the full run recipe.

Reproducing one paper figure means sweeping offered load across several
routing algorithms, and bisecting ``saturation_load`` re-simulates many
nearby loads.  Every one of those runs is a pure function of its inputs
(the determinism regression in ``tests/network/test_determinism.py`` is
the contract), so results can be memoised on disk: re-running a figure
script, widening a sweep, or re-bisecting a saturation point skips every
point that has already been computed.

A cache entry is keyed by a stable SHA-256 hash over the canonical JSON
of everything that determines the result:

* topology family and parameters (``p``, ``a``, ``h``, ``num_groups``),
  plus the taper and channel latencies when they are not the defaults,
* routing algorithm name,
* VC assignment name (the canonical Figure 7 assignment unless a
  variant is threaded through),
* traffic pattern name,
* every :class:`~repro.network.config.SimulationConfig` field -- load,
  seed, warm-up/measurement/drain cycles, buffer depth, VC count,
  packet size, pipeline depth, credit-delay gain, ...

Entries carry a schema version stamp (:data:`SCHEMA_VERSION`) and the
full key they were stored under; a version mismatch, a key mismatch
(hash collision or hand-edited file) or an unreadable file is treated as
a miss and the stale entry is dropped.  Bump :data:`SCHEMA_VERSION`
whenever the simulator's behaviour or the record layout
(:meth:`SimulationResult.to_record`: the result's fields with the
latency samples packed, see ``docs/sweeps.md``) changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

from .config import SimulationConfig
from .stats import SimulationResult

#: Bump on any change that invalidates previously stored results: the
#: simulator's cycle-level behaviour, the meaning of a config field, or
#: the :meth:`SimulationResult.to_record` layout.  One stamp for the
#: cache and the result store.  2: ``samples`` is a packed object.
SCHEMA_VERSION = 2


#: A dragonfly's arguments beyond ``params`` (taper, channel latencies)
#: that change the network, with their defaults.
WIRING_DEFAULTS = (
    ("max_channels_per_pair", None),
    ("local_latency", 1),
    ("global_latency", 1),
    ("terminal_latency", 1),
)


def topology_signature(topology: object) -> Dict[str, object]:
    """JSON-able identity of a topology: family, parameters, and any
    :data:`WIRING_DEFAULTS` field away from its default (none: old bytes).

    Only a topology with dataclass ``params`` can be told apart from
    another of its class; any other raises rather than share one key
    across sizes.
    """
    params = getattr(topology, "params", None)
    if not dataclasses.is_dataclass(params) or isinstance(params, type):
        raise ValueError(
            f"cannot key a {type(topology).__name__}: it has no dataclass "
            "params to identify its size"
        )
    signature: Dict[str, object] = {
        "family": type(topology).__name__,
        "params": dataclasses.asdict(params),
    }
    for name, default in WIRING_DEFAULTS:
        value = getattr(topology, name, default)
        if value != default:
            signature[name] = value
    return signature


def point_key(
    topology: object,
    routing_name: str,
    pattern_name: str,
    config: SimulationConfig,
    vc_assignment: str = "canonical",
) -> Dict[str, object]:
    """The full, auditable cache key of one simulation point."""
    return {
        "schema": SCHEMA_VERSION,
        "topology": topology_signature(topology),
        "routing": routing_name,
        "vc_assignment": vc_assignment,
        "pattern": pattern_name,
        "config": dataclasses.asdict(config),
    }


def key_digest(key: Dict[str, object]) -> str:
    """Stable SHA-256 digest of a key's canonical JSON."""
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_json_atomic(path: Path, payload: object) -> None:
    """Write ``payload`` as JSON to ``path`` through a temp file and a
    rename, so a crashed or concurrent writer never leaves a truncated
    file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def unlink_all(paths: Iterable[Path]) -> int:
    """Delete ``paths``; returns how many went (a file that vanished or
    cannot be removed is skipped)."""
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class UnreadableJSON(Exception):
    """A file that is not readable JSON (see :func:`read_json`)."""


def read_json(path: Path) -> Any:
    """The JSON value stored in ``path``.

    The one place that decides a file is not readable JSON: it cannot
    be opened or read, its bytes are not UTF-8, or they do not parse.
    Each raises :class:`UnreadableJSON` naming the file and the cause.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise UnreadableJSON(f"{path}: {type(error).__name__}: {error}") from error


def entry_schema(path: Path) -> object:
    """The schema stamp of a point file; ``None`` when it carries none
    or cannot be read.  A record with another stamp than
    :data:`SCHEMA_VERSION` is unreachable for good: the stamp is part
    of the key its file name hashes."""
    try:
        entry = read_json(path)
    except UnreadableJSON:
        return None
    return entry.get("schema") if isinstance(entry, dict) else None


def read_entry(
    path: Path,
) -> Optional[Tuple[Dict[str, object], SimulationResult]]:
    """The ``(key, result)`` stored in one point file.

    ``None`` when the file parses as JSON but is not a current entry
    (not an object, schema bump, no key, a result that
    :meth:`SimulationResult.from_dict` rejects) -- a record the caller
    may drop.  A file that cannot be read as JSON at all raises
    :class:`UnreadableJSON`.
    """
    entry = read_json(path)
    if (
        not isinstance(entry, dict)
        or entry.get("schema") != SCHEMA_VERSION
        or not isinstance(entry.get("key"), dict)
    ):
        return None
    try:
        result = SimulationResult.from_dict(entry.get("result"))
    except ValueError:
        return None
    # Provenance rides alongside the result (not in the keyed payload,
    # so it never affects hits): entries written before it existed
    # surface as "unknown" rather than being invalidated.
    provenance = entry.get("provenance")
    result.backend_info = (
        dict(provenance)
        if isinstance(provenance, dict)
        else {"backend": "unknown", "kernel": "unknown"}
    )
    return entry["key"], result


class SweepCache:
    """Directory of JSON files, one per simulated point.

    Files are written atomically (temp file + rename) so a crashed or
    parallel run never leaves a truncated entry behind, and concurrent
    writers of the same key simply race to an identical file.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def counters(self) -> Dict[str, int]:
        """Hit/miss/invalidation counts since this instance was created.

        Invalidations count stale entries dropped by :meth:`get` (schema
        bump, key mismatch, unparseable result); every invalidation is
        also a miss.  Sweep summaries and the service progress line
        report these so a cold or churning cache is visible.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
        }

    def _entry_path(self, key: Dict[str, object]) -> Path:
        return self.directory / f"{key_digest(key)}.json"

    def get(self, key: Dict[str, object]) -> Optional[SimulationResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        Stale entries (schema bump, key mismatch, JSON that is not an
        entry object, unparseable result) are deleted so the cache
        self-heals.
        """
        path = self._entry_path(key)
        try:
            entry = read_entry(path)
        except UnreadableJSON:
            self.misses += 1
            return None
        if entry is None or entry[0] != key:
            try:
                path.unlink()
            except OSError:
                pass
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    def put(self, key: Dict[str, object], result: SimulationResult) -> None:
        """Store ``result`` under ``key`` (atomic, last writer wins)."""
        entry = {
            "schema": SCHEMA_VERSION,
            "key": key,
            "result": result.to_record(),
        }
        if result.backend_info is not None:
            entry["provenance"] = dict(result.backend_info)
        write_json_atomic(self._entry_path(key), entry)

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return unlink_all(self.directory.glob("*.json"))
