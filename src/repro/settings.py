"""The one reader of the process environment.

Every ``REPRO_*`` variable is a field of :class:`Settings`; the field's
metadata names its variable and documents it (``docs/sweeps.md`` prints
the same table and a test holds the two together).  Nothing else in
``src/repro`` touches ``os.environ`` -- lint rule ``REP007`` enforces
that -- and nothing writes it: an entry point resolves a ``Settings``
once (``Settings.from_env()`` unless a CLI flag overrides a field) and
hands it down by argument, into worker processes included.

A value that does not parse, or parses out of range, raises
:class:`ValueError` naming the variable; a typo'd setting silently
degrading to a default has bitten real sweeps.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

#: The recognised simulation backends.
BACKENDS = ("scalar", "array")


def _workers(raw: str) -> int:
    return (os.cpu_count() or 1) if raw.lower() in ("0", "auto") else int(raw)


def _knob(env: str, default: Any, parse: Callable[[str], Any], doc: str) -> Any:
    return dataclasses.field(
        default=default, metadata={"env": env, "parse": parse, "doc": doc}
    )


@dataclass(frozen=True)
class Settings:
    """Every environment-configurable value, validated."""

    backend: str = _knob(
        "REPRO_SIM_BACKEND", "scalar", str.lower,
        "simulation engine, `scalar` or `array`",
    )
    sanitize: bool = _knob(
        "REPRO_SANITIZE", False, lambda raw: raw != "0",
        "audit the conservation laws during every run (`0` or unset = off)",
    )
    sanitize_stride: int = _knob(
        "REPRO_SANITIZE_STRIDE", 64, int,
        "cycles between sanitizer audits, an integer >= 1",
    )
    workers: int = _knob(
        "REPRO_SWEEP_WORKERS", 1, _workers,
        "worker processes, an integer >= 1; `0` or `auto` = CPU count",
    )
    cache_dir: Optional[Path] = _knob(
        "REPRO_SWEEP_CACHE", None, Path,
        "directory of the plain result cache (unset = no cache)",
    )
    service_root: Optional[Path] = _knob(
        "REPRO_SWEEP_SERVICE", None, Path,
        "sweep-service root: journaled jobs plus the indexed store",
    )
    unit_timeout: float = _knob(
        "REPRO_SWEEP_SERVICE_TIMEOUT", 3600.0, float,
        "seconds before a pool worker's point is killed and retried, > 0",
    )
    max_attempts: int = _knob(
        "REPRO_SWEEP_SERVICE_RETRIES", 3, int,
        "attempts per point before it fails permanently, an integer >= 1",
    )
    heartbeat_interval: float = _knob(
        "REPRO_SWEEP_SERVICE_HEARTBEAT", 0.5, float,
        "seconds between pool-worker heartbeats, > 0",
    )

    def __post_init__(self) -> None:
        def require(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ValueError(
                    f"{ENV_VARS[name]} ({name}) must be {rule}, "
                    f"got {getattr(self, name)!r}"
                )

        require(self.backend in BACKENDS, "backend", f"one of {list(BACKENDS)}")
        require(self.sanitize_stride >= 1, "sanitize_stride", ">= 1")
        require(self.workers >= 1, "workers", ">= 1 (or '0'/'auto')")
        require(self.max_attempts >= 1, "max_attempts", ">= 1")
        for name in ("unit_timeout", "heartbeat_interval"):
            require(getattr(self, name) > 0, name, "a positive number of seconds")
        for name in ("cache_dir", "service_root"):
            path = getattr(self, name)
            # Stored as given, so only a Path (what from_env parses) is
            # accepted; one rooted at a regular file stores nothing.
            require(
                path is None
                or isinstance(path, Path) and (path.is_dir() or not path.exists()),
                name, "a pathlib.Path to a directory (created on demand)",
            )

    @classmethod
    def from_env(cls, environ: Mapping[str, str] = os.environ) -> "Settings":
        """The settings ``environ`` asks for; unset or blank = default."""
        values: Dict[str, Any] = {}
        for field in dataclasses.fields(cls):
            raw = environ.get(field.metadata["env"], "").strip()
            if not raw:
                continue
            try:
                values[field.name] = field.metadata["parse"](raw)
            except ValueError as exc:
                raise ValueError(
                    f"{field.metadata['env']}: cannot read {raw!r} "
                    f"({field.metadata['doc']})"
                ) from exc
        return cls(**values)


#: Field name -> the environment variable that sets it.
ENV_VARS: Dict[str, str] = {
    field.name: field.metadata["env"] for field in dataclasses.fields(Settings)
}
