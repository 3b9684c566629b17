"""``python -m repro.serve`` -- submit / status / query / gc.

Usage::

    python -m repro.serve --root DIR submit fig09
    python -m repro.serve --root DIR submit fig09 --loads 0.05,0.1 --workers 4
    python -m repro.serve --root DIR submit --manifest sweep.json --json
    python -m repro.serve --root DIR status
    python -m repro.serve --root DIR query --figure fig09 --routing UGAL-G
    python -m repro.serve --root DIR query --figure fig09 --json
    python -m repro.serve --root DIR gc

``--root`` defaults to ``$REPRO_SWEEP_SERVICE``.  ``submit`` exits 0
when every unit completed, 1 when any unit failed permanently; it
redraws a progress line on stderr when that is a terminal and ``--json``
is absent.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

from ..experiments.routing_sim import manifests_for_figure
from ..network.cache import UnreadableJSON, read_json
from ..network.parallel import JobProgress
from ..service.journal import JournalCorruptError
from ..service.manifest import SweepManifest
from ..service.scheduler import run_manifest
from ..service.status import (
    job_statuses,
    render_query_rows,
    render_statuses,
    store_summary,
)
from ..service.store import ResultStore
from ..settings import Settings


def _resolve_root(args: argparse.Namespace) -> Path:
    raw, settings = args.root, args.settings
    if raw:
        try:
            settings = dataclasses.replace(settings, service_root=Path(raw))
        except ValueError:
            raise SystemExit(
                f"error: service root {raw!r} exists and is not a directory"
            )
    if settings.service_root is None:
        raise SystemExit(
            "error: no service root; pass --root DIR or set REPRO_SWEEP_SERVICE"
        )
    return settings.service_root


def _parse_loads(raw: Optional[str]) -> Optional[List[float]]:
    if raw is None:
        return None
    try:
        loads = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"error: --loads must be comma-separated floats, got {raw!r}")
    if not loads:
        raise SystemExit("error: --loads must name at least one load")
    return loads


def _manifests(args: argparse.Namespace) -> List[SweepManifest]:
    loads = _parse_loads(args.loads)
    if args.manifest:
        try:
            data = read_json(Path(args.manifest))
        except UnreadableJSON as error:
            raise SystemExit(f"error: cannot read manifest {error}")
        try:
            manifest = SweepManifest.from_dict(data)
            if loads is not None:
                manifest = dataclasses.replace(manifest, loads=tuple(loads))
        except (KeyError, TypeError, ValueError) as error:
            raise SystemExit(f"error: bad manifest {args.manifest}: {error}")
        return [manifest]
    if not args.figure:
        raise SystemExit("error: submit needs a FIGURE id or --manifest FILE")
    try:
        return manifests_for_figure(args.figure, loads=loads)
    except KeyError as error:
        raise SystemExit(f"error: {error.args[0]}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(2)


def _cmd_submit(args: argparse.Namespace) -> int:
    root = _resolve_root(args)
    workers = args.settings.workers if args.workers is None else args.workers
    if workers < 1:
        raise SystemExit("error: --workers must be >= 1")
    manifests = _manifests(args)
    live = sys.stderr.isatty() and not args.json
    summaries = []
    exit_code = 0
    for manifest in manifests:
        if not args.json:
            print(
                f"submit {manifest.job_id}: {manifest.num_units()} units "
                f"({len(manifest.routings)} routings x "
                f"{len(manifest.patterns)} patterns x "
                f"{len(manifest.loads)} loads x {len(manifest.seeds)} seeds), "
                f"{workers} workers"
            )

        def show(progress: JobProgress) -> None:
            if live:
                print(
                    f"\r  {progress.line(workers)}",
                    end="",
                    file=sys.stderr,
                    flush=True,
                )

        try:
            report = run_manifest(
                root, manifest, workers, on_progress=show, settings=args.settings
            )
        except JournalCorruptError as error:
            raise SystemExit(f"error: cannot resume {manifest.job_id}: {error}")
        if live:
            print(file=sys.stderr)
        summary = {
            "job": report.job_id,
            "figure": report.figure,
            **report.progress.to_dict(),
            "failed_units": report.failed,
            "fallback_error": report.fallback_error,
        }
        summaries.append(summary)
        if report.failed:
            exit_code = 1
        if not args.json:
            print(f"  {report.progress.line(workers)}")
            if report.fallback_error:
                print(f"  fallback: {report.fallback_error}")
            for index, error in sorted(report.failed.items()):
                print(f"  FAILED unit {index}: {error}")
    if args.json:
        total = {
            "jobs": summaries,
            "simulated": sum(s["simulated"] for s in summaries),
            "cached": sum(s["cached"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
        }
        print(json.dumps(total, indent=2, sort_keys=True))
    return exit_code


def _cmd_status(args: argparse.Namespace) -> int:
    root = _resolve_root(args)
    print(render_statuses(job_statuses(root)))
    summary = store_summary(root)
    figures = ", ".join(
        f"{figure}: {count}" for figure, count in summary["figures"].items()  # type: ignore[union-attr]
    )
    print(f"store: {summary['points']} points ({figures or 'empty'})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    root = _resolve_root(args)
    store = ResultStore(root / "store")
    points = store.query(figure=args.figure, routing=args.routing)
    if args.json:
        print(json.dumps([point.to_row() for point in points], indent=2))
        return 0
    print(render_query_rows(points))
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    root = _resolve_root(args)
    store = ResultStore(root / "store")
    counts = store.gc()
    if args.json:
        print(json.dumps(counts, indent=2, sort_keys=True))
        return 0
    print(
        f"gc: {counts['indexed']} points indexed, "
        f"{counts['recovered']} recovered, {counts['dropped']} index entries "
        f"dropped, {counts['corrupt']} corrupt records skipped, "
        f"{counts['stale_removed']} stale records removed, "
        f"{counts['tmp_removed']} temp files removed"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Sweep service: submit sweeps, query the result store.",
    )
    parser.add_argument(
        "--root",
        help="service root directory (default: $REPRO_SWEEP_SERVICE)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="run a sweep (figure preset or --manifest file)"
    )
    submit.add_argument("figure", nargs="?", help="figure id, e.g. fig09")
    submit.add_argument("--manifest", help="explicit manifest JSON file")
    submit.add_argument(
        "--loads", help="override load list, comma-separated (e.g. 0.05,0.1)"
    )
    submit.add_argument(
        "--workers", type=int, help="worker processes (default: env)"
    )
    submit.add_argument(
        "--json", action="store_true", help="machine-readable summary"
    )
    submit.set_defaults(func=_cmd_submit)

    status = commands.add_parser("status", help="narrate submitted jobs")
    status.set_defaults(func=_cmd_status)

    query = commands.add_parser("query", help="filter the result store")
    query.add_argument("--figure")
    query.add_argument("--routing")
    query.add_argument("--json", action="store_true")
    query.set_defaults(func=_cmd_query)

    gc = commands.add_parser("gc", help="rebuild the index, drop litter")
    gc.add_argument("--json", action="store_true")
    gc.set_defaults(func=_cmd_gc)

    args = parser.parse_args(argv)
    args.settings = Settings.from_env()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
