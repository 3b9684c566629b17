"""Command-line entry point for the experiment registry.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments fig09           # run one (quick mode)
    python -m repro.experiments fig19 --full    # paper-scale mode
    python -m repro.experiments --all           # run everything (slow)
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import List, Optional

from ..settings import BACKENDS, ENV_VARS, Settings
from .base import all_experiment_ids, get_experiment, shared_experiment_executor


def _list_experiments() -> str:
    lines = ["available experiments:"]
    for experiment_id in all_experiment_ids():
        experiment = get_experiment(experiment_id)
        lines.append(f"  {experiment_id:15s} {experiment.title}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids (e.g. fig08 table2); empty lists them",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale mode (1056-node simulations; much slower)",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help=(
            "simulation engine for every run (default: "
            f"{ENV_VARS['backend']} or scalar)"
        ),
    )
    args = parser.parse_args(argv)

    settings = Settings.from_env()
    if args.backend is not None:
        settings = dataclasses.replace(settings, backend=args.backend)

    if args.all:
        selected = all_experiment_ids()
    elif args.experiments:
        selected = args.experiments
    else:
        print(_list_experiments())
        return 0

    exit_code = 0
    for experiment_id in selected:
        try:
            experiment = get_experiment(experiment_id)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            exit_code = 2
            continue
        started = time.perf_counter()
        with shared_experiment_executor(settings, experiment_id) as executor:
            result = experiment.run(quick=not args.full)
        elapsed = time.perf_counter() - started
        print(result.format_table())
        answered = executor.stats["cached"] + executor.stats["simulated"]
        if answered:
            print(f"   sweep: {executor.summary_line()}")
        print(f"   ({elapsed:.1f} s)")
        print()
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
