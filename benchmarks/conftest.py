"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table/figure of the paper via the
experiment registry, times it with pytest-benchmark, prints the rows
(bypassing capture so they land in the console / tee'd log), and saves
them under ``benchmarks/results/`` for the record.

The experiment runners execute their sweeps through
``repro.experiments.base.experiment_executor``, so the figure
benchmarks (``bench_fig08`` .. ``bench_fig16``) parallelise and cache
transparently:

* ``REPRO_SWEEP_WORKERS=4`` fans each figure's sweep grid over 4
  worker processes (``auto`` = CPU count);
* ``REPRO_SWEEP_CACHE=benchmarks/.sweep-cache`` makes re-runs skip
  every already-simulated point.

Results are bit-identical whichever combination is active (see
docs/sweeps.md); the archived row files record which one was.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture()
def report(capfd):
    """Print a block of text to the real terminal and archive it."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        with capfd.disabled():
            print()
            print(text)

    return _report


@pytest.fixture()
def run_experiment(benchmark, report):
    """Run a registered experiment once under the benchmark timer."""

    def _run(experiment_id: str, quick: bool = True):
        from repro.experiments import get_experiment
        from repro.settings import Settings

        experiment = get_experiment(experiment_id)
        result = benchmark.pedantic(
            lambda: experiment.run(quick=quick), rounds=1, iterations=1
        )
        settings = Settings.from_env()
        executor_note = (
            f"   sweep executor: workers={settings.workers} "
            f"cache={settings.cache_dir or 'off'}"
        )
        report(experiment_id, result.format_table() + "\n" + executor_note)
        return result

    return _run
