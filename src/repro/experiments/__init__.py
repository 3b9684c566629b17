"""Experiment registry: every table and figure of the paper.

>>> from repro.experiments import get_experiment, all_experiment_ids
>>> all_experiment_ids()
['fig01', 'fig02', 'fig04', 'fig08', ...]
>>> print(get_experiment("fig02").run().format_table())
"""

from . import (  # noqa: F401  (register)
    analytic,
    cost_experiments,
    extensions,
    fault_sweep,
    routing_sim,
)
from .base import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    all_experiment_ids,
    experiment_config,
    experiment_topology,
    get_experiment,
)
from .routing_sim import manifests_for_figure

__all__ = [
    "REGISTRY",
    "Experiment",
    "ExperimentResult",
    "all_experiment_ids",
    "experiment_config",
    "experiment_topology",
    "get_experiment",
    "manifests_for_figure",
]
