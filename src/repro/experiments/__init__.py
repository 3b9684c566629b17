"""Experiment registry: every table and figure of the paper.

>>> from repro.experiments import get_experiment, all_experiment_ids
>>> all_experiment_ids()
['fig01', 'fig02', 'fig04', 'fig08', ...]
>>> print(get_experiment("fig02").run().format_table())

The figure modules register themselves when the registry is first read
(:func:`repro.experiments.base.load_registry`), so importing
:mod:`repro.experiments.base` for :func:`experiment_topology` or
:func:`experiment_config` loads no figure, cost or analysis code.
"""

from typing import Any

from .._lazy import lazy_exports

_exported, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "REGISTRY",
        "Experiment",
        "ExperimentResult",
        "all_experiment_ids",
        "experiment_config",
        "experiment_topology",
        "get_experiment",
    ),
    ".routing_sim": ("manifests_for_figure",),
})


def __getattr__(name: str) -> Any:
    if name == "REGISTRY":
        from .base import load_registry

        return load_registry()
    return _exported(name)
