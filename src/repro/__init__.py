"""repro -- reproduction of the ISCA 2008 dragonfly topology paper.

Public API highlights:

* :class:`repro.DragonflyParams` / :func:`repro.make_dragonfly` -- build
  dragonfly networks of any ``(p, a, h, g)``.
* :func:`repro.make_routing` -- MIN, VAL and the UGAL family including
  the paper's new UGAL-L_VCH and UGAL-L_CR indirect adaptive variants.
* :class:`repro.Simulator` / :func:`repro.load_sweep` -- cycle-accurate
  evaluation under synthetic traffic.
* :class:`repro.SweepExecutor` / :class:`repro.SweepCache` -- parallel
  sweep execution and on-disk result caching with bit-identical output.
* :mod:`repro.cost` -- the technology-driven cable/packaging cost model.
* :mod:`repro.experiments` -- one entry per paper table and figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".core.params": ("DragonflyParams", "TopologyError"),
    ".network.config": ("SimulationConfig",),
    ".network.stats": ("SimulationResult",),
    ".network.simulator": ("Simulator", "simulate"),
    ".network.cache": ("SweepCache",),
    ".network.parallel": ("SweepExecutor",),
    ".network.sweep": ("load_sweep", "saturation_load"),
    ".network.traffic": ("make_pattern",),
    ".routing": ("ALL_ROUTING_NAMES",),
    ".routing.ugal": ("make_routing",),
    ".topology.base": ("ChannelKind",),
    ".topology.dragonfly": ("Dragonfly", "make_dragonfly"),
    ".topology.flattened_butterfly": ("FlattenedButterfly",),
    ".topology.folded_clos": ("FoldedClos",),
    ".topology.torus": ("Torus",),
})
__all__.append("__version__")
