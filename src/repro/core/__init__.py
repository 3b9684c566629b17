"""Parameter algebra and scaling laws of the dragonfly topology."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".params": (
        "DragonflyParams",
        "TopologyError",
        "balanced_params_for_radix",
        "required_radix_single_hop",
    ),
    ".scaling": (
        "RadixRequirementPoint",
        "ScalabilityPoint",
        "dragonfly_scalability_curve",
        "radix_requirement_curve",
    ),
})
