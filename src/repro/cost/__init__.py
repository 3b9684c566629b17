"""Technology-driven cost model (Sections 2 and 5)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cables": (
        "DEFAULT_CROSSOVER_M",
        "ELECTRICAL_CABLE",
        "INTEL_CONNECTS",
        "LUXTERA_BLAZAR",
        "TABLE_1",
        "CableTechnology",
        "cable_cost",
        "cable_cost_per_gbps",
        "crossover_length_m",
        "electrical_cost_per_gbps",
        "is_optical",
        "optical_cost_per_gbps",
    ),
    ".model": (
        "CableRun",
        "CostBreakdown",
        "CostConfig",
        "DragonflyCost",
        "FlattenedButterflyCost",
        "FoldedClosCost",
        "TopologyCost",
        "TorusCost",
        "cost_comparison",
    ),
    ".packaging": ("FloorPlan", "PackagingConfig"),
    ".power": ("PowerBreakdown", "PowerConfig", "power_breakdown", "power_comparison"),
})
