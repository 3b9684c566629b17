"""Analytic network metrics: diameter, bisection, structure, bounds."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".latency_model": ("LatencyModel",),
    ".bisection": ("dragonfly_group_bisection",),
    ".channel_load": (
        "min_worst_case_throughput",
        "ugal_ideal_worst_case_throughput",
        "valiant_uniform_throughput",
        "valiant_worst_case_throughput",
    ),
    ".comparison": (
        "StructureSummary",
        "dragonfly_structure",
        "figure18_comparison",
        "flattened_butterfly_structure",
    ),
    ".diameter": (
        "HopCount",
        "TopologyComparison",
        "dragonfly_row",
        "flattened_butterfly_row",
        "table2",
    ),
})
