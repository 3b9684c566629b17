"""Topology builders: dragonfly and the paper's comparison baselines."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "Channel", "ChannelKind", "Fabric", "PortRef", "Terminal", "Topology", "build",
    ),
    ".dragonfly": ("Dragonfly", "GlobalLink", "make_dragonfly"),
    ".flattened_butterfly": ("FlattenedButterfly",),
    ".folded_clos": ("FoldedClos", "levels_required"),
    ".group_variants": ("FlattenedButterflyGroupDragonfly",),
    ".torus": ("Torus",),
})
