"""Terminal visualisation helpers (no plotting dependencies)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".ascii": ("bar_chart", "histogram_chart", "line_chart", "sweep_chart"),
})
