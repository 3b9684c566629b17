"""Routing algorithms for the dragonfly (Section 4) and the extension
families."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".vc_assignment": ("vc_assignment",),
    ".fb_paths": ("RouterPlan", "fb_next_hop", "router_valiant_plan"),
    ".clos_routing": ("ClosRoutePlan", "clos_plan"),
    ".families": ("FAMILY_ROUTINGS",),
    ".torus_routing": ("torus_next_hop",),
    ".base": ("CongestionView", "RoutingAlgorithm"),
    ".paths": ("minimal_plan", "next_hop", "valiant_plan", "walk_route"),
    ".ugal": (
        "ALL_ROUTING_NAMES", "DRAGONFLY", "Family", "RuleRouting", "make_routing",
    ),
    ".tables": (
        "ClosLowering",
        "DegradedDragonflyLowering",
        "DragonflyLowering",
        "FbLowering",
        "ForwardingTables",
        "Leg",
        "Lowering",
        "TableCompileError",
        "TableDrivenRouting",
        "TableEntry",
        "TableRouteError",
        "TableRouting",
        "TorusLowering",
        "VariantLowering",
        "compile_clos_tables",
        "compile_dragonfly_tables",
        "compile_fb_tables",
        "compile_torus_tables",
        "compile_variant_tables",
    ),
    ".variant_paths": (
        "variant_minimal_plan",
        "variant_next_hop",
        "variant_valiant_plan",
    ),
})
