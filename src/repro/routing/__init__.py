"""Routing algorithms for the dragonfly (Section 4)."""

from .._lazy import lazy_exports

#: Every algorithm the paper evaluates, in presentation order.
ALL_ROUTING_NAMES = [
    "MIN",
    "VAL",
    "UGAL-L",
    "UGAL-G",
    "UGAL-L_VC",
    "UGAL-L_VCH",
    "UGAL-L_CR",
]

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".vc_assignment": ("vc_assignment",),
    ".fb_paths": (
        "FbRoutePlan",
        "fb_minimal_plan",
        "fb_next_hop",
        "fb_plan_hops",
        "fb_valiant_plan",
    ),
    ".clos_routing": (
        "ClosDeterministicRouting",
        "ClosRandomRouting",
        "ClosRoutePlan",
        "clos_plan",
        "make_clos_routing",
    ),
    ".fb_routing": ("FbMinimalRouting", "FbUgalL", "FbValiantRouting", "make_fb_routing"),
    ".torus_routing": (
        "TorusMinimalRouting",
        "TorusRoutePlan",
        "TorusValiantRouting",
        "make_torus_routing",
        "torus_minimal_plan",
        "torus_next_hop",
        "torus_valiant_plan",
    ),
    ".base": ("CongestionView", "RoutingAlgorithm", "ZeroCongestion"),
    ".minimal": ("MinimalRouting",),
    ".paths": ("minimal_plan", "next_hop", "plan_hops", "valiant_plan", "walk_route"),
    ".ugal": ("UgalG", "UgalL", "UgalLCr", "UgalLVc", "UgalLVcH", "make_routing"),
    ".valiant": ("ValiantRouting",),
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
        "TorusLowering",
        "VariantLowering",
        "compile_clos_tables",
        "compile_dragonfly_tables",
        "compile_fb_tables",
        "compile_torus_tables",
        "compile_variant_tables",
        "table_walk_route",
    ),
    ".variant_paths": (
        "variant_minimal_plan",
        "variant_next_hop",
        "variant_plan_hops",
        "variant_valiant_plan",
    ),
    ".variant_routing": (
        "VariantMinimalRouting",
        "VariantUgalL",
        "VariantValiantRouting",
        "make_variant_routing",
    ),
})
__all__.append("ALL_ROUTING_NAMES")
