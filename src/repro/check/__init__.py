"""Static analysis for the dragonfly reproduction (``python -m repro.check``).

Four passes certify correctness *before* any simulation runs:

* :mod:`repro.check.cdg` -- channel-dependency-graph certification of
  deadlock freedom for every registered (topology, routing, VC
  assignment) configuration, with concrete counterexample cycles on
  failure;
* :mod:`repro.check.symbolic` -- channel-class (family-level) deadlock
  certification from path grammars, covering every (a, p, h, g) at once
  and cross-checked against the concrete enumerator;
* :mod:`repro.check.invariants` -- topology invariant linter for the
  paper's parameter algebra and fabric wiring;
* :mod:`repro.check.lint` -- repo-specific AST lint (seeded randomness,
  ``__slots__`` on hot-path classes, no ``print`` in library code, no
  ``assert`` in the network engine).

:mod:`repro.check.sanitizer` additionally instruments *running*
simulations (``REPRO_SANITIZE=1``) with flit/credit conservation audits.

See ``docs/static-analysis.md`` for usage and for how to register a new
routing algorithm with the certifier.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".cdg": (
        "Certification",
        "cdg_from_traces",
        "certify",
        "describe_cycle",
        "find_counterexample",
    ),
    ".invariants": (
        "audit_dragonfly",
        "audit_fabric",
        "audit_flattened_butterfly",
        "audit_folded_clos",
        "audit_topology",
        "audit_torus",
        "default_topology_audits",
    ),
    ".lint": ("lint_file", "lint_sources", "lint_tree"),
    ".registry": (
        "CheckConfiguration",
        "GrammarConfiguration",
        "all_configurations",
        "broken_configuration",
        "default_configurations",
        "symbolic_scale_configurations",
    ),
    ".report": ("CheckReport", "Finding", "Severity", "combined_exit_code"),
    ".sanitizer": (
        "SanitizerError",
        "SimulatorSanitizer",
        "audit_simulator",
        "structural_findings",
    ),
    ".symbolic": (
        "CrossCheck",
        "SymbolicCertification",
        "certify_grammar",
        "class_dependency_graph",
        "cross_check",
        "describe_symbolic_cycle",
        "find_symbolic_counterexample",
        "soundness_harness",
    ),
})
