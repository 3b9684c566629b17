"""Repo-specific AST lint for simulator hygiene (stdlib ``ast`` only).

Seven rules, each motivated by a reproducibility or performance property
of the codebase:

``REP001`` unseeded randomness
    Calls to the ``random`` *module's* global functions
    (``random.random()``, ``random.choice()``, ...) are forbidden in
    ``src/repro``: they draw from interpreter-global state and silently
    break run-to-run determinism.  All randomness must flow through the
    seeded :class:`random.Random` instances the simulator owns
    (constructing ``random.Random``/``random.SystemRandom`` is allowed).

``REP002`` missing ``__slots__`` on hot-path classes
    The flit/stream classes instantiated per packet per hop must declare
    ``__slots__`` (directly or via ``@dataclass(slots=True)``): a dict
    per flit measurably slows the simulator and bloats memory.

``REP003`` no ``print`` in library code
    Library modules must not print; results flow through return values
    and the stats pipeline.  CLI entry points (``__main__.py`` modules
    and the ``check`` package) are exempt.  The repo's script trees
    (``benchmarks/`` and ``examples/``) are linted in *script mode*:
    prints inside function bodies or the ``if __name__ == "__main__":``
    guard are fine (that is where a script's output belongs), but a
    bare module-level print outside the guard fires on ``import`` --
    including under pytest collection -- and is flagged.

``REP004`` no ``dict.setdefault`` in the simulator core
    The active-set engine replaced every per-event ``setdefault`` on
    the hot path with flat preallocated lists and calendar-queue rings
    (see docs/simulator-performance.md).  A ``setdefault`` creeping
    back into ``repro.network.simulator`` silently reverts that --
    each call hashes a key and allocates a default even on hits.  Use
    a preallocated flat structure, or an explicit get/store when the
    code is genuinely cold.

``REP005`` no ``assert`` in the engine, the certifier or routing
    ``assert`` statements are stripped under ``python -O``, so state
    validation written as an assert silently stops validating exactly
    when someone turns optimisations on.  In ``repro.network`` (the
    simulator library), ``repro.check`` (the certifier) and
    ``repro.routing`` (the routing it certifies), raise a named error
    (:class:`~repro.network.simulator.SimulatorStateError`,
    :class:`~repro.routing.tables.TableRouteError`, ...) or report a
    :class:`~repro.check.report.Finding` instead.  The message names
    the package.  Tests and other packages may keep using asserts.

``REP006`` no global-state ``numpy.random`` outside the transplant modules
    ``numpy.random.rand()``, ``numpy.random.seed()`` and friends draw
    from (or mutate) numpy's interpreter-global generator -- the same
    nondeterminism source as ``REP001``, invisible to it because the
    module is ``numpy.random``, not ``random``.  Constructing explicit
    generators (``RandomState``, ``default_rng``, ``Generator``,
    ``SeedSequence``) is allowed anywhere.  The sanctioned MT19937
    transplant modules (``network/decide_kernel.py``,
    ``network/array_backend.py``), whose whole point is replaying the
    scalar engine's streams through numpy's state machinery, are exempt.

``REP007`` the environment is read in ``settings.py`` only
    ``environ``, ``getenv`` and ``putenv`` of the ``os`` module are
    forbidden in ``src/repro`` outside ``repro/settings.py``.  One module parses and
    validates every ``REPRO_*`` variable; everything else receives a
    :class:`~repro.settings.Settings` by argument.  A second reader
    grows its own parser and defaults, and a writer (exporting a flag
    so child code picks it up) leaks the flag into every later
    in-process caller.  Script trees are not subject to it.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Sequence, Union

from .report import Finding, Severity

#: Class names that must carry ``__slots__`` wherever they are defined.
HOT_PATH_CLASSES = frozenset({"Flit", "Packet", "RoutePlan", "_Stream"})

#: ``random`` module attributes that are legitimate to touch directly.
ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})

#: Path fragments (relative, POSIX-style) exempt from the print rule.
PRINT_EXEMPT_PARTS = ("__main__.py",)
PRINT_EXEMPT_PACKAGES = ("check",)

#: Modules where ``dict.setdefault`` is banned outright (REP004): the
#: simulator hot path, which the active-set engine keeps allocation- and
#: hash-free per event.
SETDEFAULT_BANNED_MODULES = frozenset({"network/simulator.py"})

#: Packages (top-level directory under the lint root) where ``assert``
#: is banned (REP005): the simulator library and the certifier with the
#: routing it certifies, whose validation must survive ``python -O``.
ASSERT_BANNED_PACKAGES = frozenset({"network", "check", "routing"})

#: ``numpy.random`` attributes that are legitimate to touch directly
#: (REP006): explicit-generator constructors, never global-state calls.
ALLOWED_NP_RANDOM_ATTRS = frozenset({
    "RandomState", "Generator", "default_rng", "SeedSequence",
})

#: Modules (relative, POSIX-style) exempt from REP006: the sanctioned
#: MT19937 transplant modules, which replay the scalar engine's random
#: streams through numpy's generator state machinery by design.
NP_RANDOM_SANCTIONED_MODULES = frozenset({
    "network/decide_kernel.py",
    "network/array_backend.py",
})

#: ``os`` attributes that touch the process environment (REP007) and
#: the one module (relative, POSIX-style) allowed to use them.
ENVIRON_ATTRS = frozenset({"environ", "getenv", "putenv"})
ENVIRON_MODULE = "settings.py"

#: Repo-level script trees linted in script mode alongside the package.
SCRIPT_TREES = ("benchmarks", "examples")


def _is_main_guard(node: ast.If) -> bool:
    """True for ``if __name__ == "__main__":`` (either operand order)."""
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1):
        return False
    if not isinstance(test.ops[0], ast.Eq):
        return False
    operands = [test.left, test.comparators[0]]
    names = [o.id for o in operands if isinstance(o, ast.Name)]
    values = [o.value for o in operands if isinstance(o, ast.Constant)]
    return names == ["__name__"] and values == ["__main__"]


def _is_dataclass_with_slots(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "slots"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def _defines_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets: Sequence[ast.expr] = ()
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = (statement.target,)
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return _is_dataclass_with_slots(node)


class _Linter(ast.NodeVisitor):
    def __init__(
        self, path: Path, relative: str, script_mode: bool = False
    ) -> None:
        self.path = path
        self.relative = relative
        self.findings: List[Finding] = []
        self._random_aliases: set = set()
        self._numpy_aliases: set = set()
        self._np_random_aliases: set = set()
        self._np_random_exempt = relative in NP_RANDOM_SANCTIONED_MODULES
        self._os_aliases: set = set()
        self._environ_banned = not script_mode and relative != ENVIRON_MODULE
        self._script_mode = script_mode
        #: In script mode, depth > 0 means inside a def/class body or the
        #: ``__main__`` guard, where prints are a script's normal output.
        self._script_exempt_depth = 0
        self._print_exempt = not script_mode and (
            relative.endswith(PRINT_EXEMPT_PARTS) or any(
                part in PRINT_EXEMPT_PACKAGES for part in Path(relative).parts
            )
        )
        self._setdefault_banned = relative in SETDEFAULT_BANNED_MODULES
        parts = Path(relative).parts
        self._assert_package = (
            parts[0]
            if not script_mode and parts and parts[0] in ASSERT_BANNED_PACKAGES
            else None
        )

    def _add(self, code: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        self.findings.append(Finding(
            code=code,
            severity=Severity.ERROR,
            location=f"{self.relative}:{lineno}",
            message=message,
        ))

    # -- imports: track what names random / numpy.random go by -----------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._random_aliases.add(alias.asname or "random")
            elif alias.name == "os":
                self._os_aliases.add(alias.asname or "os")
            elif alias.name == "numpy":
                self._numpy_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._np_random_aliases.add(alias.asname)
                else:
                    # ``import numpy.random`` binds the name ``numpy``.
                    self._numpy_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_RANDOM_ATTRS:
                    self._add(
                        "REP001", node,
                        f"importing random.{alias.name} pulls unseeded "
                        "module-global randomness; use a seeded "
                        "random.Random instance",
                    )
        elif node.module == "os" and self._environ_banned:
            for alias in node.names:
                if alias.name in ENVIRON_ATTRS:
                    self._add_environ(node, alias.name)
        elif node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._np_random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random" and not self._np_random_exempt:
            for alias in node.names:
                if alias.name not in ALLOWED_NP_RANDOM_ATTRS:
                    self._add(
                        "REP006", node,
                        f"importing numpy.random.{alias.name} pulls "
                        "numpy's interpreter-global generator state; "
                        "construct an explicit Generator/RandomState "
                        "(sanctioned transplant modules only)",
                    )
        self.generic_visit(node)

    def _is_np_random_value(self, value: ast.expr) -> bool:
        """True when ``value`` denotes the ``numpy.random`` module."""
        if isinstance(value, ast.Name):
            return value.id in self._np_random_aliases
        return (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self._numpy_aliases
        )

    # -- the environment: read in settings.py only ----------------------
    def _add_environ(self, node: ast.AST, attr: str) -> None:
        self._add(
            "REP007", node,
            f"os.{attr} outside repro/settings.py; take a "
            "repro.settings.Settings argument (default "
            "Settings.from_env()) instead of reading or writing the "
            "process environment",
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self._environ_banned
            and node.attr in ENVIRON_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in self._os_aliases
        ):
            self._add_environ(node, node.attr)
        self.generic_visit(node)

    # -- calls: unseeded random + print ----------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_aliases
            and func.attr not in ALLOWED_RANDOM_ATTRS
        ):
            self._add(
                "REP001", node,
                f"call to unseeded random.{func.attr}(); route randomness "
                "through a seeded random.Random instance",
            )
        if (
            isinstance(func, ast.Name)
            and func.id == "print"
            and not self._print_exempt
            and not (self._script_mode and self._script_exempt_depth > 0)
        ):
            if self._script_mode:
                self._add(
                    "REP003", node,
                    "module-level print() outside the "
                    'if __name__ == "__main__": guard runs on import; '
                    "move it into the guard or a function",
                )
            else:
                self._add(
                    "REP003", node,
                    "print() in library code; return data or use the stats "
                    "pipeline (CLI __main__ modules are exempt)",
                )
        if (
            isinstance(func, ast.Attribute)
            and not self._np_random_exempt
            and func.attr not in ALLOWED_NP_RANDOM_ATTRS
            and self._is_np_random_value(func.value)
        ):
            self._add(
                "REP006", node,
                f"call to numpy.random.{func.attr}() uses numpy's "
                "interpreter-global generator; construct an explicit "
                "Generator/RandomState (sanctioned transplant modules "
                "only)",
            )
        if (
            self._setdefault_banned
            and isinstance(func, ast.Attribute)
            and func.attr == "setdefault"
        ):
            self._add(
                "REP004", node,
                "setdefault() in the simulator core; the active-set "
                "engine keeps the hot path free of per-event hashing "
                "and default allocation -- use a preallocated flat "
                "structure (see docs/simulator-performance.md)",
            )
        self.generic_visit(node)

    # -- asserts: stripped under -O, banned in the engine ----------------
    def visit_Assert(self, node: ast.Assert) -> None:
        if self._assert_package is not None:
            self._add(
                "REP005", node,
                f"assert in repro.{self._assert_package} is stripped under "
                "python -O; raise a named error (SimulatorStateError, "
                "TableRouteError, ValueError, ...) or report a Finding "
                "instead",
            )
        self.generic_visit(node)

    # -- script mode: track where prints are legitimate ------------------
    def _visit_exempt_body(self, node: ast.AST) -> None:
        self._script_exempt_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._script_exempt_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_exempt_body(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_exempt_body(node)

    def visit_If(self, node: ast.If) -> None:
        if self._script_mode and _is_main_guard(node):
            for child in node.body:
                self._script_exempt_depth += 1
                try:
                    self.visit(child)
                finally:
                    self._script_exempt_depth -= 1
            for child in node.orelse:
                self.visit(child)
            self.visit(node.test)
            return
        self.generic_visit(node)

    # -- classes: hot-path __slots__ -------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if node.name in HOT_PATH_CLASSES and not _defines_slots(node):
            self._add(
                "REP002", node,
                f"hot-path class {node.name} must declare __slots__ "
                "(directly or via @dataclass(slots=True))",
            )
        self._visit_exempt_body(node)


def lint_file(path: Path, root: Path, script_mode: bool = False) -> List[Finding]:
    """Lint one file; returns findings (a syntax error is itself one)."""
    relative = path.relative_to(root).as_posix()
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as error:
        return [Finding(
            code="REP000",
            severity=Severity.ERROR,
            location=f"{relative}:{error.lineno or 0}",
            message=f"syntax error: {error.msg}",
        )]
    linter = _Linter(path, relative, script_mode=script_mode)
    linter.visit(tree)
    return linter.findings


def lint_tree(
    root: Union[str, Path], script_mode: bool = False
) -> List[Finding]:
    """Lint every Python file under ``root`` (deterministic order)."""
    root_path = Path(root)
    if not root_path.is_dir():
        # A missing root would otherwise lint zero files and gate green.
        return [Finding(
            code="REP000",
            severity=Severity.ERROR,
            location=str(root_path),
            message="lint root is not a directory",
        )]
    findings: List[Finding] = []
    for path in sorted(root_path.rglob("*.py")):
        findings.extend(lint_file(path, root_path, script_mode=script_mode))
    return findings


def default_lint_root() -> Path:
    """The ``src/repro`` tree this installation runs from."""
    return Path(__file__).resolve().parent.parent


def default_script_roots() -> List[Path]:
    """The repo-level script trees, when running from a checkout.

    An installed wheel has no ``benchmarks/``/``examples/`` next to the
    package; absent trees are simply not linted (unlike an explicit
    root, which errors when missing).
    """
    repo_root = default_lint_root().parent.parent
    return [
        repo_root / name
        for name in SCRIPT_TREES
        if (repo_root / name).is_dir()
    ]


def lint_sources(root: Union[str, Path, None] = None) -> List[Finding]:
    """Entry point used by the CLI: lint the repro package sources.

    With the default root, the repo's script trees (``benchmarks/``,
    ``examples/``) are linted too, in script mode; findings there are
    located as ``benchmarks/foo.py:N`` relative to the repo root.
    """
    if root is not None:
        return lint_tree(root)
    findings = lint_tree(default_lint_root())
    for script_root in default_script_roots():
        for path in sorted(script_root.rglob("*.py")):
            findings.extend(
                lint_file(path, script_root.parent, script_mode=True)
            )
    return findings


def iter_findings_by_rule(
    findings: Iterable[Finding], code: str
) -> List[Finding]:
    """Convenience filter used by tests."""
    return [finding for finding in findings if finding.code == code]
