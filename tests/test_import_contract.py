"""What each entry point loads: the import contract.

Every package surface is lazy (``repro._lazy``), so an entry point pays
at start-up only for the modules it runs.  Each row of :data:`CONTRACT`
runs one entry point in a fresh interpreter and names the modules it
must not load; a module or package listed also covers its submodules.
The other way round, every module must be imported by some entry point
(:data:`UNREACHED` names the exceptions and why they stay).
"""

import ast
import dataclasses
import importlib.util
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments import base

SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every module under ``src/repro``.
REPRO_MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)

#: The figure modules the experiment registry loads on first read.
FIGURE_MODULES = [f"repro.experiments.{name}" for name in base.FIGURE_MODULES]

#: What the warm re-read of a figure's grid sets up, as the pipeline
#: benchmark's ``sweep72_warm`` does.
WARM_SETUP = (
    "import repro\n"
    "from repro.experiments.base import experiment_topology\n"
    "from repro.network.cache import SweepCache\n"
    "from repro.network.parallel import SweepExecutor\n"
    "topology = experiment_topology(quick=True)\n"
    "executor = SweepExecutor(workers=1, cache=SweepCache(CACHE))\n"
)

#: Entry point -> the modules it must not load.
CONTRACT = {
    "cold-import": (
        "import repro",
        [name for name in REPRO_MODULES if name != "repro._lazy"],
    ),
    "warm-read-setup": (
        WARM_SETUP,
        [
            "repro.network.simulator",
            "repro.network.array_backend",
            "repro.network.decide_kernel",
            "repro.routing.tables",
            "repro.check",
            "repro.cost",
            "repro.analysis",
            *FIGURE_MODULES,
            "numpy",
            "networkx",
            "multiprocessing",
        ],
    ),
    "experiments-package": (
        "import repro.experiments",
        [*FIGURE_MODULES, "repro.cost", "repro.analysis"],
    ),
    # The symbolic pass refutes a negative control, so a counterexample
    # cycle is named too; the test extra's networkx is still installed.
    "check-without-networkx": (
        "from repro.check.__main__ import run_passes\n"
        "run_passes(['symbolic'])\n",
        ["networkx"],
    ),
    # The decide kernel needs one global link per group pair and the
    # topology's hop table, not the table compiler (with its fault model
    # and path grammars).  Nothing in the build calls ``np.unique``,
    # which imports ``numpy.ma`` (~8 ms).
    "array-engine-without-table-compiler": (
        "from repro.core.params import DragonflyParams\n"
        "from repro.network.backend import make_simulator\n"
        "from repro.network.config import SimulationConfig\n"
        "from repro.network.traffic import make_pattern\n"
        "from repro.routing.ugal import make_routing\n"
        "from repro.topology.dragonfly import Dragonfly\n"
        "topology = Dragonfly(DragonflyParams.paper_example_72())\n"
        "sim = make_simulator(topology, make_routing('UGAL-L'),\n"
        "    make_pattern('uniform_random', topology, seed=1),\n"
        "    SimulationConfig(load=0.2), backend='array')\n"
        "assert type(sim).__name__ == 'ArraySimulator', type(sim)\n",
        ["repro.routing.tables", "numpy.ma"],
    ),
    # Credit sensing (UGAL-L_CR) schedules each cycle's credits by their
    # few distinct delays without ``np.unique`` and its ``numpy.ma``.
    "array-engine-credit-delay-run": (
        "from repro.core.params import DragonflyParams\n"
        "from repro.network.backend import make_simulator\n"
        "from repro.network.config import SimulationConfig\n"
        "from repro.network.traffic import make_pattern\n"
        "from repro.routing.ugal import make_routing\n"
        "from repro.topology.dragonfly import Dragonfly\n"
        "topology = Dragonfly(DragonflyParams.paper_example_72())\n"
        "sim = make_simulator(topology, make_routing('UGAL-L_CR'),\n"
        "    make_pattern('uniform_random', topology, seed=1),\n"
        "    SimulationConfig(load=0.3, warmup_cycles=50, measure_cycles=50,\n"
        "                     drain_max_cycles=0), backend='array')\n"
        "assert type(sim).__name__ == 'ArraySimulator', type(sim)\n"
        "assert sim._credit_delay_enabled\n"
        "sim.run()\n",
        ["numpy.ma"],
    ),
    # ``import numpy`` costs ~135 ms: the sample columns are stdlib
    # ``array``/``bytearray`` so the scalar path and cache reads skip it.
    "scalar-and-cache-without-numpy": (
        "import repro.network.cache, repro.network.parallel\n"
        "import repro.network.simulator, repro.service\n",
        ["numpy"],
    ),
    # The dragonfly's routings, and a scalar engine running one, never
    # load the table compiler or the extension families.
    "dragonfly-routing-without-families": (
        "from repro.core.params import DragonflyParams\n"
        "from repro.network.backend import make_simulator\n"
        "from repro.network.config import SimulationConfig\n"
        "from repro.network.traffic import make_pattern\n"
        "from repro.routing.ugal import ALL_ROUTING_NAMES, make_routing\n"
        "from repro.topology.dragonfly import Dragonfly\n"
        "topology = Dragonfly(DragonflyParams(p=1, a=2, h=1))\n"
        "routings = [make_routing(name) for name in ALL_ROUTING_NAMES]\n"
        "assert len(routings) == 7, routings\n"
        "sim = make_simulator(topology, routings[2],\n"
        "    make_pattern('uniform_random', topology, seed=1),\n"
        "    SimulationConfig(load=0.2, warmup_cycles=20, measure_cycles=20),\n"
        "    backend='scalar')\n"
        "sim.run()\n",
        [
            "repro.routing.tables",
            "repro.routing.families",
            "repro.routing.fb_paths",
            "repro.routing.variant_paths",
            "repro.routing.torus_routing",
            "repro.routing.clos_routing",
            "repro.topology.flattened_butterfly",
            "repro.topology.group_variants",
            "repro.topology.torus",
            "repro.topology.folded_clos",
        ],
    ),
    # The execution core lives under repro.network and stands alone.
    "network-without-service": ("import repro.network.parallel", ["repro.service"]),
    # A figure's grid is declared in repro.experiments; the service runs
    # manifests and knows no figure.
    "service-without-experiments": (
        "import repro.service, repro.service.scheduler, repro.service.status\n"
        "assert 'manifests_for_figure' not in repro.service.__all__\n"
        "assert not hasattr(repro.service.manifest, 'manifests_for_figure')\n",
        ["repro.experiments"],
    ),
}

#: Run after a row's code: exit non-zero naming what it loaded.
REPORT = (
    "\nimport sys\n"
    "loaded = sorted(m for m in sys.modules if m in FORBIDDEN\n"
    "                or any(m.startswith(f + '.') for f in FORBIDDEN))\n"
    "sys.exit(f'loaded {loaded}' if loaded else 0)\n"
)


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("entry", sorted(CONTRACT))
def test_entry_point_loads_nothing_it_does_not_run(entry, tmp_path):
    code, forbidden = CONTRACT[entry]
    prelude = f"CACHE = {str(tmp_path)!r}\nFORBIDDEN = {sorted(forbidden)!r}\n"
    done = run_python(prelude + code + REPORT)
    assert done.returncode == 0, done.stderr


def test_warm_read_loads_nothing_beyond_its_setup(tmp_path):
    """A cache hit imports nothing: every import of a warm re-read is
    paid in set-up, none in the first read."""
    from repro.experiments.base import experiment_topology
    from repro.network.cache import SweepCache
    from repro.network.config import SimulationConfig
    from repro.network.parallel import SweepExecutor

    config = SimulationConfig(load=0.1, warmup_cycles=50, measure_cycles=50)
    SweepExecutor(cache=SweepCache(tmp_path)).run_point(
        experiment_topology(quick=True), "MIN", "uniform_random", config
    )
    code = (
        f"CACHE = {str(tmp_path)!r}\n"
        + WARM_SETUP
        + "import sys\n"
        "from repro.network.config import SimulationConfig\n"
        f"config = SimulationConfig(**{dataclasses.asdict(config)!r})\n"
        "before = set(sys.modules)\n"
        "executor.run_point(topology, 'MIN', 'uniform_random', config)\n"
        "assert executor.stats['cached'] == 1, executor.stats\n"
        "sys.exit(str(sorted(set(sys.modules) - before)) if set(sys.modules) - before else 0)\n"
    )
    done = run_python(code)
    assert done.returncode == 0, done.stderr


#: Every package with a public surface; ``repro.serve`` is a CLI only.
PACKAGES = [
    "repro", "repro.analysis", "repro.check", "repro.core", "repro.cost",
    "repro.experiments", "repro.network", "repro.routing", "repro.service",
    "repro.topology",
]


def test_every_package_with_a_surface_is_covered():
    packages = {"repro"} | {
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    }
    assert packages - set(PACKAGES) == {"repro.serve"}


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        assert name in listed, name
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        module.nope


#: The CLIs, the figures the experiment registry loads by name, and the
#: pipeline benchmark: the code a user or CI runs.
ENTRY_MODULES = [
    "repro.check.__main__", "repro.experiments.__main__", "repro.serve.__main__",
    *FIGURE_MODULES,
]
BENCHMARK_SCRIPTS = sorted((ROOT / "benchmarks" / "pipeline").glob("*.py"))

#: Modules no entry point imports -> why each stays.
UNREACHED = {
    "repro.analysis.latency_model": (
        "the analytic zero-load latency the simulator is tested against"
    ),
}


def module_path(name: str) -> pathlib.Path:
    path = pathlib.Path(SRC, *name.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def imports_of(path: pathlib.Path, package: str) -> set:
    """Every module name one file imports, in any function or branch,
    with each ``from x import y`` also counted as ``x.y``.  The lazy
    export maps of package ``__init__`` files are strings, not imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def module_imports(name: str) -> set:
    """Every module name the ``src/repro`` module ``name`` imports."""
    path = module_path(name)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    return imports_of(path, package)


def test_every_module_is_reached_from_an_entry_point():
    known = set(REPRO_MODULES)
    reached = set()
    pending = {name for script in BENCHMARK_SCRIPTS for name in imports_of(script, "")}
    pending.update(ENTRY_MODULES)
    while pending:
        name = pending.pop()
        if name in reached or name not in known:
            continue
        reached.add(name)
        pending.add(name.rpartition(".")[0])  # its package is imported too
        pending.update(module_imports(name))
    unreached = sorted(known - reached - set(UNREACHED))
    assert not unreached, f"no entry point imports {unreached}"
    assert set(UNREACHED) <= known - reached, "an UNREACHED module is now imported"


def test_no_module_imports_networkx():
    """``import networkx`` is ~95 ms of set-up that sweeps, the service,
    the paper-scale runs and every ``python -m repro.check`` would pay:
    fabrics, VC assignments and the certifiers' graphs are stdlib dicts,
    and networkx stays a test-only reference oracle."""
    offenders = sorted(
        name for name in REPRO_MODULES
        if any(
            imported == "networkx" or imported.startswith("networkx.")
            for imported in module_imports(name)
        )
    )
    assert not offenders, f"{offenders} import networkx"


#: The trees whose code may name a ``src/repro`` definition: the
#: package itself, the pipeline benchmark and the examples.
NAMING_TREES = [pathlib.Path(SRC) / "repro", ROOT / "benchmarks" / "pipeline", ROOT / "examples"]


def workflow_scripts() -> list:
    """The inline Python of the CI workflows: every ``python - <<'EOF'``
    heredoc, dedented, which names package code as any module does."""
    scripts = []
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        lines = iter(path.read_text().splitlines())
        for line in lines:
            if line.rstrip().endswith("python - <<'EOF'"):
                body = []
                for line in lines:
                    if line.strip() == "EOF":
                        break
                    body.append(line)
                scripts.append(textwrap.dedent("\n".join(body)))
    return scripts


def named_identifiers(tree: ast.AST) -> set:
    """Every identifier one module names: variables, attributes, imported
    names, keyword arguments and exact string constants (lazy export
    maps, ``getattr`` names)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def definitions(tree: ast.Module):
    """(qualified name, name, node) of every top-level function and class
    and every method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member.name, member


def is_exempt(name: str, node: ast.AST) -> bool:
    """Dunders (called by Python), ``visit_*`` (called by
    ``ast.NodeVisitor``) and ``@register`` classes (found by their
    registry)."""
    decorators = getattr(node, "decorator_list", [])
    return (
        (name.startswith("__") and name.endswith("__"))
        or name.startswith("visit_")
        or any(isinstance(d, ast.Name) and d.id == "register" for d in decorators)
    )


def test_every_definition_is_named_outside_the_tests():
    """A function, class or method of ``src/repro`` that no code under
    ``src/``, ``benchmarks/pipeline/`` or ``examples/`` names, nor the
    CI workflows' inline Python, is reached only by tests: it belongs in
    ``tests/oracles.py`` or in its test.  The :data:`UNREACHED` modules
    are test oracles kept in the package."""
    unreached = {module_path(name) for name in UNREACHED}
    scripts = workflow_scripts()
    assert scripts, "no inline Python found in .github/workflows"
    named = set()
    for script in scripts:
        named |= named_identifiers(ast.parse(script))
    parsed = {}
    for root in NAMING_TREES:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            named |= named_identifiers(tree)
            if root.name == "repro" and path not in unreached:
                parsed[path] = tree
    unnamed = sorted(
        f"{path.relative_to(SRC)}:{qualified}"
        for path, tree in parsed.items()
        for qualified, name, node in definitions(tree)
        if name not in named and not is_exempt(name, node)
    )
    assert not unnamed, f"named only by tests: {unnamed}"
