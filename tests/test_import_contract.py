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
    # The decide kernel needs one global link per group pair, not the
    # table compiler (with its fault model and path grammars).
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
        ["repro.routing.tables"],
    ),
    # ``import numpy`` costs ~135 ms: the sample columns are stdlib
    # ``array``/``bytearray`` so the scalar path and cache reads skip it.
    "scalar-and-cache-without-numpy": (
        "import repro.network.cache, repro.network.parallel\n"
        "import repro.network.simulator, repro.service\n",
        ["numpy"],
    ),
    # The dragonfly's routings never load the extension families.
    "dragonfly-routing-without-families": (
        "from repro.routing.ugal import make_routing\n"
        "make_routing('UGAL-L')\n",
        [
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
