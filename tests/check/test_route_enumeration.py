"""One route enumeration, pinned against the generators it replaced.

Until PR 22 every family's admissible routes were enumerated twice: by
a ``*_traces`` generator in ``repro.check.cdg`` and by ``cases()`` on
its ``Lowering``.  ``Lowering.routes()`` is now the only enumerator.
The digests below were recorded at the parent commit from
``configuration.build()`` (the deleted generators), so a route that goes
missing, is reordered or is walked differently changes a digest here
before it can change a certificate.
"""

import hashlib
import pathlib
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.check.registry import broken_configuration, default_configurations

#: name -> (routes, sha256 of repr(list of traces), VC budget), recorded
#: at the parent commit (7ff8717) for the ten default configurations and
#: the collapsed-2vc negative control.  The Clos digest is that of the
#: 88-route leaf-ordered list ``folded_clos_traces`` yielded.
ORACLE = {
    "dragonfly/MIN+VAL+UGAL@figure7-3vc": (
        18720,
        "5c2a11b7470438530888bab58decf1a9900b9cd2c9d9b76d646a585ec91b79be",
        3,
    ),
    "dragonfly-tiny/MIN+VAL+UGAL@figure7-3vc": (
        60,
        "f2fe1218c26f2570db248f4cf05fdb7651a0fbc39e231a32719ee3e639c49e95",
        3,
    ),
    "dragonfly-nonmax/MIN+VAL+UGAL@figure7-3vc": (
        156,
        "a4fb578a78b89c896c50af141e47da1fcb021326dffd301710e229340800ef76",
        3,
    ),
    "dragonfly-nonmax72/MIN+VAL+UGAL@figure7-3vc": (
        9120,
        "442ed19bbdff89389cdcb48d9100b9ef5d2589784ad3b2dd76401d10980386b5",
        3,
    ),
    "dragonfly/MIN@minimal-2vc": (
        2592,
        "727be649a97e7117aea401dffeed8c7ac04c642ee6c8e8bf7ceee6b98b64ca09",
        2,
    ),
    "dragonfly-fbgroup/MIN+VAL+UGAL@figure7-3vc": (
        1360,
        "55a2f59c80f485dd37df3e2d08319eccb0de95aa0ed25ea2e66b8e62afd626df",
        3,
    ),
    "flattened-butterfly/FB-MIN+VAL+UGAL@phase-vcs": (
        657,
        "9b295fcd815b59a6d6f8ab6995077b2dfabd929932a61cefd92233b36285a2b7",
        2,
    ),
    "torus/DOR@dateline-2vc": (
        256,
        "a2593dcd7553e402d9712f0864cc4570fb97308eda95a00a83cdc4cd5d0d7462",
        2,
    ),
    "torus/DOR+VAL@dateline-4vc": (
        3856,
        "a0e2a4338c0786fe514d6e3710bb60bee37b70a722eaa331985a31c811970115",
        4,
    ),
    "folded-clos/CLOS-RAND+DET@updown-1vc": (
        88,
        "d1af7ae0772cabe36ad47180f356205ff49e29ee760705858df66f3e5dfa627e",
        1,
    ),
    "dragonfly/MIN+VAL@collapsed-2vc (negative control)": (
        18720,
        "0d93c93e488d70cdbf1c238960c279894f3e5e899a41bad4796dc43b18efb36c",
        2,
    ),
}

CONFIGURATIONS = [*default_configurations(), broken_configuration()]


def test_the_oracle_covers_every_configuration():
    assert [c.name for c in CONFIGURATIONS] == list(ORACLE)


@pytest.mark.parametrize(
    "configuration", CONFIGURATIONS, ids=[c.name for c in CONFIGURATIONS]
)
class TestSingleEnumerator:
    def test_traces_reproduce_the_deleted_generator(self, configuration):
        count, digest, _ = ORACLE[configuration.name]
        traces = list(configuration.family().traces())
        assert len(traces) == count
        assert hashlib.sha256(repr(traces).encode()).hexdigest() == digest

    def test_cases_walk_the_same_routes_as_traces(self, configuration):
        """The table pass and the cdg pass see one enumeration."""
        family = configuration.family()
        traces = list(family.traces())
        cases = list(family.cases())
        assert len(cases) == len(traces)
        for trace, case in zip(traces, cases):
            assert tuple(trace) == case.algorithmic, case.label
            assert trace[0][0] == case.src_router
            assert case.legs, case.label

    def test_vc_budget_is_the_grammars(self, configuration):
        _, _, claimed_vcs = ORACLE[configuration.name]
        assert configuration.family().grammar().num_vcs == claimed_vcs


def test_cdg_module_knows_no_family_and_no_concrete_topology():
    """``check/cdg.py`` is graph machinery over (fabric, traces) only.

    Every ``repro`` package ``__init__`` re-exports its whole subtree,
    so the probe stands in bare packages for ``repro``, ``repro.check``
    and ``repro.topology`` and then looks at what importing the module
    itself pulled in.
    """
    code = textwrap.dedent(
        """
        import pathlib, sys, types
        root = pathlib.Path(sys.argv[1])
        for name in ("repro", "repro.check", "repro.topology"):
            package = types.ModuleType(name)
            package.__path__ = [str(root.joinpath(*name.split(".")))]
            sys.modules[name] = package
        import repro.check.cdg
        loaded = sorted(
            m for m in sys.modules
            if m.startswith("repro.") and m not in ("repro.check", "repro.topology")
        )
        assert loaded == ["repro.check.cdg", "repro.topology.base"], loaded
        """
    )
    source_root = pathlib.Path(repro.__path__[0]).parent
    subprocess.run([sys.executable, "-c", code, str(source_root)], check=True)
