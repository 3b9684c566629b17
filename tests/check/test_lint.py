"""Tests for the repo-specific AST lint (REP001..REP007)."""

import textwrap

from repro.check.lint import (
    default_lint_root,
    iter_findings_by_rule,
    lint_sources,
    lint_tree,
)


def lint_snippet(tmp_path, source, name="module.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_tree(tmp_path)


class TestUnseededRandom:
    def test_module_level_call_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random
            x = random.random()
        """)
        rep001 = iter_findings_by_rule(findings, "REP001")
        assert len(rep001) == 1
        assert rep001[0].location == "module.py:3"

    def test_aliased_import_is_tracked(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random as rnd
            rnd.shuffle([1, 2, 3])
        """)
        assert iter_findings_by_rule(findings, "REP001")

    def test_from_import_of_global_function_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from random import choice
        """)
        assert iter_findings_by_rule(findings, "REP001")

    def test_seeded_random_instance_is_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import random
            from random import Random
            rng = random.Random(42)
            value = rng.random()
        """)
        assert not iter_findings_by_rule(findings, "REP001")


class TestHotPathSlots:
    def test_bare_hot_path_class_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            class Flit:
                pass
        """)
        assert iter_findings_by_rule(findings, "REP002")

    def test_explicit_slots_satisfy_the_rule(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            class Packet:
                __slots__ = ("a", "b")
        """)
        assert not iter_findings_by_rule(findings, "REP002")

    def test_dataclass_slots_satisfy_the_rule(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class RoutePlan:
                minimal: bool
        """)
        assert not iter_findings_by_rule(findings, "REP002")

    def test_unlisted_class_is_ignored(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            class SimulationResult:
                pass
        """)
        assert not iter_findings_by_rule(findings, "REP002")


class TestPrintRule:
    def test_print_in_library_module_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            print("debug")
        """)
        assert iter_findings_by_rule(findings, "REP003")

    def test_main_modules_are_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            print("cli output")
        """, name="__main__.py")
        assert not iter_findings_by_rule(findings, "REP003")

    def test_check_package_is_exempt(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            print("report")
        """, name="check/report_writer.py")
        assert not iter_findings_by_rule(findings, "REP003")


class TestSetdefaultRule:
    def test_setdefault_in_simulator_core_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def deliver(pending, key, flit):
                pending.setdefault(key, []).append(flit)
        """, name="network/simulator.py")
        rep004 = iter_findings_by_rule(findings, "REP004")
        assert len(rep004) == 1
        assert rep004[0].location == "network/simulator.py:3"

    def test_setdefault_elsewhere_is_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def record(groups, key, link):
                groups.setdefault(key, []).append(link)
        """, name="topology/dragonfly.py")
        assert not iter_findings_by_rule(findings, "REP004")

    def test_clean_simulator_module_passes(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def deliver(pending, key, flit):
                queue = pending.get(key)
                if queue is None:
                    queue = pending[key] = []
                queue.append(flit)
        """, name="network/simulator.py")
        assert not iter_findings_by_rule(findings, "REP004")


class TestAssertRule:
    def test_assert_in_network_engine_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def eject(terminal, expected):
                assert terminal == expected, "misrouted"
        """, name="network/simulator.py")
        rep005 = iter_findings_by_rule(findings, "REP005")
        assert len(rep005) == 1
        assert rep005[0].location == "network/simulator.py:3"
        assert "python -O" in rep005[0].message
        assert "repro.network" in rep005[0].message

    def test_assert_anywhere_in_network_package_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def run(results):
                assert all(r is not None for r in results)
        """, name="network/parallel.py")
        assert iter_findings_by_rule(findings, "REP005")

    def test_assert_in_the_certifier_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def annotate(certification):
                assert certification.cycle is not None
        """, name="check/tables.py")
        rep005 = iter_findings_by_rule(findings, "REP005")
        assert [f.location for f in rep005] == ["check/tables.py:3"]
        assert "assert in repro.check is stripped" in rep005[0].message

    def test_assert_in_routing_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def walk(trace):
                assert trace, "route failed to terminate"
        """, name="routing/paths.py")
        rep005 = iter_findings_by_rule(findings, "REP005")
        assert [f.location for f in rep005] == ["routing/paths.py:3"]
        assert "assert in repro.routing is stripped" in rep005[0].message

    def test_assert_outside_the_banned_packages_is_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def build(links):
                assert links, "a group needs global links"
        """, name="topology/dragonfly.py")
        assert not iter_findings_by_rule(findings, "REP005")

    def test_raise_in_network_engine_passes(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            def eject(terminal, expected):
                if terminal != expected:
                    raise RuntimeError("misrouted")
        """, name="network/simulator.py")
        assert not iter_findings_by_rule(findings, "REP005")


class TestNumpyGlobalRandom:
    def test_np_random_call_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import numpy as np
            x = np.random.rand(4)
        """)
        rep006 = iter_findings_by_rule(findings, "REP006")
        assert len(rep006) == 1
        assert rep006[0].location == "module.py:3"
        assert "interpreter-global" in rep006[0].message

    def test_numpy_random_module_alias_is_tracked(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import numpy.random as npr
            npr.seed(0)
        """)
        assert iter_findings_by_rule(findings, "REP006")

    def test_from_import_of_global_function_is_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from numpy.random import shuffle
        """)
        assert iter_findings_by_rule(findings, "REP006")

    def test_from_numpy_import_random_is_tracked(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            from numpy import random
            random.normal(size=3)
        """)
        assert iter_findings_by_rule(findings, "REP006")

    def test_explicit_generator_is_allowed(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import numpy as np
            from numpy.random import Generator, default_rng
            rng = np.random.default_rng(7)
            state = np.random.RandomState(7)
            values = rng.normal(size=4)
        """)
        assert not iter_findings_by_rule(findings, "REP006")

    def test_sanctioned_transplant_modules_are_exempt(self, tmp_path):
        for name in ("network/decide_kernel.py", "network/array_backend.py"):
            findings = lint_snippet(tmp_path, """
                import numpy as np
                draws = np.random.rand(8)
            """, name=name)
            assert not iter_findings_by_rule(findings, "REP006"), name

    def test_unrelated_random_attribute_is_ignored(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import numpy as np
            sizes = np.arange(10)
        """)
        assert not iter_findings_by_rule(findings, "REP006")


class TestEnvironmentAccess:
    def test_reads_and_writes_are_flagged(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import os
            backend = os.environ.get("REPRO_SIM_BACKEND")
            workers = os.getenv("REPRO_SWEEP_WORKERS")
            os.environ["REPRO_SANITIZE"] = "1"
            os.putenv("REPRO_SANITIZE", "1")
        """, name="network/backend.py")
        rep007 = iter_findings_by_rule(findings, "REP007")
        assert [f.location for f in rep007] == [
            f"network/backend.py:{line}" for line in (3, 4, 5, 6)
        ]
        assert "Settings" in rep007[0].message

    def test_aliases_and_from_imports_are_tracked(self, tmp_path):
        findings = lint_snippet(tmp_path, """
            import os as operating_system
            from os import environ, getenv
            value = operating_system.environ["X"]
        """)
        assert len(iter_findings_by_rule(findings, "REP007")) == 3

    def test_settings_module_and_other_os_use_are_allowed(self, tmp_path):
        lint_snippet(tmp_path, """
            import os
            raw = os.environ.get("REPRO_SIM_BACKEND", "")
        """, name="settings.py")
        findings = lint_snippet(tmp_path, """
            import os
            from os import path
            cpus = os.cpu_count()
            os.unlink("scratch")
            environ = {"not": "os.environ"}
            environ.get("not")
        """)
        assert not iter_findings_by_rule(findings, "REP007")

    def test_scripts_are_not_subject_to_it(self, tmp_path):
        (tmp_path / "bench.py").write_text(
            "import os\nWORKERS = os.environ.get('REPRO_SWEEP_WORKERS')\n"
        )
        findings = lint_tree(tmp_path, script_mode=True)
        assert not iter_findings_by_rule(findings, "REP007")


class TestTreeWalk:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        rep000 = iter_findings_by_rule(findings, "REP000")
        assert len(rep000) == 1

    def test_missing_root_is_an_error_not_a_green_gate(self, tmp_path):
        findings = lint_tree(tmp_path / "no-such-dir")
        rep000 = iter_findings_by_rule(findings, "REP000")
        assert len(rep000) == 1
        assert "not a directory" in rep000[0].message

    def test_findings_are_ordered_by_path(self, tmp_path):
        (tmp_path / "b.py").write_text("import random\nrandom.random()\n")
        (tmp_path / "a.py").write_text("import random\nrandom.random()\n")
        findings = lint_tree(tmp_path)
        assert [f.location for f in findings] == ["a.py:2", "b.py:2"]


class TestShippedSourcesAreClean:
    def test_src_repro_has_no_findings(self):
        findings = lint_sources()
        assert findings == [], [f.format() for f in findings]

    def test_default_root_is_the_repro_package(self):
        assert default_lint_root().name == "repro"


class TestScriptMode:
    """benchmarks/ and examples/ are linted in script mode (REP003)."""

    def lint_script(self, tmp_path, source, name="script.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(source))
        return lint_tree(tmp_path, script_mode=True)

    def test_module_level_print_outside_guard_is_flagged(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            print("runs on import")
        """)
        rep003 = iter_findings_by_rule(findings, "REP003")
        assert len(rep003) == 1
        assert "__main__" in rep003[0].message

    def test_print_inside_main_guard_is_exempt(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            if __name__ == "__main__":
                print("fine: script output")
        """)
        assert iter_findings_by_rule(findings, "REP003") == []

    def test_print_inside_function_is_exempt(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            def main():
                print("fine: called from the guard")
        """)
        assert iter_findings_by_rule(findings, "REP003") == []

    def test_print_in_guard_else_branch_is_flagged(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            if __name__ == "__main__":
                pass
            else:
                print("still runs on import")
        """)
        assert len(iter_findings_by_rule(findings, "REP003")) == 1

    def test_reversed_guard_comparison_is_recognised(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            if "__main__" == __name__:
                print("fine")
        """)
        assert iter_findings_by_rule(findings, "REP003") == []

    def test_unseeded_random_still_flagged_in_scripts(self, tmp_path):
        findings = self.lint_script(tmp_path, """
            import random

            def pick(items):
                return random.choice(items)
        """)
        assert len(iter_findings_by_rule(findings, "REP001")) == 1

    def test_asserts_allowed_in_scripts(self, tmp_path):
        findings = self.lint_script(
            tmp_path, "assert 1 + 1 == 2\n", name="network_demo.py"
        )
        assert iter_findings_by_rule(findings, "REP005") == []


class TestScriptTreesAreClean:
    def test_benchmarks_and_examples_have_no_findings(self):
        from repro.check.lint import default_script_roots

        roots = default_script_roots()
        assert roots, "expected a repo checkout with benchmarks/ + examples/"
        findings = lint_sources()
        assert findings == [], [f.format() for f in findings]
