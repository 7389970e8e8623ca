"""Engine-level tests: discovery, suppressions, rule registry."""

from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis.engine import discover, run_rules
from repro.analysis.rules import get_rules
from repro.analysis.rules.determinism import WallClockRule


def make_tree(tmp_path, files):
    """Write ``{relative path: source}`` under ``tmp_path``."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(source))
    return tmp_path


def lint_tree(tmp_path, files, rules=None):
    root = make_tree(tmp_path, files)
    project = discover([root], root=root)
    return run_rules(project, rules if rules is not None else get_rules())


class TestDiscovery:
    def test_module_names_and_units(self, tmp_path):
        root = make_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/machine.py": "x = 1\n",
        })
        project = discover([root], root=root)
        module = project.get_by_suffix("simulator.machine")
        assert module is not None
        assert module.name == "pkg.simulator.machine"
        assert module.unit == "simulator"
        assert not module.is_package
        assert project.modules["pkg.simulator"].is_package

    def test_parse_error_becomes_finding(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/broken.py": "def f(:\n",
        })
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].path == "pkg/broken.py"

    def test_single_file_path(self, tmp_path):
        path = tmp_path / "lone.py"
        path.write_text("import time\n")
        project = discover([path], root=tmp_path)
        assert "lone" in project.modules


class TestSuppressions:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/simulator/__init__.py": "",
    }

    def _wallclock(self, tmp_path, body):
        files = dict(self.FILES)
        files["pkg/simulator/clock.py"] = body
        return lint_tree(tmp_path, files, rules=[WallClockRule()])

    def test_unsuppressed_fires(self, tmp_path):
        findings = self._wallclock(
            tmp_path, "import time\nt = time.time()\n")
        assert [f.rule for f in findings] == ["determinism-wallclock"]

    def test_same_line_suppression(self, tmp_path):
        findings = self._wallclock(
            tmp_path,
            "import time\n"
            "t = time.time()  # repro: lint-ignore[determinism-wallclock]\n",
        )
        assert findings == []

    def test_comment_line_above(self, tmp_path):
        findings = self._wallclock(
            tmp_path,
            "import time\n"
            "# repro: lint-ignore[determinism-wallclock]\n"
            "t = time.time()\n",
        )
        assert findings == []

    def test_wrong_rule_name_does_not_suppress(self, tmp_path):
        findings = self._wallclock(
            tmp_path,
            "import time\n"
            "t = time.time()  # repro: lint-ignore[some-other-rule]\n",
        )
        assert len(findings) == 1

    def test_star_suppresses_everything(self, tmp_path):
        findings = self._wallclock(
            tmp_path,
            "import time\nt = time.time()  # repro: lint-ignore[*]\n",
        )
        assert findings == []


class TestRegistry:
    def test_select_by_name(self):
        rules = get_rules(["determinism-wallclock"])
        assert [r.name for r in rules] == ["determinism-wallclock"]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            get_rules(["no-such-rule"])


class TestUnusedSuppressions:
    def test_stale_marker_is_flagged_as_warning(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clean.py":
                "x = 1  # repro: lint-ignore[determinism-wallclock]\n",
        }, [WallClockRule()])
        assert [f.rule for f in findings] == ["unused-suppression"]
        assert findings[0].severity == "warning"
        assert "determinism-wallclock" in findings[0].message

    def test_used_marker_is_not_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clock.py":
                "import time\n"
                "t = time.time()  # repro: lint-ignore[determinism-wallclock]\n",
        }, [WallClockRule()])
        assert findings == []

    def test_star_marker_is_never_flagged(self, tmp_path):
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clean.py": "x = 1  # repro: lint-ignore[*]\n",
        }, [WallClockRule()])
        assert findings == []

    def test_marker_for_unexecuted_rule_is_not_flagged(self, tmp_path):
        # with --select the marked rule never ran, so the marker cannot
        # be judged stale
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clean.py":
                "x = 1  # repro: lint-ignore[determinism-unseeded-rng]\n",
        }, [WallClockRule()])
        assert findings == []

    def test_comment_only_marker_covering_next_line_counts_as_used(
            self, tmp_path):
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clock.py":
                "import time\n"
                "# repro: lint-ignore[determinism-wallclock]\n"
                "t = time.time()\n",
        }, [WallClockRule()])
        assert findings == []

    def test_unused_warning_survives_baseline_free_run(self, tmp_path):
        # warnings do not flip the exit path, but they are reported
        findings = lint_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/simulator/__init__.py": "",
            "pkg/simulator/clean.py":
                "x = 1  # repro: lint-ignore[determinism-wallclock]\n",
        }, [WallClockRule()])
        assert all(f.severity == "warning" for f in findings)
