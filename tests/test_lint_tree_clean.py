"""The shipped tree must lint clean — ``repro lint`` is a CI gate."""

import io
import json
from pathlib import Path

from repro.analysis.cli import run_lint
from repro.cli import main

REPO = Path(__file__).resolve().parents[1]


class TestShippedTree:
    def test_repro_lint_exits_clean(self):
        out, err = io.StringIO(), io.StringIO()
        code = run_lint([str(REPO / "src" / "repro")], out=out, err=err)
        assert code == 0, f"lint findings on the shipped tree:\n{out.getvalue()}"

    def test_json_format(self):
        out = io.StringIO()
        code = run_lint(
            [str(REPO / "src" / "repro")], fmt="json", out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["summary"]["errors"] == 0
        assert payload["findings"] == []


class TestCliWiring:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "determinism-wallclock",
            "layering-forbidden-import",
            "hotpath-missing-slots",
            "stats-parity-fast-forward",
            "config-unknown-field",
        ):
            assert name in out

    def test_unknown_rule_is_usage_error(self, capsys):
        assert main(["lint", "--select", "bogus-rule"]) == 2

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["lint", "definitely/not/a/path"]) == 2

    def test_lint_via_cli_on_tree(self, capsys):
        assert main(["lint", str(REPO / "src" / "repro")]) == 0


class TestGithubFormatAndBudget:
    def _dirty_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        sim = pkg / "simulator"
        sim.mkdir()
        (sim / "__init__.py").write_text("")
        (sim / "clock.py").write_text("import time\nt = time.time()\n")
        return tmp_path

    def test_github_annotations_on_findings(self, tmp_path):
        root = self._dirty_tree(tmp_path)
        out, err = io.StringIO(), io.StringIO()
        code = run_lint([str(root)], fmt="github", out=out, err=err)
        assert code == 1
        lines = out.getvalue().splitlines()
        annotations = [l for l in lines if l.startswith("::error ")]
        assert annotations, out.getvalue()
        assert "file=pkg/simulator/clock.py" in annotations[0]
        assert "line=2" in annotations[0]
        assert "title=determinism-wallclock" in annotations[0]

    def test_github_format_clean_tree(self):
        out = io.StringIO()
        code = run_lint([str(REPO / "src" / "repro")], fmt="github", out=out)
        assert code == 0
        assert "::error" not in out.getvalue()

    def test_timings_table_printed(self):
        out = io.StringIO()
        code = run_lint([str(REPO / "src" / "repro")], timings=True, out=out)
        assert code == 0
        text = out.getvalue()
        assert "rule timings:" in text
        for name in ("async-blocking-call", "route-conformance", "total"):
            assert name in text

    def test_budget_exceeded_fails(self):
        out, err = io.StringIO(), io.StringIO()
        code = run_lint([str(REPO / "src" / "repro")], budget=0.0,
                        out=out, err=err)
        assert code == 1
        assert "over the 0s budget" in err.getvalue()

    def test_generous_budget_passes(self):
        out = io.StringIO()
        code = run_lint([str(REPO / "src" / "repro")], budget=300.0, out=out)
        assert code == 0

    def test_cli_flags_parse(self, capsys):
        assert main(["lint", str(REPO / "src" / "repro"),
                     "--format", "github", "--timings",
                     "--budget", "300"]) == 0
        out = capsys.readouterr().out
        assert "rule timings:" in out
