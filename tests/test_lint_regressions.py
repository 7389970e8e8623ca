"""Regression gate: the concurrency rules must catch reintroductions.

Each test copies the shipped ``src/repro`` tree into ``tmp_path``,
applies a textual mutation that reverts a class of fix (dropping a pool
initializer, renaming a route string on one side of the client/server
boundary), and asserts the corresponding rule fires. This pins the
acceptance criteria of the analyzer: the exact bug classes it was built
for cannot silently come back.
"""

import re
import shutil
from pathlib import Path

from repro.analysis.engine import discover, run_rules
from repro.analysis.rules import get_rules

REPO = Path(__file__).resolve().parents[1]

#: files that construct a ProcessPoolExecutor in the shipped tree
POOL_FILES = (
    "service/server.py",
    "simulator/runner.py",
)

_INITIALIZER_RE = re.compile(r",\s*initializer=pool_child_init")


def copy_tree(tmp_path):
    dest = tmp_path / "src" / "repro"
    shutil.copytree(REPO / "src" / "repro", dest)
    return dest


def lint(tree, rule_names):
    project = discover([tree], root=tree.parent.parent)
    return run_rules(project, get_rules(rule_names))


def mutate(tree, rel, pattern, replacement, count=0):
    path = tree / rel
    source = path.read_text()
    mutated, n = re.subn(pattern, replacement, source, count=count)
    assert n > 0, f"mutation pattern matched nothing in {rel}"
    path.write_text(mutated)
    return n


class TestPoolInitializerRegression:
    def test_unmutated_copy_is_clean(self, tmp_path):
        tree = copy_tree(tmp_path)
        assert lint(tree, ["pool-child-init"]) == []

    def test_every_pool_site_is_guarded(self, tmp_path):
        # strip initializer= from every construction site at once: one
        # finding per site, in the right file
        tree = copy_tree(tmp_path)
        expected = 0
        for rel in POOL_FILES:
            expected += mutate(tree, rel, _INITIALIZER_RE, "")
        findings = lint(tree, ["pool-child-init"])
        assert len(findings) == expected
        assert {f.rule for f in findings} == {"pool-child-init"}
        flagged_files = {f.path.split("/")[-1] for f in findings}
        assert flagged_files == {Path(rel).name for rel in POOL_FILES}

    def test_single_site_regression(self, tmp_path):
        # the PR-6 bug verbatim: one forgotten initializer on one site
        tree = copy_tree(tmp_path)
        mutate(tree, "service/server.py", _INITIALIZER_RE, "", count=1)
        findings = lint(tree, ["pool-child-init"])
        assert len(findings) == 1
        assert findings[0].path.endswith("service/server.py")

    def test_wrong_initializer_regression(self, tmp_path):
        tree = copy_tree(tmp_path)
        mutate(tree, "service/server.py",
               re.compile(r"initializer=pool_child_init"),
               "initializer=print", count=1)
        findings = lint(tree, ["pool-child-init"])
        assert len(findings) == 1
        assert "expected pool_child_init" in findings[0].message


class TestRouteDriftRegression:
    def test_unmutated_copy_is_clean(self, tmp_path):
        tree = copy_tree(tmp_path)
        assert lint(tree, ["route-conformance"]) == []

    def test_client_side_rename_fires(self, tmp_path):
        # ServiceClient starts sending POST /drain-now; the server still
        # answers POST /drain — both sides must light up
        tree = copy_tree(tmp_path)
        mutate(tree, "service/client.py",
               re.compile(re.escape('"/drain"')), '"/drain-now"')
        findings = lint(tree, ["route-conformance"])
        assert findings, "client-side route rename went undetected"
        messages = " | ".join(f.message for f in findings)
        assert "POST /drain-now" in messages
        paths = {f.path.split("/")[-1] for f in findings}
        assert "client.py" in paths

    def test_server_side_rename_fires(self, tmp_path):
        # the handler moves to POST /drainz while every client still
        # sends POST /drain
        tree = copy_tree(tmp_path)
        mutate(tree, "service/server.py",
               re.compile(re.escape('parts == ["drain"]')),
               'parts == ["drainz"]')
        findings = lint(tree, ["route-conformance"])
        assert findings, "server-side route rename went undetected"
        messages = " | ".join(f.message for f in findings)
        assert "POST /drain" in messages


class TestBlockingCallRegression:
    def test_unmutated_copy_is_clean(self, tmp_path):
        tree = copy_tree(tmp_path)
        assert lint(tree, ["async-blocking-call"]) == []

    def test_reverting_executor_offload_fires(self, tmp_path):
        # put the blocking store.close() back on the event loop
        tree = copy_tree(tmp_path)
        mutate(tree, "service/server.py",
               re.compile(
                   r"await loop\.run_in_executor\(None, self\.store\.close\)"),
               "self.store.close()")
        findings = lint(tree, ["async-blocking-call"])
        assert len(findings) == 1
        assert "ResultStore.close" in findings[0].message
