"""Driver for the ``repro lint`` subcommand.

Exit codes: 0 — clean (warnings do not fail the gate); 1 — at least
one error-severity finding, or a run over its ``--budget``; 2 — usage
error (bad path, unknown rule name).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from repro.analysis.engine import (
    Finding,
    discover,
    find_project_root,
    run_rules,
)
from repro.analysis.rules import ALL_RULES, get_rules

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def _print_rule_list(out: TextIO) -> None:
    width = max(len(rule.name) for rule in ALL_RULES)
    for rule in ALL_RULES:
        out.write(
            f"{rule.name:<{width}}  [{rule.severity}/{rule.scope}] "
            f"{rule.description}\n"
        )


def _gh_escape(text: str) -> str:
    """Escape a message for a GitHub Actions workflow command."""
    return (text.replace("%", "%25")
                .replace("\r", "%0D")
                .replace("\n", "%0A"))


def _gh_annotation(finding: Finding) -> str:
    level = "error" if finding.severity == "error" else "warning"
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"title={finding.rule}::{_gh_escape(finding.message)}"
    )


def _print_timings(timings: Dict[str, float], total: float,
                   out: TextIO) -> None:
    width = max(len(name) for name in timings) if timings else 4
    out.write("rule timings:\n")
    for name in sorted(timings, key=lambda n: (-timings[n], n)):
        out.write(f"  {name:<{width}}  {timings[name]:7.3f}s\n")
    out.write(f"  {'total':<{width}}  {total:7.3f}s\n")


def run_lint(
    paths: List[str],
    fmt: str = "text",
    select: Optional[List[str]] = None,
    list_rules: bool = False,
    timings: bool = False,
    budget: Optional[float] = None,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """Lint ``paths`` and report; returns the process exit code."""
    # resolved at call time so pytest capsys / redirected streams work
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if list_rules:
        _print_rule_list(out)
        return EXIT_CLEAN

    try:
        rules = get_rules(select)
    except ValueError as exc:
        err.write(f"repro lint: {exc}\n")
        return EXIT_USAGE

    scan_paths = [Path(p) for p in (paths or ["src/repro"])]
    missing = [p for p in scan_paths if not p.exists()]
    if missing:
        err.write(
            f"repro lint: no such path: {', '.join(str(p) for p in missing)}\n"
        )
        return EXIT_USAGE

    started = time.monotonic()
    root = find_project_root(scan_paths)
    project = discover(scan_paths, root=root)
    rule_timings: Dict[str, float] = {}
    findings = run_rules(project, rules, timings=rule_timings)
    elapsed = time.monotonic() - started

    errors = [f for f in findings if f.severity == "error"]
    warnings = [f for f in findings if f.severity != "error"]

    if fmt == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "summary": {
                "errors": len(errors),
                "warnings": len(warnings),
            },
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        render = _gh_annotation if fmt == "github" else Finding.render
        for finding in findings:
            out.write(render(finding) + "\n")
        out.write(f"{len(errors)} error(s), {len(warnings)} warning(s)\n")

    if timings:
        _print_timings(rule_timings, elapsed, out)
    over_budget = False
    if budget is not None and elapsed > budget:
        over_budget = True
        message = (
            f"lint took {elapsed:.1f}s, over the {budget:.0f}s budget"
        )
        if fmt == "github":
            out.write(f"::error title=lint-budget::{_gh_escape(message)}\n")
        err.write(f"repro lint: {message}\n")

    return EXIT_FINDINGS if errors or over_budget else EXIT_CLEAN
