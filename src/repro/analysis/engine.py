"""AST-rule engine: module discovery, suppressions, and rule dispatch.

The engine parses every ``.py`` file under the scanned paths into a
:class:`ModuleInfo` (AST + dotted module name + inline suppressions) and
hands the resulting :class:`Project` to each :class:`Rule`. Rules come in
two scopes: ``module`` rules visit one module at a time; ``project``
rules see the whole tree at once (cross-module invariants such as stats
parity and config coherence).

Findings can be silenced inline with ``# repro: lint-ignore[rule-name]``
(comma-separated names or ``*``) on the flagged line or on a
comment-only line directly above it, or grandfathered in a committed
baseline file (:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import CallGraph

#: inline suppression marker: ``# repro: lint-ignore[rule-a,rule-b]``
SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ignore\[([^\]]+)\]")

#: finding severities, most severe first; only ``error`` affects the exit code
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str  # POSIX path relative to the project root
    line: int
    message: str
    severity: str = "error"

    def key(self) -> Tuple[str, str, str]:
        """Baseline identity — deliberately line-independent so moving
        unrelated code inside a file does not churn the baseline."""
        return (self.rule, self.path, self.message)

    def to_dict(self) -> Dict[str, object]:
        """JSON payload for ``--format json`` and the baseline file."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def render(self) -> str:
        """One-line human-readable form."""
        return f"{self.path}:{self.line}: [{self.severity}] {self.rule}: {self.message}"


class _Suppression:
    """A parsed ``lint-ignore`` comment."""

    __slots__ = ("rules", "comment_only")

    def __init__(self, rules: Set[str], comment_only: bool):
        self.rules = rules
        self.comment_only = comment_only

    def covers(self, rule: str) -> bool:
        return "*" in self.rules or rule in self.rules


class ModuleInfo:
    """One parsed source module: path, dotted name, AST, suppressions."""

    def __init__(self, path: Path, root: Path, name: str, source: str):
        self.path = path
        self.rel_path = _relpath(path, root)
        self.name = name
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions = _parse_suppressions(source)

    @property
    def is_package(self) -> bool:
        """True for a package ``__init__`` module."""
        return self.path.stem == "__init__"

    @property
    def unit(self) -> str:
        """The architecture unit: first dotted component below the root
        package (``repro.simulator.runner`` -> ``simulator``,
        ``repro.cli`` -> ``cli``, the root ``__init__`` -> ``""``)."""
        parts = self.name.split(".")
        return parts[1] if len(parts) > 1 else ""

    def suppression_line(self, rule: str, line: int) -> Optional[int]:
        """The line of the suppression covering ``rule`` at ``line``
        (the flagged line itself or a comment-only line above), or
        None. Lets the engine track which suppressions actually fire."""
        here = self.suppressions.get(line)
        if here is not None and here.covers(rule):
            return line
        above = self.suppressions.get(line - 1)
        if above is not None and above.comment_only and above.covers(rule):
            return line - 1
        return None


class Project:
    """Every module discovered under the scanned paths."""

    def __init__(self, root: Path):
        self.root = root
        self.modules: Dict[str, ModuleInfo] = {}
        self._by_rel_path: Dict[str, ModuleInfo] = {}
        #: parse failures, reported as findings of the ``parse-error`` rule
        self.errors: List[Finding] = []
        self._callgraph: Optional["CallGraph"] = None

    def callgraph(self) -> "CallGraph":
        """The project call graph, built on first use and cached (the
        concurrency rules share one graph per lint run)."""
        if self._callgraph is None:
            from repro.analysis.callgraph import build_callgraph

            self._callgraph = build_callgraph(self)
        return self._callgraph

    def add(self, module: ModuleInfo) -> None:
        self.modules[module.name] = module
        self._by_rel_path[module.rel_path] = module

    def get_by_suffix(self, suffix: str) -> Optional[ModuleInfo]:
        """Find the module named ``suffix`` or ``*.suffix`` (lets rules
        name targets like ``simulator.machine`` independently of the
        root package name, so fixture trees work too)."""
        for name, module in self.modules.items():
            if name == suffix or name.endswith("." + suffix):
                return module
        return None

    def module_at(self, rel_path: str) -> Optional[ModuleInfo]:
        return self._by_rel_path.get(rel_path)

    def iter_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            yield self.modules[name]


class Rule:
    """Base class for one lint rule.

    ``module`` scope rules implement :meth:`check_module`; ``project``
    scope rules implement :meth:`check_project`.
    """

    name: str = ""
    description: str = ""
    severity: str = "error"
    scope: str = "module"  # "module" | "project"

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    def finding(
        self,
        module: ModuleInfo,
        line: int,
        message: str,
        severity: Optional[str] = None,
    ) -> Finding:
        """Construct a finding attributed to ``module``."""
        return Finding(
            rule=self.name,
            path=module.rel_path,
            line=line,
            message=message,
            severity=severity if severity is not None else self.severity,
        )


# ----------------------------------------------------------------------
# discovery
# ----------------------------------------------------------------------
def find_project_root(paths: Sequence[Path]) -> Path:
    """Locate the repo root: the nearest ancestor of the first scanned
    path holding a ``pyproject.toml`` or ``.git``; else that path's own
    directory. Determines relative finding paths and the default
    baseline location."""
    start = paths[0].resolve() if paths else Path.cwd()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").exists() or (candidate / ".git").exists():
            return candidate
    return probe


def module_name_of(path: Path) -> str:
    """Dotted module name, walking up through ``__init__.py`` packages."""
    path = path.resolve()
    parts: List[str] = []
    if path.stem != "__init__":
        parts.append(path.stem)
    package = path.parent
    while (package / "__init__.py").exists():
        parts.append(package.name)
        package = package.parent
    return ".".join(reversed(parts)) if parts else path.stem


def discover(
    paths: Sequence[Path], root: Optional[Path] = None
) -> Project:
    """Parse every ``.py`` file under ``paths`` into a :class:`Project`."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    if root is None:
        root = find_project_root(list(paths))
    project = Project(root)
    for path in sorted(set(p.resolve() for p in files)):
        try:
            source = path.read_text()
            module = ModuleInfo(path, root, module_name_of(path), source)
        except (OSError, SyntaxError, ValueError) as exc:
            project.errors.append(
                Finding(
                    rule="parse-error",
                    path=_relpath(path, root),
                    line=getattr(exc, "lineno", None) or 1,
                    message=f"cannot parse module: {exc}",
                )
            )
            continue
        project.add(module)
    return project


# ----------------------------------------------------------------------
# rule dispatch
# ----------------------------------------------------------------------
def run_rules(
    project: Project,
    rules: Sequence[Rule],
    timings: Optional[Dict[str, float]] = None,
) -> List[Finding]:
    """Run every rule; return suppression-filtered, sorted findings.

    Suppressions that silence at least one finding are *used*; the rest
    are reported as warning-severity ``unused-suppression`` findings —
    but only when every rule the marker names actually ran (a
    ``--select`` subset must not flag markers for the rules it skipped),
    and never for ``*`` markers (what they would cover is unknowable).

    ``timings``, when given, is filled with per-rule wall seconds
    (plus ``"<discover>"`` if the caller pre-populated it).
    """
    findings: List[Finding] = list(project.errors)
    for rule in rules:
        start = time.perf_counter()
        if rule.scope == "project":
            findings.extend(rule.check_project(project))
        else:
            for module in project.iter_modules():
                findings.extend(rule.check_module(module, project))
        if timings is not None:
            timings[rule.name] = (timings.get(rule.name, 0.0)
                                  + time.perf_counter() - start)
    used: Set[Tuple[str, int]] = set()
    kept = [f for f in findings if not _suppressed(project, f, used)]
    executed = {rule.name for rule in rules} | {"parse-error"}
    unused = [f for f in _unused_suppressions(project, used, executed)
              if not _suppressed(project, f, used)]
    kept.extend(unused)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def _suppressed(
    project: Project, finding: Finding, used: Set[Tuple[str, int]]
) -> bool:
    module = project.module_at(finding.path)
    if module is None:
        return False
    line = module.suppression_line(finding.rule, finding.line)
    if line is None:
        return False
    used.add((finding.path, line))
    return True


def _unused_suppressions(
    project: Project, used: Set[Tuple[str, int]], executed: Set[str]
) -> Iterator[Finding]:
    """Warning findings for ``lint-ignore`` markers that silenced
    nothing in this run (dead suppressions must not accumulate)."""
    for module in project.iter_modules():
        for line in sorted(module.suppressions):
            suppression = module.suppressions[line]
            if (module.rel_path, line) in used:
                continue
            if "*" in suppression.rules:
                continue
            if not suppression.rules <= executed:
                continue
            yield Finding(
                rule="unused-suppression",
                path=module.rel_path,
                line=line,
                message=("suppression for %s silences nothing; "
                         "remove the stale lint-ignore marker"
                         % ", ".join(sorted(suppression.rules))),
                severity="warning",
            )


# ----------------------------------------------------------------------
# shared AST helpers used by the rule modules
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """Render an ``Attribute``/``Name`` chain as ``a.b.c`` (None if the
    chain bottoms out in anything but a plain name)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def from_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map names bound by ``from X import Y [as Z]`` to ``X.Y``."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name != "*":
                    out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def iter_functions(tree: ast.AST) -> Iterator[ast.AST]:
    """Yield every function/async-function definition, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def class_methods(classdef: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    """Yield the class's directly-defined methods."""
    for node in classdef.body:
        if isinstance(node, ast.FunctionDef):
            yield node


def find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    """Find a top-level class definition by name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def ann_field_names(classdef: ast.ClassDef) -> List[str]:
    """Names of the class body's annotated assignments (dataclass fields)."""
    return [
        node.target.id
        for node in classdef.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]


def _relpath(path: Path, root: Path) -> str:
    return Path(os.path.relpath(path.resolve(), root)).as_posix()


def _parse_suppressions(source: str) -> Dict[int, _Suppression]:
    out: Dict[int, _Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
        out[lineno] = _Suppression(rules, text.lstrip().startswith("#"))
    return out
