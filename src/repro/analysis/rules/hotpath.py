"""Hot-path hygiene rules: ``__slots__`` on per-event record classes.

The simulator allocates record objects (FTQ entries, cache line states,
BTB/TLB entries, FEC events) millions of times per run; a missing
``__slots__`` costs a per-instance ``__dict__`` and slower attribute
access on exactly the paths the perf gate times (DESIGN.md §10).

Two rules:

* ``hotpath-missing-slots`` — a class defined in a hot-path module and
  *allocated inside a method other than* ``__init__`` (i.e. per event,
  not once at construction) must declare ``__slots__`` — either
  literally or via the ``@dataclass(**SLOTTED)`` /
  ``@dataclass(slots=True)`` idiom. One-shot manager objects built in
  ``__init__`` (predictors, caches, the machine itself) are exempt:
  their per-instance dict is irrelevant and slotting them would break
  ad-hoc attachment in tests.
* ``hotpath-attr-outside-init`` — a slotted class must not assign new
  ``self`` attributes outside ``__init__``/``__post_init__``; on 3.10+
  that raises at runtime, and on 3.9 (where ``SLOTTED`` degrades to a
  plain dataclass) it silently grows the instance.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    class_methods,
)

#: units whose modules are hot-path (per-cycle or per-event code)
HOT_UNITS = frozenset(
    {"frontend", "branch", "memory", "core", "prefetchers", "backend"}
)

#: extra hot-path modules outside those units
HOT_MODULE_SUFFIXES = ("simulator.machine",)

#: base classes that exempt a class from the slots requirement
EXEMPT_BASES = frozenset(
    {
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Exception",
        "BaseException",
        "Protocol",
        "NamedTuple",
        "TypedDict",
        "ABC",
    }
)

_INIT_METHODS = ("__init__", "__post_init__")


def is_hot_module(module: ModuleInfo) -> bool:
    """True for modules on the simulator's per-cycle/per-event paths."""
    if module.unit in HOT_UNITS:
        return True
    return any(
        module.name == suffix or module.name.endswith("." + suffix)
        for suffix in HOT_MODULE_SUFFIXES
    )


def class_is_slotted(classdef: ast.ClassDef) -> bool:
    """Literal ``__slots__`` or the slotted-dataclass decorator idiom."""
    for node in classdef.body:
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in node.targets
            ):
                return True
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == "__slots__"
        ):
            return True
    for deco in classdef.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        for keyword in deco.keywords:
            if keyword.arg == "slots" and (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
            if keyword.arg is None and isinstance(keyword.value, ast.Name):
                # ``@dataclass(**SLOTTED)``: slots on 3.10+, the sanctioned
                # downgrade path on 3.9
                if keyword.value.id == "SLOTTED":
                    return True
    return False


def _is_exempt(classdef: ast.ClassDef) -> bool:
    for base in classdef.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else None
        )
        if name in EXEMPT_BASES:
            return True
    return False


class _AllocSiteVisitor(ast.NodeVisitor):
    """Record class-name calls made outside ``__init__``/``__post_init__``."""

    def __init__(self, class_names: Set[str]):
        self.class_names = class_names
        self.sites: Dict[str, Tuple[str, int]] = {}  # class -> (func, line)
        self._func_stack: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in self.class_names
            and self._func_stack
            and self._func_stack[-1] not in _INIT_METHODS
            and node.func.id not in self.sites
        ):
            self.sites[node.func.id] = (self._func_stack[-1], node.lineno)
        self.generic_visit(node)


class MissingSlotsRule(Rule):
    """Per-event record classes in hot-path modules must be slotted."""

    name = "hotpath-missing-slots"
    description = (
        "a class allocated per event in a hot-path module must declare "
        "__slots__ (or use @dataclass(**SLOTTED))"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        # pass 1: every class defined in a hot module, with slots status
        registry: Dict[str, Tuple[ModuleInfo, ast.ClassDef, bool]] = {}
        hot_modules = [m for m in project.iter_modules() if is_hot_module(m)]
        for module in hot_modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and not _is_exempt(node):
                    registry[node.name] = (module, node, class_is_slotted(node))
        unslotted = {name for name, info in registry.items() if not info[2]}
        if not unslotted:
            return
        # pass 2: allocation sites of those classes outside __init__
        for module in hot_modules:
            visitor = _AllocSiteVisitor(unslotted)
            visitor.visit(module.tree)
            for class_name, (func, lineno) in sorted(visitor.sites.items()):
                def_module, classdef, _ = registry[class_name]
                yield self.finding(
                    def_module,
                    classdef.lineno,
                    f"class '{class_name}' is allocated per event "
                    f"({module.rel_path}:{lineno} in {func}()) but declares "
                    f"no __slots__; add __slots__ or @dataclass(**SLOTTED)",
                )
                unslotted.discard(class_name)


class AttrOutsideInitRule(Rule):
    """Slotted classes must not grow attributes outside ``__init__``."""

    name = "hotpath-attr-outside-init"
    description = (
        "a slotted class must assign every attribute in __init__/"
        "__post_init__; late assignments raise under __slots__ on 3.10+"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        if not is_hot_module(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and class_is_slotted(node):
                yield from self._check_class(module, node)

    def _check_class(
        self, module: ModuleInfo, classdef: ast.ClassDef
    ) -> Iterable[Finding]:
        declared = self._declared_attrs(classdef)
        if declared is None:
            return
        for method in class_methods(classdef):
            if method.name in _INIT_METHODS:
                continue
            for target, lineno in _self_assignments(method):
                if target not in declared:
                    yield self.finding(
                        module,
                        lineno,
                        f"'{classdef.name}.{method.name}' assigns "
                        f"'self.{target}', which is not declared in "
                        f"__slots__/__init__; slotted instances must not "
                        f"grow attributes after construction",
                    )

    def _declared_attrs(self, classdef: ast.ClassDef) -> Optional[Set[str]]:
        declared: Set[str] = set()
        for node in classdef.body:
            if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                declared.add(node.target.id)  # dataclass fields
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__slots__":
                            literal = _slots_literal(node.value)
                            if literal is None:
                                return None  # dynamic __slots__: skip class
                            declared.update(literal)
                        else:
                            declared.add(target.id)
        for method in class_methods(classdef):
            if method.name in _INIT_METHODS:
                declared.update(t for t, _ in _self_assignments(method))
        return declared


def _slots_literal(node: ast.expr) -> Optional[List[str]]:
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    names: List[str] = []
    for element in node.elts:
        if not (
            isinstance(element, ast.Constant) and isinstance(element.value, str)
        ):
            return None
        names.append(element.value)
    return names


def _self_assignments(func: ast.FunctionDef) -> List[Tuple[str, int]]:
    """(attribute, line) for every plain ``self.x = ...`` in ``func``."""
    out: List[Tuple[str, int]] = []
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                out.append((target.attr, node.lineno))
    return out
