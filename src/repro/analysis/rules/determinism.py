"""Determinism rules: no entropy sources on stat-affecting paths.

Every stochastic component of the simulator draws from a named, seeded
stream (``repro.utils.derive_rng``); reproduction fidelity depends on no
module reintroducing the global ``random`` state, wall-clock reads, or
hash-order iteration. These rules apply only to the stat-affecting
units (``simulator``, ``core``, ``frontend``, ``branch``, ``memory``,
``prefetchers``, ``backend``), whose stats the goldens and
``GOLDEN_WORK`` pin; reporting and experiments drivers may read clocks.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
    from_import_map,
)

#: units whose code can perturb ``SimulationStats``
STAT_AFFECTING_UNITS = frozenset(
    {"simulator", "core", "frontend", "branch", "memory", "prefetchers", "backend"}
)

#: dotted suffixes of banned wall-clock / entropy reads
WALLCLOCK_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: ``random.<fn>`` module-level functions that use the shared global RNG
GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "randbytes",
        "getrandbits",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "seed",
    }
)


def _stat_affecting(module: ModuleInfo) -> bool:
    return module.unit in STAT_AFFECTING_UNITS


def _resolved_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Dotted name of a reference, with ``from X import Y`` resolved."""
    name = dotted_name(node)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in imports:
        return imports[head] + ("." + rest if rest else "")
    return name


def _matches_banned(name: str, banned: frozenset) -> Optional[str]:
    for entry in banned:
        if name == entry or name.endswith("." + entry):
            return entry
    return None


class WallClockRule(Rule):
    """Ban wall-clock and OS-entropy reads in stat-affecting modules."""

    name = "determinism-wallclock"
    description = (
        "time/datetime/os.urandom/uuid reads are banned in stat-affecting "
        "modules; stats must be a pure function of (layout, profile, seed)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        if not _stat_affecting(module):
            return
        imports = from_import_map(module.tree)
        for node in ast.walk(module.tree):
            # flag the *maximal* reference chain once, call or not (a bare
            # ``default_factory=time.time`` is as nondeterministic as a call)
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = _resolved_name(node, imports)
            if name is None:
                continue
            hit = _matches_banned(name, WALLCLOCK_BANNED)
            if hit is None:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"reference to wall-clock/entropy source '{hit}'; simulation "
                f"state must derive only from the run's seed",
            )


class UnseededRngRule(Rule):
    """Ban the global ``random`` module state and unseeded ``Random()``."""

    name = "determinism-unseeded-rng"
    description = (
        "module-level random.* draws and unseeded random.Random() are "
        "banned; derive a named stream via repro.utils.derive_rng"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        if not _stat_affecting(module):
            return
        imports = from_import_map(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _resolved_name(node.func, imports)
            if name is None:
                continue
            if name == "random.Random" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node.lineno,
                    "unseeded random.Random() (seeds from OS entropy); pass "
                    "an explicit seed or use repro.utils.derive_rng",
                )
            elif name.startswith("random.") and name[7:] in GLOBAL_RNG_FUNCS:
                yield self.finding(
                    module,
                    node.lineno,
                    f"'{name}()' uses the shared global RNG; draw from a "
                    f"seeded stream via repro.utils.derive_rng instead",
                )


def _is_set_expr(node: ast.AST, local_sets: Set[str], attr_sets: Set[str]) -> bool:
    """Syntactically set-typed: literal/comprehension/constructor, a local
    tracked as a set, or a ``self.<attr>`` the class tracks as a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in attr_sets
    ):
        return True
    return False


def _annotation_is_set(annotation: ast.AST) -> bool:
    name = dotted_name(
        annotation.value if isinstance(annotation, ast.Subscript) else annotation
    )
    if name is None:
        return False
    leaf = name.rsplit(".", 1)[-1]
    return leaf in ("Set", "set", "FrozenSet", "frozenset", "MutableSet", "AbstractSet")


def _set_attrs_of_class(classdef: ast.ClassDef) -> Set[str]:
    """``self.<attr>`` names a class's ``__init__`` binds to sets."""
    attrs: Set[str] = set()
    for method in classdef.body:
        if not isinstance(method, ast.FunctionDef) or method.name != "__init__":
            continue
        for node in ast.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if _annotation_is_set(node.annotation):
                    value = None  # annotation alone decides
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
                    continue
            if (
                target is not None
                and value is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and _is_set_expr(value, set(), set())
            ):
                attrs.add(target.attr)
    return attrs


class SetIterationRule(Rule):
    """Flag iteration over sets without ``sorted()`` in stat modules.

    Set iteration order depends on insertion history and (for strings)
    ``PYTHONHASHSEED``; any stat computed from it is silently
    irreproducible. ``sorted(s)``/``min``/``max``/``sum`` consumers are
    naturally exempt (the flagged expression is the loop iterable
    itself), as are set-builder comprehensions (``{f(x) for x in s}``),
    whose result is order-free.
    """

    name = "determinism-set-iteration"
    description = (
        "iterating a set in a stat-affecting module without sorted() "
        "makes stats depend on hash/insertion order"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        if not _stat_affecting(module):
            return
        yield from self._scan(
            module, module.tree, self._local_sets(module.tree), set()
        )

    def _local_sets(self, scope: ast.AST) -> Set[str]:
        """Names bound to set expressions anywhere inside ``scope``."""
        names: Set[str] = set()
        for node in ast.walk(scope):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_set_expr(node.value, set(), set())
            ):
                names.add(node.targets[0].id)
        return names

    def _scan(
        self,
        module: ModuleInfo,
        node: ast.AST,
        local_sets: Set[str],
        attr_sets: Set[str],
    ) -> Iterator[Finding]:
        iterables: List[Tuple[int, ast.expr]] = []
        if isinstance(node, ast.For):
            iterables.append((node.lineno, node.iter))
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            iterables.extend((node.lineno, gen.iter) for gen in node.generators)
        for lineno, iterable in iterables:
            if _is_set_expr(iterable, local_sets, attr_sets):
                yield self.finding(
                    module,
                    lineno,
                    "iteration over a set; wrap in sorted() (or iterate a "
                    "deterministically-ordered structure) so results do not "
                    "depend on hash order",
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._scan(
                    module, child, set(), _set_attrs_of_class(child)
                )
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(
                    module, child, self._local_sets(child), attr_sets
                )
            else:
                yield from self._scan(module, child, local_sets, attr_sets)
