"""Stats-parity rule: per-cycle counters must survive event-horizon skips.

The event-horizon fast path (DESIGN.md §10) replaces runs of provably
idle cycles with one arithmetic batch update in
``Machine._fast_forward``. The repo's core guarantee — ``SimulationStats``
bit-identical with skipping on or off — therefore requires that every
stats counter mutated on the per-cycle path (``Machine.run``'s inlined
loop, ``Machine.step``, ``Machine._decode``) is either:

* **batch-applied** in ``_fast_forward`` (cycle-proportional counters:
  ``cycles``, ``slots_total``, ``slots_frontend_bound``,
  ``decode_starvation_cycles``), or
* **event-gated** — provably zero during idle cycles because it only
  moves when decode delivers, the back end retires, or the back end
  blocks (``instructions``, ``slots_retiring``,
  ``slots_bad_speculation``, ``slots_backend_bound``), declared in
  :data:`EVENT_GATED_COUNTERS`.

A counter added to the per-cycle path that is neither batch-applied nor
declared event-gated is exactly the bug class this rule exists for: it
would silently diverge under skipping while every example-based test
that happens to avoid idle stretches stays green. The reverse direction
is checked too — a counter batch-applied in ``_fast_forward`` with no
per-cycle counterpart is stale and equally suspect.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.engine import (
    Finding,
    Project,
    Rule,
    ann_field_names,
    find_class,
)

#: module/class anatomy the rule inspects (suffix-matched so fixture
#: trees with any root package name work)
MACHINE_MODULE_SUFFIX = "simulator.machine"
MACHINE_CLASS = "Machine"
STATS_MODULE_SUFFIX = "simulator.stats"
STATS_CLASS = "SimulationStats"

#: the per-cycle path: functions executed every non-skipped cycle
PER_CYCLE_FUNCS = ("run", "step", "_decode")
FAST_FORWARD_FUNC = "_fast_forward"

#: counters that provably cannot move during an idle cycle: decode
#: delivered nothing (slots_retiring / slots_bad_speculation), the back
#: end was not the blocker (slots_backend_bound), and nothing retired
#: (instructions). Adding a counter here asserts that invariant — the
#: fast path does not need to (and must not) batch-apply it.
EVENT_GATED_COUNTERS = frozenset(
    {
        "instructions",
        "slots_retiring",
        "slots_bad_speculation",
        "slots_backend_bound",
    }
)

#: non-counter fields of SimulationStats (never subject to parity)
NON_COUNTER_FIELDS = frozenset({"extra"})


class StatsParityRule(Rule):
    """Counters on the per-cycle path must be handled by ``_fast_forward``."""

    name = "stats-parity-fast-forward"
    description = (
        "every SimulationStats counter mutated on Machine's per-cycle "
        "path must be batch-applied in _fast_forward or declared "
        "event-gated (bit-identical event-horizon invariant)"
    )
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        stats_module = project.get_by_suffix(STATS_MODULE_SUFFIX)
        if stats_module is None:
            return  # linting a subtree without the simulator: nothing to do
        stats_class = find_class(stats_module.tree, STATS_CLASS)
        if stats_class is None:
            return
        counters = {
            name
            for name in ann_field_names(stats_class)
            if name not in NON_COUNTER_FIELDS
        }
        machine_module = project.get_by_suffix(MACHINE_MODULE_SUFFIX)
        if machine_module is None:
            return
        machine_class = find_class(machine_module.tree, MACHINE_CLASS)
        if machine_class is None:
            return
        methods = {
            node.name: node
            for node in machine_class.body
            if isinstance(node, ast.FunctionDef)
        }

        per_cycle: Dict[str, Tuple[str, int]] = {}  # counter -> (func, line)
        for func_name in PER_CYCLE_FUNCS:
            method = methods.get(func_name)
            if method is None:
                continue
            for counter, lineno in _stats_mutations(method, counters):
                per_cycle.setdefault(counter, (func_name, lineno))

        fast_forward = methods.get(FAST_FORWARD_FUNC)
        if fast_forward is None:
            if per_cycle:
                yield self.finding(
                    machine_module,
                    machine_class.lineno,
                    f"'{MACHINE_CLASS}' mutates stats counters on the "
                    f"per-cycle path but defines no {FAST_FORWARD_FUNC}()",
                )
            return
        batched: Dict[str, int] = {}
        for counter, lineno in _stats_mutations(fast_forward, counters):
            batched.setdefault(counter, lineno)

        for counter in sorted(per_cycle):
            if counter in EVENT_GATED_COUNTERS or counter in batched:
                continue
            func_name, lineno = per_cycle[counter]
            yield self.finding(
                machine_module,
                lineno,
                f"counter '{counter}' is mutated on the per-cycle path "
                f"({func_name}()) but not batch-applied in "
                f"{FAST_FORWARD_FUNC}(); event-horizon skipping would "
                f"silently diverge — batch it there, or declare it "
                f"event-gated in the stats-parity rule if it provably "
                f"cannot move during an idle cycle",
            )
        for counter in sorted(batched):
            if counter not in per_cycle:
                yield self.finding(
                    machine_module,
                    batched[counter],
                    f"counter '{counter}' is batch-applied in "
                    f"{FAST_FORWARD_FUNC}() but never mutated on the "
                    f"per-cycle path ({', '.join(PER_CYCLE_FUNCS)}); the "
                    f"batch update is stale",
                )


def _stats_mutations(
    func: ast.FunctionDef, counters: Set[str]
) -> List[Tuple[str, int]]:
    """(counter, line) for every stats-counter store in ``func``.

    Detects ``self.stats.X`` directly and through local aliases bound
    with ``st = self.stats`` (the hot loop's idiom).
    """
    aliases: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _is_self_stats(node.value)
        ):
            aliases.add(node.targets[0].id)
    out: List[Tuple[str, int]] = []
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = list(node.targets)
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = target.value
            is_stats = _is_self_stats(base) or (
                isinstance(base, ast.Name) and base.id in aliases
            )
            if is_stats and target.attr in counters:
                out.append((target.attr, node.lineno))
    return out


def _is_self_stats(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "stats"
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )
