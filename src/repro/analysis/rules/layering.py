"""Import-layering rule: enforce the architecture DAG.

Each unit (first dotted component below the root package) may import
only the units beneath it. The table encodes the intended architecture:
``utils`` at the bottom; the hardware model (``memory``/``branch``/
``frontend``/``backend``/``prefetchers``/``core``) above ``workloads``;
``simulator`` orchestrating the model; ``experiments``/``service``/
``cli`` as drivers on top. Crucially, the model and the simulator
never import the drivers (``experiments``, ``reporting``, ``service``,
``cli``), and ``workloads`` never import the simulator — workload
generation must not be able to observe simulation state, and a
simulation must not be able to observe the service that scheduled it.

``telemetry`` sits beside ``utils`` at the bottom so every layer may
hold a telemetry handle; *which* telemetry module a hot path may import
is further narrowed by the ``telemetry-noop-import`` rule (only
``telemetry.handle``, the zero-overhead no-op side — see
:mod:`repro.analysis.rules.telemetry_imports`).

``traces`` (external-trace ingestion) may build on ``workloads`` and
store traces through ``service``, but nothing in the model or the
simulator may import it: ingested benchmarks reach the simulator only
through the provider hook in ``workloads.profiles``, which loads
``repro.traces.registry`` by dotted name at lookup time — deliberately
leaving no static import edge for this rule to see.

Units absent from the table (currently only ``cli`` and the root
package's ``__init__``/``__main__`` facade) are unconstrained. Adding a
new subpackage should come with a row here.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.engine import Finding, ModuleInfo, Project, Rule

_MODEL_DEPS = frozenset(
    {"utils", "telemetry", "workloads", "branch", "memory", "frontend"}
)

#: unit -> units it may import (itself is always allowed)
ALLOWED: Dict[str, FrozenSet[str]] = {
    "utils": frozenset(),
    "telemetry": frozenset({"utils"}),
    "workloads": frozenset({"utils"}),
    "memory": frozenset({"utils", "telemetry"}),
    "backend": frozenset({"utils", "telemetry"}),
    "branch": frozenset({"utils", "telemetry", "workloads"}),
    "frontend": frozenset(
        {"utils", "telemetry", "workloads", "branch", "memory"}
    ),
    "prefetchers": _MODEL_DEPS | frozenset({"core"}),
    "core": _MODEL_DEPS | frozenset({"prefetchers"}),
    "energy": frozenset({"utils", "core"}),
    "simulator": _MODEL_DEPS | frozenset({"backend", "prefetchers", "core"}),
    "reporting": frozenset({"utils"}),
    "reporting_svg": frozenset({"utils"}),
    "analysis": frozenset({"utils"}),
    # the dashboard is pure presentation: the service embeds it, so it
    # may depend on nothing that could close a cycle back to the
    # service — only the metrics registry and utils
    "dash": frozenset({"utils", "telemetry"}),
    # the serving layer wraps the simulator (store keys, runner
    # internals); nothing in the model or the simulator may import it,
    # so a simulation can never observe the service that scheduled it
    "service": _MODEL_DEPS | frozenset(
        {"backend", "prefetchers", "core", "simulator", "dash"}
    ),
    # sweeps orchestrate the store, runner, and service client; the
    # model/simulator must never know it is being swept
    "sweeps": _MODEL_DEPS | frozenset(
        {"backend", "prefetchers", "core", "simulator", "service"}
    ),
    # trace ingestion builds workloads (layouts + replay streams) and
    # stores traces in the service store; the model and the simulator
    # must never import it — they see only the CodeLayout/walker the
    # registry hands back through workloads.profiles' provider hook
    # (loaded by dotted name precisely so no static edge exists here)
    "traces": frozenset({"utils", "telemetry", "workloads", "service"}),
    "experiments": frozenset(
        {
            "utils",
            "telemetry",
            "workloads",
            "memory",
            "branch",
            "frontend",
            "backend",
            "prefetchers",
            "core",
            "energy",
            "simulator",
            "reporting",
            "reporting_svg",
            "service",
            "sweeps",
        }
    ),
}


class LayeringRule(Rule):
    """Flag imports that violate the architecture DAG."""

    name = "layering-forbidden-import"
    description = (
        "each unit may import only the units beneath it in the "
        "architecture DAG (simulator/core never import experiments/"
        "reporting/cli; workloads never import the simulator)"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        own_unit = module.unit
        if own_unit == "" or own_unit not in ALLOWED:
            return
        allowed = ALLOWED[own_unit]
        root_package = module.name.split(".", 1)[0]
        for lineno, target in _internal_imports(module, root_package):
            target_unit = target.split(".")[1] if "." in target else ""
            if target_unit == "":
                # importing the root facade pulls in every layer at once
                yield self.finding(
                    module,
                    lineno,
                    f"'{own_unit}' imports the root package facade "
                    f"'{root_package}', which re-exports every layer; "
                    f"import the concrete module instead",
                )
            elif target_unit != own_unit and target_unit not in allowed:
                yield self.finding(
                    module,
                    lineno,
                    f"'{own_unit}' must not import '{target_unit}' "
                    f"(allowed: {', '.join(sorted(allowed)) or 'nothing'})",
                )


def _internal_imports(
    module: ModuleInfo, root_package: str
) -> List[Tuple[int, str]]:
    """(line, absolute dotted target) for imports within the root package."""
    out: List[Tuple[int, str]] = []
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == root_package:
                    out.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level, node.module)
                if base:
                    out.append((node.lineno, base))
            elif node.module and node.module.split(".")[0] == root_package:
                out.append((node.lineno, node.module))
    return out


def _resolve_relative(module: ModuleInfo, level: int, target: Optional[str]) -> str:
    """Absolute dotted name of a relative import's base package."""
    parts = module.name.split(".")
    # level 1 means the module's own package: all parts for a package
    # __init__, all but the last for a plain module; each extra level
    # climbs one package higher
    own = parts if module.is_package else parts[:-1]
    base = own[: len(own) - (level - 1)] if len(own) >= level - 1 else []
    if target:
        base = base + str(target).split(".")
    return ".".join(base)
