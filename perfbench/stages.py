"""The stage map: every ``src/repro`` module belongs to exactly one layer.

The traced run profiles simulation cells with stdlib ``cProfile`` and sums
function self time by layer. Time spent in the standard library or in
builtins (``random``, ``dict`` methods, ...) is not a layer of its own: it
is handed up the call graph, in proportion to each caller's cumulative
time, to the first caller that is in ``src/repro``. That keeps, say, the
walker's RNG draws inside ``workloads.walker``.

A module missing from both tables maps to no layer;
``perfbench/test_stages.py`` fails if any module of ``src/repro`` does, so
a module added to a package that spans several layers must be placed by
hand.
"""

from __future__ import annotations

import pstats
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

#: Packages whose every module, present or future, is one layer.
PACKAGES: Dict[str, str] = {
    "repro.branch": "branch",
    "repro.memory": "memory",
    "repro.prefetchers": "prefetchers",
    "repro.backend": "backend",
    "repro.telemetry": "telemetry",
    "repro.experiments": "experiments",
    "repro.energy": "energy",
    "repro.dash": "dash",
    "repro.analysis": "analysis",
}

#: Every module of the packages that span several layers, and the
#: top-level modules, one by one (a package's ``__init__`` included).
MODULES: Dict[str, str] = {
    "repro.__init__": "cli",
    "repro.__main__": "cli",
    "repro.cli": "cli",
    "repro.bench": "cli",
    "repro.reporting": "cli",
    "repro.reporting_svg": "cli",
    "repro.utils": "utils",
    "repro.frontend.__init__": "frontend.ftq",
    "repro.frontend.ftq": "frontend.ftq",
    "repro.frontend.prefetch_queue": "frontend.prefetch_queue",
    "repro.core.__init__": "core.pdip",
    "repro.core.pdip": "core.pdip",
    "repro.core.pdip_table": "core.pdip",
    "repro.core.fec": "core.fec",
    "repro.workloads.__init__": "workloads.generator",
    "repro.workloads.generator": "workloads.generator",
    "repro.workloads.layout": "workloads.generator",
    "repro.workloads.profiles": "workloads.generator",
    "repro.workloads.analysis": "workloads.generator",
    "repro.workloads.walker": "workloads.walker",
    "repro.workloads.trace": "workloads.trace",
    "repro.simulator.__init__": "simulator.runner",
    "repro.simulator.machine": "simulator.machine",
    "repro.simulator.fastcore": "simulator.machine",
    "repro.simulator.stats": "simulator.machine",
    "repro.simulator.probe": "simulator.machine",
    "repro.simulator.policies": "simulator.policies",
    "repro.simulator.config": "simulator.policies",
    "repro.simulator.runner": "simulator.runner",
    "repro.simulator.cache": "simulator.cache",
    "repro.simulator.manifest": "simulator.manifest",
    "repro.traces.__init__": "traces.ingest",
    "repro.traces.ingest": "traces.ingest",
    "repro.traces.registry": "traces.ingest",
    "repro.traces.convert": "traces.convert",
    "repro.traces.schema": "traces.schema",
    "repro.traces.downsample": "traces.downsample",
    "repro.traces.synthesize": "traces.synthesize",
    "repro.sweeps.__init__": "sweeps.plan",
    "repro.sweeps.spec": "sweeps.plan",
    "repro.sweeps.plan": "sweeps.plan",
    "repro.sweeps.executor": "sweeps.executor",
    "repro.service.__init__": "service.jobs",
    "repro.service.jobs": "service.jobs",
    "repro.service.store": "service.store",
    "repro.service.client": "service.client",
    "repro.service.server": "service.server",
    "repro.service.cluster": "service.cluster",
}

#: The simulator stages whose share of simulation host time is reported;
#: every other layer's share is summed into ``other``.
SIM_STAGES = (
    "branch", "frontend.ftq", "frontend.prefetch_queue", "memory",
    "prefetchers", "core.pdip", "core.fec", "backend", "workloads.walker",
    "workloads.trace", "simulator.machine", "telemetry",
)

def layer_of(module: str) -> Optional[str]:
    """The layer of a dotted module name under ``repro`` (None: unmapped)."""
    if module in MODULES:
        return MODULES[module]
    return PACKAGES.get(".".join(module.split(".")[:2]))


def module_of(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a source file under ``src_root`` (else None)."""
    try:
        rel = Path(filename).resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    # a package's __init__ keeps its name, so it maps like a submodule
    return ".".join(rel.with_suffix("").parts)


Func = Tuple[str, int, str]


def layer_seconds(stats: pstats.Stats, src_root: Path
                  ) -> Tuple[Dict[str, float], Set[str]]:
    """Self time per layer, and the ``src/repro`` modules that map to none.

    Self time of functions outside ``src/repro`` goes to their callers as
    the module docstring describes; time with no ``src/repro`` caller at
    all (the profiler's own frames) goes to ``other``.
    """
    raw = stats.stats  # type: ignore[attr-defined]
    own: Dict[Func, Optional[str]] = {}
    unmapped: Set[str] = set()
    for func in raw:
        module = module_of(func[0], src_root)
        if module is None:
            own[func] = None
            continue
        layer = layer_of(module)
        if layer is None:
            unmapped.add(module)
            layer = "other"
        own[func] = layer

    shares: Dict[Func, Dict[str, float]] = {}

    def share(func: Func, stack: Set[Func]) -> Dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        callers = raw.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(entry[3] for caller, entry in callers.items()
                     if caller not in stack)
        if weight <= 0.0:
            return {"other": 1.0}
        out: Dict[str, float] = {}
        stack.add(func)
        for caller, entry in callers.items():
            if caller in stack or entry[3] <= 0.0:
                continue
            for layer, frac in share(caller, stack).items():
                out[layer] = out.get(layer, 0.0) + frac * entry[3] / weight
        stack.discard(func)
        shares[func] = out
        return out

    totals: Dict[str, float] = {}
    for func, entry in raw.items():
        self_time = entry[2]
        if self_time <= 0.0:
            continue
        for layer, frac in share(func, set()).items():
            totals[layer] = totals.get(layer, 0.0) + self_time * frac
    return totals, unmapped
