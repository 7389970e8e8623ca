"""Telemetry import rule: hot paths see only the no-op handle.

The telemetry package has two sides (DESIGN.md §12): the zero-overhead
handle (``telemetry.handle`` — a class-level ``enabled = False`` flag
and a do-nothing ``emit``) that simulation components hold by default,
and the live machinery (recorder, registry, export, session, diff) that
drivers attach explicitly. The overhead policy only holds if per-cycle
code can never accidentally construct — or even import — the live side:
a recorder import in ``machine.py`` would put ring-buffer code on the
path the perf gate (DESIGN.md §10) times.

This rule pins every hot-path module (the same set the ``hotpath-*``
rules guard: ``frontend``/``branch``/``memory``/``core``/
``prefetchers``/``backend`` plus ``simulator.machine``) to importing
*only* ``<root>.telemetry.handle`` from the telemetry package. Importing
the bare package is also flagged — its ``__init__`` re-exports the full
live side. Drivers (``simulator.runner``, ``cli``, ``experiments``)
are unconstrained: attaching sessions is their job.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, ModuleInfo, Project, Rule
from repro.analysis.rules.hotpath import is_hot_module
from repro.analysis.rules.layering import _internal_imports

#: the one telemetry module hot paths may import (suffix under the root)
HANDLE_MODULE = "telemetry.handle"


class TelemetryNoopImportRule(Rule):
    """Hot-path modules may import only the no-op telemetry handle."""

    name = "telemetry-noop-import"
    description = (
        "hot-path modules must import only telemetry.handle (the no-op "
        "side); the live recorder/registry/session machinery is for "
        "drivers, never for per-cycle code"
    )

    def check_module(
        self, module: ModuleInfo, project: Project
    ) -> Iterable[Finding]:
        if not is_hot_module(module):
            return
        root_package = module.name.split(".", 1)[0]
        allowed = f"{root_package}.{HANDLE_MODULE}"
        for lineno, target in _internal_imports(module, root_package):
            parts = target.split(".")
            if len(parts) < 2 or parts[1] != "telemetry":
                continue
            if target == allowed:
                continue
            what = (
                "the telemetry package facade (re-exports the live "
                "recorder/registry/diff machinery)"
                if target == f"{root_package}.telemetry"
                else f"'{target}'"
            )
            yield self.finding(
                module,
                lineno,
                f"hot-path module imports {what}; per-cycle code may "
                f"import only '{allowed}' so telemetry stays "
                f"zero-overhead when off",
            )
