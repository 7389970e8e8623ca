"""Static analysis for the reproduction's correctness invariants.

``repro lint`` (see :mod:`repro.analysis.cli`) runs an AST-rule engine
(:mod:`repro.analysis.engine`) over the source tree and enforces the
properties the test suite can only spot-check:

* **determinism** — no unseeded RNG draws, wall-clock reads, or
  unordered-set iteration in stat-affecting modules;
* **import layering** — the architecture DAG (simulator never imports
  experiments/reporting/CLI, workloads never import the simulator);
* **hot-path hygiene** — per-event record classes declare ``__slots__``
  and never grow attributes outside ``__init__``;
* **stats parity** — counters mutated on ``Machine``'s per-cycle path
  are batch-applied in ``_fast_forward`` (the bit-identical
  event-horizon invariant, DESIGN.md §10);
* **config coherence** — config fields read anywhere exist on the
  config dataclasses, and every declared field is actually consumed.

The package deliberately imports nothing from the simulator: it parses
the tree, it never executes it.
"""

from repro.analysis.engine import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    discover,
    run_rules,
)
from repro.analysis.rules import ALL_RULES, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "discover",
    "get_rules",
    "run_rules",
]
