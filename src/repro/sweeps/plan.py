"""Sweep compiler: expand a spec into a deterministic plan of cells.

The compiler is pure: same spec → same ordered cell list → same plan
digest, on every machine, forever (the digest is pinned by golden
tests). Each cell carries two identities:

* ``key`` — the run digest from :meth:`ResultStore.cell_key`, i.e. the
  same content-addressed identity the cache, store, and service use.
  This is what makes execution *incremental*: a cell whose key is
  already in the store is warm and never re-simulated, and editing one
  config field changes only the keys of the cells it touches — the
  dirty set — leaving every other cell warm.
* the *plan digest* — a hash of the expanded cell tuples **excluding**
  run keys. It identifies the sweep's shape for resumable state files
  and the dashboard, and stays stable across simulator retunes that
  would shift run keys (so the digest goldens don't churn).

Expansion order is the canonical axis order (:data:`AXIS_NAMES`):
benchmark outermost, then policy, config, seed, instructions, warmup;
derived ``[[cells]]`` append after the grid. Filters apply before key
computation; duplicate keys keep the first occurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.service.jobs import config_from_payload
from repro.simulator.cache import ResultStore
from repro.sweeps.spec import ConfigVariant, SweepSpec
from repro.utils import freeze, json_digest

__all__ = ["PlanCell", "SweepPlan", "compile_spec"]


@dataclass(frozen=True)
class PlanCell:
    """One fully-resolved simulation cell of a compiled sweep."""

    benchmark: str
    policy: str
    seed: int
    instructions: int
    warmup: int
    config: Optional[Dict[str, Any]]  # MachineConfig overrides, or None
    config_label: str
    key: str  # canonical run digest (ResultStore.cell_key)

    def describe(self) -> str:
        """Short human label: ``cassandra/pdip_44[btb_4k] seed=2``."""
        label = "" if self.config_label == "default" else "[%s]" % self.config_label
        return "%s/%s%s seed=%d" % (self.benchmark, self.policy, label, self.seed)

    def payload(self) -> Dict[str, Any]:
        """Submission payload for the service / report row (no key)."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy,
            "seed": self.seed,
            "instructions": self.instructions,
            "warmup": self.warmup,
            "config": dict(self.config) if self.config else None,
            "config_label": self.config_label,
        }


@dataclass(frozen=True)
class SweepPlan:
    """A compiled sweep: ordered unique cells plus the shape digest."""

    name: str
    digest: str
    cells: Tuple[PlanCell, ...]

    @property
    def benchmarks(self) -> Tuple[str, ...]:
        return _ordered_unique(c.benchmark for c in self.cells)

    @property
    def policies(self) -> Tuple[str, ...]:
        return _ordered_unique(c.policy for c in self.cells)

    @property
    def config_labels(self) -> Tuple[str, ...]:
        return _ordered_unique(c.config_label for c in self.cells)

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "plan_digest": self.digest,
            "cells": len(self.cells),
            "benchmarks": list(self.benchmarks),
            "policies": list(self.policies),
            "configs": list(self.config_labels),
        }


def _ordered_unique(items: Iterable[str]) -> Tuple[str, ...]:
    seen: Dict[str, None] = {}
    for item in items:
        seen.setdefault(item)
    return tuple(seen)


def _cell_value(cell: Mapping[str, Any], key: str) -> Any:
    """Resolve a filter key against an expanded (pre-key) cell dict."""
    if key == "config":
        return cell["config"].label
    if key.startswith("config."):
        return cell["config"].overrides.get(key[len("config."):])
    return cell.get(key)


def _matches(cell: Mapping[str, Any], rule: Mapping[str, Any]) -> bool:
    for key, want in rule.items():
        have = _cell_value(cell, key)
        allowed = want if isinstance(want, (list, tuple)) else (want,)
        if have not in allowed:
            return False
    return True


def _keep(cell: Mapping[str, Any], spec: SweepSpec) -> bool:
    if any(_matches(cell, rule) for rule in spec.exclude):
        return False
    if spec.include:
        return any(_matches(cell, rule) for rule in spec.include)
    return True


def _expand(spec: SweepSpec) -> List[Dict[str, Any]]:
    """Grid expansion in canonical axis order, then derived cells."""
    raw: List[Dict[str, Any]] = []
    for benchmark in spec.benchmarks:
        for policy in spec.policies:
            for config in spec.configs:
                for seed in spec.seeds:
                    for instructions in spec.instructions:
                        for warmup in spec.warmups:
                            raw.append({
                                "benchmark": benchmark,
                                "policy": policy,
                                "config": config,
                                "seed": seed,
                                "instructions": instructions,
                                "warmup": warmup,
                            })
    raw.extend(dict(cell) for cell in spec.cells)
    return [cell for cell in raw if _keep(cell, spec)]


def compile_spec(spec: SweepSpec) -> SweepPlan:
    """Compile a validated spec into its deterministic plan."""
    cells: List[PlanCell] = []
    seen_keys: Dict[str, None] = {}
    shape_rows: List[Dict[str, Any]] = []
    for cell in _expand(spec):
        config: ConfigVariant = cell["config"]
        key = ResultStore.cell_key(
            cell["benchmark"], cell["policy"],
            instructions=cell["instructions"], warmup=cell["warmup"],
            seed=cell["seed"], config=config_from_payload(config.as_payload()))
        if key in seen_keys:
            continue
        seen_keys.setdefault(key)
        # frozen as built: the other axis values are scalars
        shape_rows.append({
            "benchmark": cell["benchmark"],
            "policy": cell["policy"],
            "seed": cell["seed"],
            "instructions": cell["instructions"],
            "warmup": cell["warmup"],
            "config": freeze(config.overrides or None),
        })
        cells.append(PlanCell(
            benchmark=cell["benchmark"], policy=cell["policy"],
            seed=cell["seed"], instructions=cell["instructions"],
            warmup=cell["warmup"], config=config.as_payload(),
            config_label=config.label, key=key))
    # canonical_digest(("sweep-plan", 1, name, rows)), frozen only once
    digest = json_digest(json.dumps(["sweep-plan", 1, spec.name, shape_rows],
                                    sort_keys=True))
    return SweepPlan(name=spec.name, digest=digest, cells=tuple(cells))
