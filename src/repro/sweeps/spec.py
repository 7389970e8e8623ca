"""Declarative sweep specifications (TOML/JSON grids over the run space).

A *sweep spec* names the experiment once — axes of benchmarks, policies,
config overrides, seeds and budgets — instead of encoding it in a bespoke
drive loop per figure. The spec is pure data: loading one performs no
simulation, touches no store, and is safe to parse on any machine. The
compiler (:mod:`repro.sweeps.plan`) expands it into the deterministic
cell list that the executor resolves incrementally.

Spec shape (TOML shown; the JSON form is the same object tree)::

    name = "btb_sweep"

    [axes]
    benchmark = ["cassandra", "tomcat"]      # or "all"
    policy = ["baseline", "pdip_44"]
    seed = [1, 2]                            # optional, default [defaults.seed]

    [[axes.config]]                          # optional config axis: each
    label = "btb_4k"                         # entry is a MachineConfig
    btb_entries = 4096                       # override dict (validated)

    [[axes.config]]
    label = "btb_64k"
    btb_entries = 65536

    [defaults]
    instructions = 400000                    # per-cell budget defaults
    warmup = 120000
    seed = 1

    [[exclude]]                              # drop matching cells
    benchmark = "tomcat"
    policy = "baseline"

    [[include]]                              # when present: keep only
    policy = ["baseline", "pdip_44"]         # cells matching some rule

    [[cells]]                                # derived cells appended
    benchmark = "noop"                       # verbatim after expansion
    policy = "pdip_44"
    instructions = 50000

Filter rules match on axis names (``benchmark``, ``policy``, ``seed``,
``instructions``, ``warmup``), on ``config`` (the config *label*), or on
``config.<field>`` (an explicit override value). Values may be scalars
or lists (list = any-of). A rule matches a cell when every key matches.

Validation is eager: unknown benchmarks/policies/config fields raise
:class:`SweepSpecError` at parse time with the offending path, never at
cell-execution time half way through a grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.simulator.config import config_from_payload
from repro.simulator.policies import POLICIES
from repro.workloads import BENCHMARK_NAMES, known_benchmark_names

__all__ = [
    "AXIS_NAMES",
    "ConfigVariant",
    "SweepSpec",
    "SweepSpecError",
    "load_spec",
    "parse_spec",
]

#: Canonical axis expansion order (outermost first). This order is part
#: of the plan-digest contract: reordering it would renumber every cell.
AXIS_NAMES = ("benchmark", "policy", "config", "seed", "instructions", "warmup")

_SCALAR_AXES = ("benchmark", "policy", "seed", "instructions", "warmup")
_DEFAULTS = {"seed": 1, "instructions": 400_000, "warmup": 120_000}


class SweepSpecError(ValueError):
    """A sweep spec failed validation; message carries the spec path."""


@dataclass(frozen=True)
class ConfigVariant:
    """One entry of the config axis: a label plus override fields."""

    label: str
    overrides: Dict[str, Any] = field(default_factory=dict)

    def as_payload(self) -> Optional[Dict[str, Any]]:
        """Override dict for job payloads (``None`` for the default)."""
        return dict(self.overrides) if self.overrides else None


#: The implicit config axis when a spec declares none: stock MachineConfig.
DEFAULT_CONFIG = ConfigVariant(label="default")


@dataclass(frozen=True)
class SweepSpec:
    """A parsed, validated sweep specification (pure data)."""

    name: str
    benchmarks: Tuple[str, ...]
    policies: Tuple[str, ...]
    configs: Tuple[ConfigVariant, ...]
    seeds: Tuple[int, ...]
    instructions: Tuple[int, ...]
    warmups: Tuple[int, ...]
    include: Tuple[Dict[str, Any], ...] = ()
    exclude: Tuple[Dict[str, Any], ...] = ()
    cells: Tuple[Dict[str, Any], ...] = ()

    @property
    def grid_size(self) -> int:
        """Upper bound on expanded cells (before filters, plus derived)."""
        return (len(self.benchmarks) * len(self.policies) * len(self.configs)
                * len(self.seeds) * len(self.instructions) * len(self.warmups)
                + len(self.cells))


def _fail(path: str, message: str) -> "SweepSpecError":
    return SweepSpecError("%s: %s" % (path, message))


def _as_list(value: Any) -> List[Any]:
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def _int_list(value: Any, path: str, minimum: int = 0) -> Tuple[int, ...]:
    out = []
    for i, item in enumerate(_as_list(value)):
        if isinstance(item, bool) or not isinstance(item, int):
            raise _fail("%s[%d]" % (path, i), "expected an integer, got %r" % (item,))
        if item < minimum:
            raise _fail("%s[%d]" % (path, i), "must be >= %d, got %d" % (minimum, item))
        out.append(item)
    if not out:
        raise _fail(path, "axis is empty")
    return tuple(out)


def _benchmark_axis(value: Any, path: str) -> Tuple[str, ...]:
    if value == "all":
        # deliberately the synthetic catalog only: keeping "all" stable
        # preserves plan digests when trace benchmarks come and go
        return tuple(BENCHMARK_NAMES)
    names = []
    known = known_benchmark_names()
    for i, item in enumerate(_as_list(value)):
        if item not in known:
            raise _fail("%s[%d]" % (path, i),
                        "unknown benchmark %r; valid: %s"
                        % (item, ", ".join(known)))
        names.append(item)
    if not names:
        raise _fail(path, "axis is empty")
    return tuple(names)


def _policy_axis(value: Any, path: str) -> Tuple[str, ...]:
    names = []
    for i, item in enumerate(_as_list(value)):
        if item not in POLICIES:
            raise _fail("%s[%d]" % (path, i),
                        "unknown policy %r; valid: %s"
                        % (item, ", ".join(sorted(POLICIES))))
        names.append(item)
    if not names:
        raise _fail(path, "axis is empty")
    return tuple(names)


def _config_axis(value: Any, path: str) -> Tuple[ConfigVariant, ...]:
    variants = []
    seen = set()
    for i, entry in enumerate(_as_list(value)):
        where = "%s[%d]" % (path, i)
        if not isinstance(entry, Mapping):
            raise _fail(where, "expected a table of MachineConfig overrides")
        overrides = {k: v for k, v in entry.items() if k != "label"}
        label = str(entry.get("label") or "") or _config_label(overrides)
        if label in seen:
            raise _fail(where, "duplicate config label %r" % label)
        seen.add(label)
        try:
            config_from_payload(dict(overrides) or None)
        except (ValueError, TypeError) as exc:
            raise _fail(where, "invalid config overrides: %s" % exc) from exc
        variants.append(ConfigVariant(label=label, overrides=dict(overrides)))
    if not variants:
        raise _fail(path, "axis is empty")
    return tuple(variants)


def _config_label(overrides: Mapping[str, Any]) -> str:
    """Deterministic label for an unlabeled config variant."""
    if not overrides:
        return "default"
    return "_".join("%s-%s" % (k, overrides[k]) for k in sorted(overrides))


def _filter_rules(value: Any, path: str) -> Tuple[Dict[str, Any], ...]:
    rules = []
    for i, rule in enumerate(_as_list(value)):
        where = "%s[%d]" % (path, i)
        if not isinstance(rule, Mapping) or not rule:
            raise _fail(where, "expected a non-empty table of axis matches")
        for key in rule:
            if key in _SCALAR_AXES or key == "config" or key.startswith("config."):
                continue
            raise _fail(where, "unknown filter key %r (axes: %s, config, "
                        "config.<field>)" % (key, ", ".join(_SCALAR_AXES)))
        rules.append({k: v for k, v in rule.items()})
    return tuple(rules)


def _derived_cells(value: Any, spec_defaults: Dict[str, Any],
                   path: str) -> Tuple[Dict[str, Any], ...]:
    cells = []
    for i, entry in enumerate(_as_list(value)):
        where = "%s[%d]" % (path, i)
        if not isinstance(entry, Mapping):
            raise _fail(where, "expected a table")
        unknown = set(entry) - set(_SCALAR_AXES) - {"config"}
        if unknown:
            raise _fail(where, "unknown cell keys: %s" % ", ".join(sorted(unknown)))
        if "benchmark" not in entry or "policy" not in entry:
            raise _fail(where, "derived cells need explicit benchmark and policy")
        cell = dict(spec_defaults)
        cell.update(entry)
        cell["benchmark"] = _benchmark_axis(cell["benchmark"], where)[0]
        cell["policy"] = _policy_axis(cell["policy"], where)[0]
        for axis in ("seed", "instructions", "warmup"):
            cell[axis] = _int_list(cell[axis], "%s.%s" % (where, axis))[0]
        raw = cell.get("config")
        if isinstance(raw, ConfigVariant):
            cell["config"] = raw
        elif raw is None:
            cell["config"] = DEFAULT_CONFIG
        else:
            cell["config"] = _config_axis(raw, "%s.config" % where)[0]
        cells.append(cell)
    return tuple(cells)


def parse_spec(data: Mapping[str, Any], name: str = "") -> SweepSpec:
    """Validate a raw spec mapping into a :class:`SweepSpec`.

    ``name`` is the fallback sweep name (usually the file stem) when the
    document does not carry a ``name`` key.
    """
    if not isinstance(data, Mapping):
        raise SweepSpecError("spec root must be a table/object")
    known = {"name", "axes", "defaults", "include", "exclude", "cells"}
    unknown = set(data) - known
    if unknown:
        raise _fail("spec", "unknown top-level keys: %s"
                    % ", ".join(sorted(unknown)))

    axes = data.get("axes") or {}
    if not isinstance(axes, Mapping):
        raise _fail("axes", "expected a table")
    unknown = set(axes) - set(AXIS_NAMES)
    if unknown:
        raise _fail("axes", "unknown axes: %s (valid: %s)"
                    % (", ".join(sorted(unknown)), ", ".join(AXIS_NAMES)))

    defaults_raw = data.get("defaults") or {}
    if not isinstance(defaults_raw, Mapping):
        raise _fail("defaults", "expected a table")
    unknown = set(defaults_raw) - {"seed", "instructions", "warmup"}
    if unknown:
        raise _fail("defaults", "unknown defaults: %s" % ", ".join(sorted(unknown)))
    defaults = dict(_DEFAULTS)
    for axis in ("seed", "instructions", "warmup"):
        if axis in defaults_raw:
            defaults[axis] = _int_list(defaults_raw[axis], "defaults.%s" % axis)[0]

    derived = _derived_cells(data.get("cells") or [], defaults, "cells")
    has_grid = "benchmark" in axes or "policy" in axes
    if not has_grid and not derived:
        raise _fail("spec", "no cells: declare axes.benchmark/axes.policy "
                    "or explicit [[cells]]")
    if has_grid and ("benchmark" not in axes or "policy" not in axes):
        raise _fail("axes", "grid sweeps need both benchmark and policy axes")

    return SweepSpec(
        name=str(data.get("name") or name or "sweep"),
        benchmarks=(_benchmark_axis(axes["benchmark"], "axes.benchmark")
                    if has_grid else ()),
        policies=(_policy_axis(axes["policy"], "axes.policy")
                  if has_grid else ()),
        configs=(_config_axis(axes["config"], "axes.config")
                 if "config" in axes else (DEFAULT_CONFIG,)),
        seeds=(_int_list(axes["seed"], "axes.seed")
               if "seed" in axes else (defaults["seed"],)),
        instructions=(_int_list(axes["instructions"], "axes.instructions", 1)
                      if "instructions" in axes else (defaults["instructions"],)),
        warmups=(_int_list(axes["warmup"], "axes.warmup")
                 if "warmup" in axes else (defaults["warmup"],)),
        include=_filter_rules(data.get("include") or [], "include"),
        exclude=_filter_rules(data.get("exclude") or [], "exclude"),
        cells=derived,
    )


def load_spec(path: "str | Path") -> SweepSpec:
    """Load and validate a spec file (``.toml`` or ``.json``)."""
    spec_path = Path(path)
    if not spec_path.is_file():
        raise SweepSpecError("spec file not found: %s" % spec_path)
    suffix = spec_path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(spec_path.read_text())
        except json.JSONDecodeError as exc:
            raise SweepSpecError("%s: invalid JSON: %s" % (spec_path, exc)) from exc
    elif suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11: use the JSON form
            raise SweepSpecError(
                "%s: TOML specs need Python 3.11+ (tomllib); convert the "
                "spec to JSON for older interpreters" % spec_path) from exc
        try:
            data = tomllib.loads(spec_path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise SweepSpecError("%s: invalid TOML: %s" % (spec_path, exc)) from exc
    else:
        raise SweepSpecError("unsupported spec suffix %r (use .toml or .json)"
                             % spec_path.suffix)
    try:
        return parse_spec(data, name=spec_path.stem)
    except SweepSpecError as exc:
        raise SweepSpecError("%s: %s" % (spec_path, exc)) from exc
