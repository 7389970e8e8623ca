"""Ablation studies for the design choices DESIGN.md calls out.

Each function sweeps one knob the paper discusses and returns the same
``{label: geomean % speedup}`` shape:

* :func:`insertion_probability` — Section 5.3 (paper picked 0.25 among
  1→0.03 at 100M instructions; the scaled reproduction defaults to 1.0).
* :func:`candidate_filter` — Section 5.3's two pollution filters
  (high-cost only, back-end-stall only, both, neither).
* :func:`table_geometry` — targets-per-entry and mask width (Section 5.1
  chose 2 targets + 4-bit mask).
* :func:`ftq_depth` — Ishii et al.'s observation that prefetcher gains
  shrink as the FTQ deepens.
* :func:`emissary_knobs` — protected ways and promotion probability.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

from repro.experiments import common
from repro.simulator.config import MachineConfig
from repro.simulator.policies import PolicySpec
from repro.simulator.runner import get_layout, run_benchmark
from repro.utils import geomean

#: ablations run on a fast, representative subset by default
DEFAULT_BENCHMARKS = ("cassandra", "tpcc", "verilator")

#: ablations default to a half-size budget: they compare *trends* across
#: variants, which converge earlier than the absolute figures
ABLATION_INSTRUCTIONS = 200_000
ABLATION_WARMUP = 60_000


def _budget(instructions, warmup):
    import os

    if instructions is None:
        instructions = int(os.environ.get("REPRO_INSTRUCTIONS",
                                          ABLATION_INSTRUCTIONS))
    if warmup is None:
        warmup = int(os.environ.get("REPRO_WARMUP", ABLATION_WARMUP))
    return instructions, warmup


def _geomean_speedup(benches: Sequence[str], spec, base_spec,
                     instructions: int, warmup: int, seed: int,
                     config: Optional[MachineConfig] = None,
                     base_config: Optional[MachineConfig] = None) -> float:
    ratios = []
    for bench in benches:
        test = run_benchmark(bench, spec, instructions=instructions,
                             warmup=warmup, seed=seed, config=config)
        base = run_benchmark(bench, base_spec, instructions=instructions,
                             warmup=warmup, seed=seed,
                             config=base_config if base_config is not None
                             else config)
        ratios.append(test.ipc / base.ipc)
    return (geomean(ratios) - 1.0) * 100.0


def _pdip_spec(name: str, **overrides) -> PolicySpec:
    return PolicySpec(name, name, pdip_kb=44, pdip_overrides=overrides)


def insertion_probability(instructions: Optional[int] = None,
                          warmup: Optional[int] = None,
                          benchmarks: Optional[Iterable[str]] = None,
                          seed: int = 1) -> Dict[str, float]:
    """Sweep the PDIP insertion probability (Section 5.3)."""
    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    base = PolicySpec("baseline", "baseline")
    out = {}
    for prob in (0.03, 0.125, 0.25, 0.5, 1.0):
        spec = _pdip_spec("pdip_ins_%g" % prob, insert_prob=prob)
        out["p=%g" % prob] = _geomean_speedup(
            benches, spec, base, instructions, warmup, seed)
    return out


def candidate_filter(instructions: Optional[int] = None,
                     warmup: Optional[int] = None,
                     benchmarks: Optional[Iterable[str]] = None,
                     seed: int = 1) -> Dict[str, float]:
    """Sweep the PDIP candidate filters (Section 5.3)."""
    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    base = PolicySpec("baseline", "baseline")
    variants = {
        "high-cost + backend-stall (paper)": dict(),
        "high-cost only": dict(require_backend_stall=False),
        "backend-stall only": dict(require_high_cost=False),
        "all FEC lines": dict(require_high_cost=False,
                              require_backend_stall=False),
    }
    out = {}
    for label, overrides in variants.items():
        spec = _pdip_spec("pdip_filter_%d" % len(out), **overrides)
        out[label] = _geomean_speedup(benches, spec, base, instructions,
                                      warmup, seed)
    return out


def table_geometry(instructions: Optional[int] = None,
                   warmup: Optional[int] = None,
                   benchmarks: Optional[Iterable[str]] = None,
                   seed: int = 1) -> Dict[str, float]:
    """Sweep targets-per-entry and mask width (Section 5.1)."""
    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    base = PolicySpec("baseline", "baseline")
    variants = {
        "2 targets, 4-bit mask (paper)": dict(),
        "1 target, 4-bit mask": dict(targets_per_entry=1),
        "4 targets, 4-bit mask": dict(targets_per_entry=4),
        "2 targets, no mask": dict(mask_bits=0),
        "2 targets, 8-bit mask": dict(mask_bits=8),
    }
    out = {}
    for label, overrides in variants.items():
        spec = _pdip_spec("pdip_geom_%d" % len(out), **overrides)
        out[label] = _geomean_speedup(benches, spec, base, instructions,
                                      warmup, seed)
    return out


def ftq_depth(instructions: Optional[int] = None,
              warmup: Optional[int] = None,
              benchmarks: Optional[Iterable[str]] = None,
              seed: int = 1) -> Dict[str, float]:
    """PDIP gain at several FTQ depths (paper baseline: 24 entries)."""
    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    base = PolicySpec("baseline", "baseline")
    pdip = _pdip_spec("pdip_ftq")
    out = {}
    for depth in (8, 16, 24, 48):
        config = MachineConfig(ftq_depth=depth,
                               fec_wake_window=depth)
        out["ftq=%d" % depth] = _geomean_speedup(
            benches, pdip, base, instructions, warmup, seed, config=config)
    return out


def emissary_knobs(instructions: Optional[int] = None,
                   warmup: Optional[int] = None,
                   benchmarks: Optional[Iterable[str]] = None,
                   seed: int = 1) -> Dict[str, float]:
    """EMISSARY protected-ways / promotion-probability sweep.

    Sweeps via dedicated PolicySpecs is not possible (the knobs live on
    the replacement policy), so this builds machines directly and runs
    uncached.
    """
    from repro.memory.replacement import EmissaryPolicy
    from repro.simulator.policies import build_machine, get_policy
    from repro.workloads.profiles import get_profile

    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    out = {}
    variants = [(4, 0.25), (8, 0.25), (12, 0.25), (8, 1 / 32), (8, 1.0)]
    for ways, prob in variants:
        ratios = []
        for bench in benches:
            profile = get_profile(bench)
            layout = get_layout(bench, seed=seed)
            base = run_benchmark(bench, "baseline",
                                 instructions=instructions, warmup=warmup,
                                 seed=seed)
            machine = build_machine(layout, profile, get_policy("emissary"),
                                    seed=seed)
            machine.hierarchy.l2_policy.protected_ways = ways
            machine.hierarchy.l2_policy.promote_prob = prob
            stats = machine.run(instructions, warmup=warmup)
            ratios.append(stats.ipc / base.ipc)
        out["ways=%d p=%.3f" % (ways, prob)] = (geomean(ratios) - 1.0) * 100.0
    return out


def itlb(instructions: Optional[int] = None,
         warmup: Optional[int] = None,
         benchmarks: Optional[Iterable[str]] = None,
         seed: int = 1) -> Dict[str, float]:
    """PDIP gain with and without an iTLB in the fetch path.

    Section 4.2: the paper experimented with iTLB misses as trackable
    trigger events and saw no gain — because iTLB-exposed stalls cluster
    on the same resteer paths PDIP already covers. This ablation checks
    that PDIP's gain is stable when the iTLB substrate is enabled.
    """
    from repro.memory.hierarchy import HierarchyConfig

    instructions, warmup = _budget(instructions, warmup)
    benches = common.suite(benchmarks, default=DEFAULT_BENCHMARKS)
    base = PolicySpec("baseline", "baseline")
    pdip = _pdip_spec("pdip_itlb")
    out = {}
    for label, enabled in (("no iTLB (paper baseline)", False),
                           ("64-entry iTLB, 25-cycle walk", True)):
        config = MachineConfig(hierarchy=HierarchyConfig(itlb_enabled=enabled))
        out[label] = _geomean_speedup(benches, pdip, base, instructions,
                                      warmup, seed, config=config)
    return out


def render(result: Dict[str, float], title: str) -> str:
    """Render the result as the paper-style text output."""
    rows = [[label, "%+.2f%%" % value] for label, value in result.items()]
    return common.format_table(["variant", "geomean speedup"], rows,
                               title=title)
