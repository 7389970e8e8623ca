"""The policy catalog (the reproduction's Table 3).

Each :class:`PolicySpec` names one evaluated configuration and knows how
to assemble the machine for it:

=================== =========================================================
``baseline``        FDIP-only Golden-Cove-like core
``2x_il1``          baseline with a 64 KB L1-I
``emissary``        EMISSARY L2 (8 protected ways, 1/32 promotion)
``pdip_44``         PDIP, 512x8 table (43.5 KB); also 11/22/87 KB variants
``pdip_44_emissary`` PDIP(44) + EMISSARY
``pdip_44_zero_cost`` PDIP(44) with free prefetches (timeliness bound)
``eip_46``          EIP with a 46 KB entangling table
``eip_analytical``  EIP with an unbounded table
``eip_46_emissary`` EIP(46) + EMISSARY
``fec_ideal``       EMISSARY + FEC lines always served at L1 latency
=================== =========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.pdip import PDIPConfig, PDIPController
from repro.core.pdip_table import PDIPTable
from repro.frontend.prefetch_queue import PrefetchQueue
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.replacement import EmissaryPolicy, LRUPolicy
from repro.prefetchers.base import NoPrefetcher
from repro.prefetchers.eip import EIPConfig, EIPPrefetcher
from repro.prefetchers.next_line import NextLinePrefetcher
from repro.prefetchers.rdip import RDIPPrefetcher
from repro.simulator.config import MachineConfig
from repro.simulator.machine import Machine
from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import WorkloadProfile, external_benchmark

#: PDIP table associativity per advertised budget (512 sets fixed)
PDIP_ASSOC_FOR_KB = {11: 2, 22: 4, 44: 8, 87: 16}


@dataclass(frozen=True)
class PolicySpec:
    """A named machine configuration."""

    name: str
    description: str
    emissary: bool = False
    fec_ideal: bool = False
    zero_cost_prefetch: bool = False
    l1i_size_kb: Optional[int] = None
    pdip_kb: Optional[int] = None
    pdip_overrides: Dict[str, object] = field(default_factory=dict)
    eip_kb: Optional[float] = None
    eip_analytical: bool = False
    #: related-work baselines (extensions beyond the paper's Table 3)
    next_line: bool = False
    rdip: bool = False

    @property
    def prefetcher_storage_kb(self) -> float:
        """Prefetch-table budget this policy spends."""
        if self.pdip_kb is not None:
            return PDIPTable(PDIP_ASSOC_FOR_KB[self.pdip_kb]).storage_kb
        if self.eip_kb is not None:
            return self.eip_kb
        return 0.0


POLICIES: Dict[str, PolicySpec] = {
    "baseline": PolicySpec("baseline", "FDIP-only Golden Cove like core"),
    "2x_il1": PolicySpec("2x_il1", "2x the (scaled) instruction cache",
                         l1i_size_kb=16),
    "emissary": PolicySpec("emissary", "EMISSARY L2 (8 priority ways)",
                           emissary=True),
    "pdip_11": PolicySpec("pdip_11", "PDIP with 11KB table", pdip_kb=11),
    "pdip_22": PolicySpec("pdip_22", "PDIP with 22KB table", pdip_kb=22),
    "pdip_44": PolicySpec("pdip_44", "PDIP with 43.5KB table", pdip_kb=44),
    "pdip_87": PolicySpec("pdip_87", "PDIP with 87KB table", pdip_kb=87),
    "pdip_44_emissary": PolicySpec("pdip_44_emissary", "PDIP(44) + EMISSARY",
                                   pdip_kb=44, emissary=True),
    "pdip_44_zero_cost": PolicySpec("pdip_44_zero_cost",
                                    "PDIP(44), free prefetches",
                                    pdip_kb=44, zero_cost_prefetch=True),
    "eip_46": PolicySpec("eip_46", "EIP with 46KB entangling table",
                         eip_kb=46.0),
    "eip_analytical": PolicySpec("eip_analytical",
                                 "EIP, unbounded entangling table",
                                 eip_kb=46.0, eip_analytical=True),
    "eip_46_emissary": PolicySpec("eip_46_emissary", "EIP(46) + EMISSARY",
                                  eip_kb=46.0, emissary=True),
    "fec_ideal": PolicySpec("fec_ideal",
                            "EMISSARY + FEC lines at L1 latency (oracle)",
                            emissary=True, fec_ideal=True),
    # -- extensions beyond the paper's Table 3 (related-work baselines) --
    "next_line": PolicySpec("next_line",
                            "sequential next-2-lines prefetcher (FNL-style)",
                            next_line=True),
    "rdip": PolicySpec("rdip",
                       "return-address-stack directed prefetcher (RDIP)",
                       rdip=True),
    "pdip_44_path": PolicySpec(
        "pdip_44_path",
        "PDIP(44) + last-3-branch path qualification (Section 5.2 variant)",
        pdip_kb=44, pdip_overrides={"use_path_info": True}),
}


def get_policy(name: str) -> PolicySpec:
    """Look up a policy spec by name (KeyError with hints)."""
    try:
        return POLICIES[name]
    except KeyError:
        raise KeyError("unknown policy %r; valid: %s"
                       % (name, ", ".join(sorted(POLICIES))))


def build_machine(layout: CodeLayout, profile: WorkloadProfile,
                  spec: PolicySpec,
                  config: Optional[MachineConfig] = None,
                  seed: int = 0) -> Machine:
    """Assemble a machine for ``spec`` over an already-generated layout."""
    cfg = config if config is not None else MachineConfig()
    if spec.l1i_size_kb is not None:
        cfg = cfg.with_l1i_kb(spec.l1i_size_kb)
    l2_policy = (EmissaryPolicy(seed=seed) if spec.emissary else LRUPolicy())
    hierarchy = MemoryHierarchy(config=cfg.hierarchy, l2_policy=l2_policy,
                                fec_ideal=spec.fec_ideal,
                                zero_cost_prefetch=spec.zero_cost_prefetch,
                                seed=seed)
    pq = PrefetchQueue(hierarchy, capacity=cfg.pq_capacity,
                       issue_width=cfg.pq_issue_width,
                       mshr_reserve=cfg.pq_mshr_reserve)
    if spec.pdip_kb is not None:
        overrides = dict(spec.pdip_overrides)
        overrides.setdefault("assoc", PDIP_ASSOC_FOR_KB[spec.pdip_kb])
        pdip_cfg = PDIPConfig(**overrides)
        prefetcher = PDIPController(pq, config=pdip_cfg, seed=seed)
    elif spec.eip_kb is not None:
        eip_cfg = EIPConfig(budget_kb=spec.eip_kb,
                            analytical=spec.eip_analytical)
        prefetcher = EIPPrefetcher(pq, config=eip_cfg)
    elif spec.next_line:
        prefetcher = NextLinePrefetcher(pq)
    elif spec.rdip:
        prefetcher = RDIPPrefetcher(pq)
    else:
        prefetcher = NoPrefetcher()
    # externally provided benchmarks (ingested traces) bring their own
    # walker; synthetic profiles get the default PathWalker inside Machine
    ext = external_benchmark(profile.name)
    walker = ext.walker_factory(layout, seed) if ext is not None else None
    return Machine(layout=layout, profile=profile, config=cfg,
                   hierarchy=hierarchy, prefetcher=prefetcher, pq=pq,
                   seed=seed, walker=walker)


def build_machine_for(benchmark_profile: WorkloadProfile, spec: PolicySpec,
                      config: Optional[MachineConfig] = None,
                      seed: int = 0) -> Machine:
    """Generate the layout and assemble the machine in one call."""
    ext = external_benchmark(benchmark_profile.name)
    if ext is not None:
        layout = ext.layout_builder(seed)
    else:
        layout = generate_layout(benchmark_profile, seed=seed)
    return build_machine(layout, benchmark_profile, spec, config=config,
                         seed=seed)
