"""Figure 3: speedup of prior techniques over the FDIP baseline.

Series (paper order): 2X IL1, EMISSARY, EIP-Analytical, EIP+EMISSARY,
FEC-Ideal — per benchmark plus the geomean. The paper's headline shape:
EIP-Analytical > EMISSARY > 2X IL1, EIP+EMISSARY *loses* synergy, and
FEC-Ideal towers over everything.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

POLICIES = ("2x_il1", "emissary", "eip_analytical", "eip_46_emissary",
            "fec_ideal")
LABELS = {"2x_il1": "2X IL1", "emissary": "EMISSARY",
          "eip_analytical": "EIP-Analytical",
          "eip_46_emissary": "EIP+EMISSARY", "fec_ideal": "FEC-Ideal"}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("baseline",) + POLICIES, benches,
                          instructions, warmup, seed=seed)
    speedups = {
        bench: {p: common.speedup_pct(by[p], by["baseline"])
                for p in POLICIES}
        for bench, by in grid.items()
    }
    geomeans = {p: common.geomean_speedup_pct(grid, p) for p in POLICIES}
    return {"benchmarks": benches, "speedups": speedups,
            "geomeans": geomeans}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark"] + [LABELS[p] for p in POLICIES]
    rows = []
    for bench in result["benchmarks"]:
        rows.append([bench] + ["%+.2f%%" % result["speedups"][bench][p]
                               for p in POLICIES])
    rows.append(["Geomean"] + ["%+.2f%%" % result["geomeans"][p]
                               for p in POLICIES])
    return common.format_table(
        headers, rows,
        title="Figure 3: prior techniques, IPC speedup over FDIP")


def render_svg(result: dict) -> str:
    """SVG version of the grouped-bar figure."""
    return common.speedup_bars_svg(result, POLICIES, LABELS,
                                   "Figure 3: prior techniques")
