"""Figure 10: the headline speedup comparison.

Series (paper order): EIP(46), EIP-Analytical, EMISSARY, PDIP(44),
PDIP(44)+EMISSARY, plus the PDIP(44)-zero-cost markers. Paper geomeans:
EIP(46) 1.5%, PDIP(44) 3.15%, PDIP(44)+EMISSARY 3.7%; PDIP(44)+EMISSARY
captures 72.5% of FEC-Ideal.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common
from repro.reporting import hbar_chart

POLICIES = ("eip_46", "eip_analytical", "emissary", "pdip_44",
            "pdip_44_emissary", "pdip_44_zero_cost")
LABELS = {"eip_46": "EIP(46)", "eip_analytical": "EIP-Analytical",
          "emissary": "EMISSARY", "pdip_44": "PDIP(44)",
          "pdip_44_emissary": "PDIP+EMSRY",
          "pdip_44_zero_cost": "PDIP Zero cost"}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("baseline", "fec_ideal") + POLICIES, benches,
                          instructions, warmup, seed=seed)
    speedups = {
        bench: {p: common.speedup_pct(by[p], by["baseline"])
                for p in POLICIES + ("fec_ideal",)}
        for bench, by in grid.items()
    }
    geomeans = {p: common.geomean_speedup_pct(grid, p)
                for p in POLICIES + ("fec_ideal",)}
    ideal = geomeans["fec_ideal"]
    capture = (geomeans["pdip_44_emissary"] / ideal * 100.0
               if ideal > 0 else 0.0)
    return {"benchmarks": benches, "speedups": speedups,
            "geomeans": geomeans, "fec_ideal_capture_pct": capture}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark"] + [LABELS[p] for p in POLICIES]
    rows = []
    for bench in result["benchmarks"]:
        rows.append([bench] + ["%+.2f%%" % result["speedups"][bench][p]
                               for p in POLICIES])
    rows.append(["Geomean"] + ["%+.2f%%" % result["geomeans"][p]
                               for p in POLICIES])
    table = common.format_table(
        headers, rows, title="Figure 10: IPC speedup over the FDIP baseline")
    extra = ("\nPDIP(44)+EMISSARY captures %.1f%% of FEC-Ideal "
             "(paper: 72.5%%)" % result["fec_ideal_capture_pct"])
    chart = hbar_chart(
        {"geomean": {LABELS[p]: result["geomeans"][p] for p in POLICIES}},
        title="geomean speedup over FDIP")
    return table + extra + "\n\n" + chart


def render_svg(result: dict) -> str:
    """SVG version of the grouped-bar figure."""
    return common.speedup_bars_svg(result, POLICIES, LABELS,
                                   "Figure 10: IPC speedup over FDIP")
