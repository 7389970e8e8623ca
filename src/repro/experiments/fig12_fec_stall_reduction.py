"""Figure 12: % reduction in FEC stalls, PDIP(44) vs EIP(46).

FEC stalls are the decode-starvation cycles charged to entries whose
miss qualified as front-end critical. The paper: PDIP cuts them 42% on
average (>=50% on nine benchmarks) vs 19% for EIP; PDIP+EMISSARY reaches
46% on verilator-class workloads. Also reports PDIP's FEC coverage
(paper: >67%).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

POLICIES = ("pdip_44", "eip_46", "pdip_44_emissary")


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(("baseline",) + POLICIES, benches,
                          instructions, warmup, seed=seed)
    rows = {}
    for bench, by in grid.items():
        base = max(1, by["baseline"].fec_starvation_cycles)
        rows[bench] = {
            p: 100.0 * (1.0 - by[p].fec_starvation_cycles / base)
            for p in POLICIES
        }
        rows[bench]["pdip_coverage"] = 100.0 * by["pdip_44"].fec_coverage
        rows[bench]["eip_coverage"] = 100.0 * by["eip_46"].fec_coverage
    avg = {k: sum(r[k] for r in rows.values()) / len(rows)
           for k in ("pdip_44", "eip_46", "pdip_44_emissary",
                     "pdip_coverage", "eip_coverage")}
    return {"benchmarks": benches, "rows": rows, "average": avg}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["benchmark", "PDIP(44)", "EIP(46)", "PDIP+EMSRY",
               "PDIP cov%", "EIP cov%"]
    keys = ("pdip_44", "eip_46", "pdip_44_emissary",
            "pdip_coverage", "eip_coverage")
    rows = [[b] + ["%.1f" % result["rows"][b][k] for k in keys]
            for b in result["benchmarks"]]
    rows.append(["Average"] + ["%.1f" % result["average"][k] for k in keys])
    return common.format_table(
        headers, rows, title="Figure 12: FEC stall reduction (%)")


def render_svg(result: dict) -> str:
    """SVG version of the FEC-stall-reduction bars."""
    from repro.reporting_svg import grouped_bar_svg

    series = {
        label: {b: result["rows"][b][key] for b in result["benchmarks"]}
        for label, key in (("PDIP(44)", "pdip_44"), ("EIP(46)", "eip_46"),
                           ("PDIP+EMSRY", "pdip_44_emissary"))
    }
    return grouped_bar_svg(series,
                           title="Figure 12: FEC stall reduction",
                           ylabel="% reduction")
