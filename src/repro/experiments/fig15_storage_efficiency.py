"""Figure 15: IPC gain vs total front-end storage (BTB + prefetch table).

Every configuration is normalized to FDIP with the smallest BTB; the x
axis is the BTB budget plus the prefetcher budget. The paper's claim:
some PDIP configuration always beats spending the same storage on more
BTB, while EIP is always a worse use of storage than BTB scaling.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common
from repro.reporting import scatter_chart
from repro.experiments.fig14_btb_sensitivity import (
    BTB_SIZES,
    btb_kb,
    run as run_btb_sweep,
)
from repro.simulator.policies import get_policy
from repro.utils import geomean

SERIES = ("baseline", "pdip_11", "pdip_44", "eip_46")
LABELS = {"baseline": "FDIP", "pdip_11": "PDIP(11)",
          "pdip_44": "PDIP(44)", "eip_46": "EIP(46)"}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1,
        btb_sizes: Iterable[int] = BTB_SIZES) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    sweep = run_btb_sweep(instructions=instructions, warmup=warmup,
                          benchmarks=benchmarks, seed=seed,
                          btb_sizes=btb_sizes)
    benches = sweep["benchmarks"]
    smallest = sweep["btb_sizes"][0]
    ref = sweep["ipcs"][smallest]["baseline"]
    points = {label: [] for label in SERIES}
    for entries in sweep["btb_sizes"]:
        for policy in SERIES:
            per_bench = sweep["ipcs"][entries].get(policy)
            if per_bench is None:
                continue
            gain = (geomean([per_bench[b] / ref[b] for b in benches])
                    - 1.0) * 100.0
            storage = btb_kb(entries) + get_policy(policy).prefetcher_storage_kb
            points[policy].append(
                {"btb_entries": entries, "storage_kb": storage,
                 "gain_pct": gain})
    return {"benchmarks": benches, "points": points}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    rows = []
    for policy in SERIES:
        for pt in result["points"][policy]:
            rows.append([LABELS[policy], "%dK" % (pt["btb_entries"] // 1024),
                         "%.1f" % pt["storage_kb"],
                         "%+.2f%%" % pt["gain_pct"]])
    table = common.format_table(
        ["policy", "BTB", "storage KB", "gain vs 4K-BTB FDIP"], rows,
        title="Figure 15: IPC gain vs front-end storage budget")
    chart = scatter_chart(
        {LABELS[p]: [(pt["storage_kb"], pt["gain_pct"])
                     for pt in result["points"][p]]
         for p in SERIES},
        title="gain vs storage", xlabel="BTB + prefetcher KB",
        ylabel="% IPC gain")
    return table + "\n\n" + chart


def render_svg(result: dict) -> str:
    """SVG version of the storage-efficiency scatter."""
    from repro.reporting_svg import line_svg

    series = {
        LABELS[p]: [(pt["storage_kb"], pt["gain_pct"])
                    for pt in result["points"][p]]
        for p in SERIES
    }
    return line_svg(series, title="Figure 15: gain vs storage",
                    xlabel="BTB + prefetcher KB",
                    ylabel="% gain vs 4K-BTB FDIP")
