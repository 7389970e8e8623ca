"""Figure 14: IPC gain of the prefetch policies across BTB sizes.

Each point compares a policy against the FDIP baseline *at the same BTB
size*. The paper's shape: small BTBs leave more headroom (PDIP(44) gains
4.32% at 4K entries vs 3.15% at 8K), the PDIP variants converge at large
BTBs but stay positive (>1% even at 64K), and EIP trails everywhere.

This sweep is heavy, so it defaults to the 8-benchmark
:data:`repro.experiments.common.SWEEP_BENCHMARKS` subset
(``REPRO_BENCHMARKS=all`` runs the full suite).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.branch.btb import BTB
from repro.experiments import common
from repro.utils import geomean

BTB_SIZES = (4096, 8192, 65536)
POLICIES = ("eip_46", "pdip_11", "pdip_44", "pdip_44_emissary")
LABELS = {"eip_46": "EIP(46)", "pdip_11": "PDIP(11)",
          "pdip_44": "PDIP(44)", "pdip_44_emissary": "PDIP(44)+EMSRY"}


def btb_kb(entries: int) -> float:
    """BTB storage in KB at the paper's bits-per-entry pricing."""
    return entries * BTB.BITS_PER_ENTRY / 8.0 / 1024.0


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1,
        btb_sizes: Iterable[int] = BTB_SIZES) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks, default=common.SWEEP_BENCHMARKS)
    gains = {}   # {btb: {policy: geomean % gain}}
    ipcs = {}    # {btb: {policy/baseline: {bench: ipc}}}
    for entries in btb_sizes:
        grid = common.collect(("baseline",) + POLICIES, benches,
                              instructions, warmup, seed=seed,
                              config={"btb_entries": entries})
        per_policy = {policy: {bench: grid[bench][policy].ipc
                               for bench in benches}
                      for policy in ("baseline",) + POLICIES}
        ipcs[entries] = per_policy
        gains[entries] = {
            p: (geomean([per_policy[p][b] / per_policy["baseline"][b]
                         for b in benches]) - 1.0) * 100.0
            for p in POLICIES
        }
    return {"benchmarks": benches, "btb_sizes": list(btb_sizes),
            "gains": gains, "ipcs": ipcs}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    headers = ["BTB entries", "BTB KB"] + [LABELS[p] for p in POLICIES]
    rows = []
    for entries in result["btb_sizes"]:
        rows.append(["%dK" % (entries // 1024), "%.0f" % btb_kb(entries)]
                    + ["%+.2f%%" % result["gains"][entries][p]
                       for p in POLICIES])
    return common.format_table(
        headers, rows,
        title="Figure 14: geomean IPC gain at each BTB size "
              "(vs same-BTB baseline)")


def render_svg(result: dict) -> str:
    """SVG version of the BTB-sensitivity lines."""
    from repro.reporting_svg import line_svg

    series = {
        LABELS[p]: [(entries / 1024.0, result["gains"][entries][p])
                    for entries in result["btb_sizes"]]
        for p in POLICIES
    }
    return line_svg(series, title="Figure 14: gain vs BTB size",
                    xlabel="BTB entries (K)", ylabel="% IPC gain")
