"""Table 4: mean prefetches-per-kilo-instruction and prefetch accuracy.

Paper values: EIP(46) 22 PPKI / 44%, EIP-Analytical 40 / 45%, PDIP(11)
21 / 55%, PDIP(44) 32 / 54%. Key shape: the PDIP configurations are more
accurate than EIP at every rate, and EIP-Analytical roughly doubles
EIP(46)'s rate without improving accuracy.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.experiments import common

POLICIES = ("eip_46", "eip_analytical", "pdip_11", "pdip_44")
LABELS = {"eip_46": "EIP(46)", "eip_analytical": "EIP-Analytical",
          "pdip_11": "PDIP(11)", "pdip_44": "PDIP(44)"}
PAPER = {"eip_46": (22, 44), "eip_analytical": (40, 45),
         "pdip_11": (21, 55), "pdip_44": (32, 54)}


def run(instructions: Optional[int] = None, warmup: Optional[int] = None,
        benchmarks: Optional[Iterable[str]] = None, seed: int = 1) -> dict:
    """Compute this artifact's data series (see the module docstring)."""
    instructions, warmup = common.budget(instructions, warmup)
    benches = common.suite(benchmarks)
    grid = common.collect(POLICIES, benches, instructions, warmup, seed=seed)
    means = {}
    for p in POLICIES:
        ppki = sum(grid[b][p].ppki for b in benches) / len(benches)
        acc = sum(grid[b][p].prefetch_accuracy for b in benches) / len(benches)
        means[p] = {"ppki": ppki, "accuracy_pct": 100.0 * acc}
    return {"benchmarks": benches, "means": means, "paper": PAPER}


def render(result: dict) -> str:
    """Render the result as the paper-style text output."""
    rows = []
    for p in POLICIES:
        paper_ppki, paper_acc = result["paper"][p]
        m = result["means"][p]
        rows.append([LABELS[p], paper_ppki, "%.1f" % m["ppki"],
                     paper_acc, "%.1f" % m["accuracy_pct"]])
    return common.format_table(
        ["policy", "paper PPKI", "ours PPKI", "paper acc%", "ours acc%"],
        rows, title="Table 4: mean PPKI and prefetch accuracy")
