#!/usr/bin/env python3
"""The perf gate: perfbench's grid-cold workload, parent against change.

Run from anywhere, with two checkouts of the repository::

    python3 scripts/perf_gate.py PARENT CHANGE

It runs ``perfbench/run.py --workload grid-cold --trace 0`` in each
tree, with the command and ``run_seconds`` of the change's
``BENCHMARK.json``, as 5 pairs at seeds 1-5. The tree that runs first
alternates from pair to pair, so a host that drifts slows both sides
alike. The gate fails (exit 1) when

* any run exits non-zero, prints no result line, or reports
  ``correct: false`` or ``failed > 0``; or
* any ``end_to_end`` metric's median over the change's runs is worse
  than the parent's median by more than that metric's ``bound``.

Either way it prints each metric's medians, their ratio (change over
parent) and the per-pair ratios, and writes them, with the pair count
and the host, to ``BENCH_perfbench.json`` in the change's tree: the
perf trajectory that a perf change commits.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOAD = "grid-cold"
SEEDS = (1, 2, 3, 4, 5)
SIDES = ("parent", "change")
OUT = "BENCH_perfbench.json"

#: one perfbench run: its exit status and standard output
Run = Dict[str, object]


def run_perfbench(tree: Path, seed: int, bench: dict) -> Run:
    """One ``--trace 0`` run of the workload in ``tree``."""
    argv = list(bench["command"]) + [
        "--workload", WORKLOAD, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(argv, cwd=str(tree), stdout=subprocess.PIPE,
                          text=True)
    return {"returncode": proc.returncode, "stdout": proc.stdout}


def result_of(run: Run, names: Sequence[str]
              ) -> Tuple[Optional[dict], Optional[str]]:
    """``({metric: value}, None)`` of a passing run, else ``(None, why)``."""
    if run["returncode"] != 0:
        return None, "exit status %s" % run["returncode"]
    lines = str(run["stdout"]).strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: float(result["metrics"][name]["value"])
                  for name in names}
    except (IndexError, KeyError, TypeError, ValueError):
        return None, "no result line with every end_to_end metric"
    if result.get("correct") is not True or result.get("failed") != 0:
        return None, "correct %r, failed %r of %r" % (
            result.get("correct"), result.get("failed"),
            result.get("attempted"))
    return values, None


def verdict(pairs: Sequence[Tuple[Run, Run]], end_to_end: Sequence[dict]
            ) -> Tuple[List[str], Dict[str, dict]]:
    """``(failures, per-metric summary)`` of ``(parent, change)`` pairs.

    A metric is compared over the pairs whose two runs both passed.
    """
    names = [metric["name"] for metric in end_to_end]
    failures: List[str] = []
    passed = []
    for number, pair in enumerate(pairs, 1):
        results = [result_of(run, names) for run in pair]
        errors = ["pair %d, %s: %s" % (number, side, why)
                  for side, (_, why) in zip(SIDES, results) if why]
        failures.extend(errors)
        if not errors:
            passed.append([values for values, _ in results])
    summary: Dict[str, dict] = {}
    if not passed:
        return failures, summary
    for metric in end_to_end:
        name, bound = metric["name"], float(metric["bound"])
        parent = statistics.median(p[name] for p, _ in passed)
        change = statistics.median(c[name] for _, c in passed)
        ratio = change / parent
        worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": bound, "parent_median": parent,
            "change_median": change, "median_ratio": ratio,
            "pair_ratios": [c[name] / p[name] for p, c in passed],
        }
        if worse > bound:
            failures.append(
                "%s: median %.4g -> %.4g %s (ratio %.3f) is worse than the "
                "parent's by more than %.0f%%" % (
                    name, parent, change, metric["unit"], ratio,
                    bound * 100))
    return failures, summary


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 scripts/perf_gate.py PARENT CHANGE",
              file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv]
    for tree in trees:
        if not (tree / "perfbench" / "run.py").is_file():
            print("perf gate: %s has no perfbench/run.py" % tree,
                  file=sys.stderr)
            return 2
    parent_tree, change_tree = trees
    with open(change_tree / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    pairs = []
    for number, seed in enumerate(SEEDS, 1):
        order = SIDES if number % 2 else SIDES[::-1]
        runs = {}
        for side in order:
            tree = parent_tree if side == "parent" else change_tree
            run = runs[side] = run_perfbench(tree, seed, bench)
            last = (str(run["stdout"]).strip().splitlines() or [""])[-1]
            print("pair %d/%d, seed %d, %s: exit %s %s" % (
                number, len(SEEDS), seed, side, run["returncode"], last),
                flush=True)
        pairs.append((runs["parent"], runs["change"]))
    failures, summary = verdict(pairs, bench["end_to_end"])
    for name, row in summary.items():
        print("%-18s %10.4g -> %10.4g %-4s ratio %.3f (bound %.0f%%); "
              "per pair %s" % (
                  name, row["parent_median"], row["change_median"],
                  row["unit"], row["median_ratio"], row["bound"] * 100,
                  " ".join("%.3f" % r for r in row["pair_ratios"])))
    doc = {
        "workload": WORKLOAD, "seconds": bench["run_seconds"],
        "pairs": len(pairs), "seeds": list(SEEDS),
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "metrics": summary, "failures": failures,
        "verdict": "fail" if failures else "pass",
    }
    with open(change_tree / OUT, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for failure in failures:
        print("PERF GATE FAIL: " + failure, file=sys.stderr)
    print("perf gate: %s (%d pairs); wrote %s" % (
        doc["verdict"], len(pairs), change_tree / OUT))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
