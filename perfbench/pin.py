#!/usr/bin/env python3
"""Regenerate ``perfbench/pinned.json``: the output digests the benchmark
checks every result against.

    python3 perfbench/pin.py                  # every workload
    python3 perfbench/pin.py trace-ingest     # only the named ones

Every cell of every input set is simulated here with ``run_benchmark``
in a plain process, a path independent of the pool, the sweep executor
and the server the workloads drive, so a pinned digest also checks that
those paths agree. Re-pin only when a change is meant to alter
simulation results.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import inputs  # noqa: E402
from perfbench.run import hermetic_env  # noqa: E402


def _digest(stats) -> str:
    from repro.utils import canonical_digest

    return canonical_digest(stats.to_dict())


def pin_one(task: Tuple[str, int, int]) -> Tuple[str, int, Dict[str, str]]:
    workload, seed, sweep = task
    from perfbench.workloads import cold_label
    from repro.simulator.runner import run_benchmark

    out: Dict[str, str] = {}
    if workload == "grid-cold":
        cold_seed = inputs.cold_seed(seed, sweep)
        for bench in inputs.COLD_BENCHMARKS:
            for policy in inputs.COLD_POLICIES:
                out[cold_label(bench, policy, cold_seed)] = _digest(
                    run_benchmark(bench, policy,
                                  instructions=inputs.COLD_INSTRUCTIONS,
                                  warmup=inputs.COLD_WARMUP, seed=cold_seed,
                                  use_cache=False))
    elif workload == "service-submit":
        for cell in inputs.submit_cells(seed):
            out[cell.label] = _digest(run_benchmark(
                cell.benchmark, cell.policy,
                instructions=inputs.SUBMIT_INSTRUCTIONS,
                warmup=inputs.SUBMIT_WARMUP, seed=cell.seed, use_cache=False))
    else:
        from repro.service.store import ResultStore
        from repro.traces.downsample import DEFAULT_BUDGET, DEFAULT_WINDOW
        from repro.traces.ingest import ingest_path
        from repro.traces.registry import register_ingested

        work = Path(os.environ["REPRO_STORE"]).parent
        path = work / ("trace-%d.champsim" % seed)
        path.write_text(inputs.champsim_log(seed))
        name = "pb-pin-%d" % seed
        with ResultStore(os.environ["REPRO_STORE"]) as store:
            report = ingest_path(str(path), store=store, name=name)
            register_ingested(name, report, budget=DEFAULT_BUDGET,
                              window=DEFAULT_WINDOW)
            out["trace"] = report.digest
            for policy in inputs.TRACE_POLICIES:
                out[policy] = _digest(run_benchmark(
                    name, policy, instructions=inputs.TRACE_INSTRUCTIONS,
                    warmup=inputs.TRACE_WARMUP, store=store,
                    use_cache=False))
        path.unlink()
    print("pinned %s input set %d/%d" % (workload, inputs.input_seed(seed),
                                         sweep), flush=True)
    return workload, inputs.input_seed(seed), out


def main(argv=None) -> int:
    pinned = ("grid-cold", "trace-ingest", "service-submit")
    names = list(sys.argv[1:] if argv is None else argv) or list(pinned)
    unknown = set(names) - set(pinned)
    if unknown:
        print("pin.py: nothing to pin for %s" % ", ".join(sorted(unknown)),
              file=sys.stderr)
        return 2
    out = Path(__file__).resolve().parent / "pinned.json"
    table: Dict[str, Dict[str, Dict[str, str]]] = json.loads(out.read_text())
    for name in names:
        table[name] = {}
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=ROOT / "perfbench"))
    try:
        hermetic_env(work)
        tasks = [(w, s, i) for w in names for s in range(inputs.INPUT_SETS)
                 for i in range(inputs.COLD_SWEEP_SETS
                                if w == "grid-cold" else 1)]
        with ProcessPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            for workload, key, digests in pool.map(pin_one, tasks):
                table[workload].setdefault(str(key), {}).update(digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
