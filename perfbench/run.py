#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 12 --trace 0

Run from the repository root. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing; with ``--trace 1`` they are the per-layer ones from a separate
traced run. See ``perfbench/NOTES.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent

#: environment that would change what is timed; removed for every run
STRIPPED_ENV = ("REPRO_BACKEND", "REPRO_JOBS", "REPRO_NO_CACHE",
                "REPRO_BENCHMARKS", "REPRO_INSTRUCTIONS", "REPRO_WARMUP")

#: set-ups per run; ``setup_s`` is their median
SETUPS = 9


def _metric_table(kind: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return tuple((m["name"], m["unit"]) for m in json.load(fh)[kind])


END_TO_END = _metric_table("end_to_end")
PER_LAYER = _metric_table("per_layer")


def hermetic_env(work: Path) -> None:
    """Fresh cache, manifest, store, trace-registry and home directories.

    The default cache directory is the repository's own committed
    ``.repro-results/``: without this a "cold" grid could be served from
    it, and every run would write into the working tree.
    """
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)
    home = work / "home"
    home.mkdir()
    os.environ.update(
        HOME=str(home),
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_MANIFEST_DIR=str(work / "manifests"),
        REPRO_STORE=str(work / "store"),
        REPRO_TRACE_REGISTRY=str(work / "trace_registry.json"),
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid-cold", "grid-warm", "trace-ingest",
                                 "service-submit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro under %s; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    if os.environ.get("REPRO_TELEMETRY", "").strip() not in ("", "0"):
        # like `repro bench`: a timing taken with the trace recorder
        # attached measures telemetry, not the system
        print("perfbench: REPRO_TELEMETRY is set; refusing to time with the "
              "trace recorder attached", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    from perfbench.measure import HostSpeed, Tally, median, peak_rss_mb

    work = ROOT / "perfbench" / ".work" / ("%s-%d" % (args.workload,
                                                      os.getpid()))
    work.mkdir(parents=True)
    try:
        hermetic_env(work)
        ctx = workloads.Context(ROOT, work, args.seed)
        workload = workloads.WORKLOADS[args.workload]()
        tally = Tally()
        setups = []
        with HostSpeed() as speed:
            ctx.speed = speed
            try:
                first = time.perf_counter()
                for i in range(SETUPS):
                    start = time.perf_counter()
                    if workload.imports:
                        ctx.import_probe(workload.imports)
                    workload.setup(ctx)
                    setups.append(time.perf_counter() - start)
                    if i < SETUPS - 1:
                        workload.teardown()
                # one factor for all set-ups: a single one is too short to
                # hold more than a few samples
                setup_host = speed.factor(first, time.perf_counter())
                start = time.perf_counter()
                if args.trace:
                    layers = workload.traced(ctx, tally)
                else:
                    result = workload.run(ctx, args.seconds, tally)
                host = speed.factor(start, time.perf_counter())
            finally:
                workload.teardown()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there

    if args.trace:
        unknown = set(layers) - {name for name, _ in PER_LAYER}
        if unknown:
            raise RuntimeError("metrics missing from PER_LAYER: %s"
                               % ", ".join(sorted(unknown)))
        # a layer the workload does not reach reports 0
        values = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        for line in result.lines:
            print(line)
        if result.host is not None:
            host = result.host
        latency_host = (host if result.latency_host is None
                        else result.latency_host)
        print("  %-40s %.4g, latency %.4g, set-up %.4g (raw: %.6g 1/s, "
              "%.6g ms, set-up %.6g s)"
              % ("host speed factor", host, latency_host, setup_host,
                 result.throughput, result.latency_ms, median(setups)))
        if not workload.host_bound:
            host = latency_host = 1.0
        values = {"setup_s": median(setups) * setup_host,
                  "throughput_per_s": result.throughput / host,
                  "latency_ms_p50": result.latency_ms * latency_host,
                  "peak_rss_mb": peak_rss_mb()}
        units = dict(END_TO_END)
    for name, value in values.items():
        print("  %-40s %.6g %s" % (name, value, units[name]))
    print("  %-40s %d/%d" % ("failed/attempted", tally.failed,
                             tally.attempted))
    for reason, count in sorted(tally.reasons.items()):
        print("  failed: %s (x%d)" % (reason, count))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
