"""The four workloads: set-up, the timed loop, and the traced run.

Each workload calls only the public surface a user drives (the sweep
executor, ``experiments.common.collect``, the ingest pipeline,
``repro serve`` and ``ServiceClient``) and times it from here. Output
checks compare every result against ``pinned.json`` (or, for the warm
grid, against what set-up stored); a mismatch, an error or a refusal is
a failed operation.
"""

from __future__ import annotations

import json
import os
import select
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import inputs
from perfbench.measure import HostSpeed, Tally, describe, median
from perfbench.spans import SpanLog, by_name, durations

PINNED = Path(__file__).resolve().parent / "pinned.json"


class Context:
    """Per-run paths and knobs shared by the workloads."""

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.src = root / "src"
        self.work = work
        self.seed = seed
        self.jobs = os.cpu_count() or 1
        #: the run's host speed sampler, set while the workload runs
        self.speed: Optional[HostSpeed] = None
        self._fresh = 0

    def fresh(self, name: str) -> Path:
        """A new empty directory under the run's work directory."""
        self._fresh += 1
        path = self.work / ("%s-%d" % (name, self._fresh))
        path.mkdir(parents=True)
        return path

    def fresh_cache(self) -> Path:
        """Point the result cache and manifests at a new empty directory."""
        cache = self.fresh("cache")
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        os.environ["REPRO_MANIFEST_DIR"] = str(cache / "manifests")
        return cache

    def pinned(self, workload: str) -> Dict[str, str]:
        with open(PINNED) as fh:
            table = json.load(fh)
        return table[workload][str(inputs.input_seed(self.seed))]

    def import_probe(self, modules: Tuple[str, ...]) -> None:
        """Start a fresh interpreter that imports ``modules`` (set-up cost
        a user pays on every command)."""
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms,
        # which would quantise the set-up time
        subprocess.run([sys.executable, "-c", "import " + ", ".join(modules)],
                       check=True, env=dict(os.environ,
                                            PYTHONPATH=str(self.src)),
                       cwd=str(self.work))


def stats_digest(stats) -> str:
    from repro.utils import canonical_digest

    payload = stats if isinstance(stats, dict) else stats.to_dict()
    return canonical_digest(payload)


def timed_loop(seconds: float, op: Callable[[], object]) -> None:
    """Run ``op`` until ``seconds`` have passed, at least once."""
    start = time.perf_counter()
    while True:
        op()
        if time.perf_counter() - start >= seconds:
            return


def traced_pass(log: SpanLog, install: Callable[[SpanLog], None],
                op: Callable[[], float]) -> Tuple[float, float]:
    """Run ``op`` untraced, traced, untraced; returns the traced wall and
    the wall of the last untraced pass.

    The first pass warms imports and file caches, so the traced pass and
    the one after it compare in the same warm state.
    """
    op()
    install(log)
    try:
        traced = op()
    finally:
        log.restore()
    return traced, op()


class Result:
    """What a timed loop produced: the end-to-end values plus report lines."""

    def __init__(self, throughput: float, latency_ms: float,
                 lines: List[str], host: Optional[float] = None,
                 latency_host: Optional[float] = None) -> None:
        self.throughput = throughput
        self.latency_ms = latency_ms
        self.lines = lines
        #: the host speed factor the workload sampled itself, if it did
        self.host = host
        #: the factor for the latency, when it differs from ``host``
        self.latency_host = latency_host


# ----------------------------------------------------------------------
# simulation-stage split, shared by grid-cold and trace-ingest
# ----------------------------------------------------------------------
def profile_cells(ctx: Context, cells: List[Tuple[str, str, int, int, int]],
                  pinned: Dict[str, str], label: Callable[..., str],
                  tally: Tally) -> Dict[str, float]:
    """Run ``(benchmark, policy, seed, instructions, warmup)`` cells in this
    process with ``cProfile`` around ``Machine.run`` only.

    Returns the simulator-stage shares of simulation host time, the
    fast-forwarded share of cycles, the total simulated cycles, the
    modelled-work counters of the cells and the profiler's overhead: each
    cell also runs once without it, and the profiled ``Machine.run`` time
    over the plain one, minus 1, is ``simulator.profile_overhead_frac``.
    Each cell's stats must match the pinned digest.
    """
    import cProfile
    import pstats

    from perfbench import stages
    from repro.simulator.policies import build_machine, get_policy
    from repro.simulator.runner import get_layout
    from repro.simulator.stats import SimulationStats
    from repro.workloads.profiles import get_profile

    def machine_for(bench: str, policy: str, seed: int):
        return build_machine(get_layout(bench, seed=seed), get_profile(bench),
                             get_policy(policy), seed=seed)

    profiler = cProfile.Profile()
    total = SimulationStats()
    cycles = ff = 0
    plain_s = profiled_s = 0.0
    for bench, policy, seed, instructions, warmup in cells:
        # the same cell once without the profiler, for its overhead
        machine = machine_for(bench, policy, seed)
        start = time.perf_counter()
        machine.run(instructions, warmup=warmup)
        plain_s += time.perf_counter() - start
        machine = machine_for(bench, policy, seed)
        start = time.perf_counter()
        profiler.enable()
        stats = machine.run(instructions, warmup=warmup)
        profiler.disable()
        profiled_s += time.perf_counter() - start
        tally.check(stats_digest(stats) == pinned[label(bench, policy)],
                    "profiled cell digest")
        cycles += machine.cycle
        ff += machine.fast_forwarded_cycles
        for name, value in stats.counters().items():
            setattr(total, name, getattr(total, name) + value)
    seconds, unmapped = stages.layer_seconds(pstats.Stats(profiler), ctx.src)
    if unmapped:
        raise RuntimeError("modules with no layer in perfbench/stages.py: %s"
                           % ", ".join(sorted(unmapped)))
    busy = sum(seconds.values()) or 1.0
    out = {"%s.host_frac" % stage: seconds.get(stage, 0.0) / busy
           for stage in stages.SIM_STAGES}
    out["other.host_frac"] = 1.0 - sum(out.values())
    out["simulator.ff_cycle_frac"] = ff / cycles if cycles else 0.0
    out["memory.l1i_mpki"] = total.l1i_mpki
    out["memory.l2i_mpki"] = total.l2i_mpki
    out["prefetchers.ppki"] = total.ppki
    out["prefetchers.accuracy"] = total.prefetch_accuracy
    kilo = total.instructions / 1000.0 or 1.0
    out["core.pdip.inserts_pki"] = total.pdip_inserts / kilo
    out["core.fec.events_pki"] = total.fec_events / kilo
    out["branch.resteers_pki"] = total.resteers / kilo
    out["simulator.ipc"] = total.ipc
    out["simulator.profile_overhead_frac"] = profiled_s / plain_s - 1.0
    out["_cycles"] = float(cycles)
    return out


def system_spans(log: SpanLog) -> None:
    """Spans on the system layers every grid path goes through."""
    from repro.service.store import ResultStore
    from repro.simulator import cache, runner
    from repro.simulator.manifest import RunManifest
    from repro.sweeps import executor, plan

    log.wrap(plan, "compile_spec", "plan.compile",
             size=lambda p: len(p.cells))
    log.wrap(executor, "execute_cells", "runner.execute")
    # the executor's checkpoint writer; a module-private hook, wrapped
    # because the state file write has no public entry point
    log.wrap(executor, "_write_state", "executor.state_write")
    log.wrap(runner, "run_benchmark", "runner.cell")
    log.wrap(runner, "get_layout", "runner.get_layout")
    log.wrap(runner, "generate_layout", "generator.layout")
    log.wrap(runner, "build_machine", "policies.build_machine")
    log.wrap(cache, "run_key", "cache.run_key")
    log.wrap(cache, "load", "cache.load")
    log.wrap(cache, "store", "cache.store")
    log.wrap(RunManifest, "write", "manifest.write")
    log.wrap(ResultStore, "get", "store.get",
             size=lambda hit: 1.0 if hit is not None else 0.0)
    log.wrap(ResultStore, "put", "store.put")
    log.wrap(ResultStore, "put_trace", "store.put_trace")


def system_metrics(spans, cells: int, jobs: int) -> Dict[str, float]:
    """Per-layer system numbers from one traced pass over ``cells`` cells."""
    named = by_name(spans)

    def ms_p50(name: str) -> float:
        return 1000.0 * median(durations(named.get(name, [])))

    def total(name: str) -> float:
        return sum(durations(named.get(name, [])))

    def count(name: str) -> int:
        return len(named.get(name, []))

    per_cell = 1.0 / cells if cells else 0.0
    compile_cells = sum(s[3] for s in named.get("plan.compile", []))
    gets = named.get("store.get", [])
    out = {
        "workloads.generator.layout_s": total("generator.layout"),
        "workloads.generator.layouts": float(count("generator.layout")),
        "simulator.policies.build_machine_ms_p50":
            ms_p50("policies.build_machine"),
        "sweeps.plan.compile_ms_per_cell":
            1000.0 * total("plan.compile") / compile_cells
            if compile_cells else 0.0,
        "sweeps.executor.state_writes": float(count("executor.state_write")),
        "sweeps.executor.state_write_ms":
            1000.0 * total("executor.state_write"),
        "simulator.cache.run_key_us_p50":
            1e6 * median(durations(named.get("cache.run_key", []))),
        "simulator.cache.run_key_calls_per_cell":
            count("cache.run_key") * per_cell,
        "simulator.cache.load_ms_p50": ms_p50("cache.load"),
        "simulator.cache.store_ms_p50": ms_p50("cache.store"),
        "simulator.manifest.write_ms": 1000.0 * total("manifest.write"),
        "service.store.get_ms_p50": ms_p50("store.get"),
        "service.store.get_calls_per_cell": len(gets) * per_cell,
        "service.store.hit_frac":
            sum(s[3] for s in gets) / len(gets) if gets else 0.0,
        "service.store.put_ms_p50": ms_p50("store.put"),
        "service.store.put_calls": float(count("store.put")),
        "service.store.put_trace_ms": 1000.0 * total("store.put_trace"),
    }
    # pool: cell wall time over the slots the pool offered, and the delay
    # from dispatch to the first cell starting in a child
    phases = named.get("runner.execute", [])
    cell_spans = named.get("runner.cell", [])
    if phases:
        busy = sum(durations(cell_spans))
        out["simulator.runner.pool_busy_frac"] = busy / (
            jobs * sum(durations(phases)))
        starts = []
        for _, t0, t1, _ in phases:
            inside = [s[1] for s in cell_spans if t0 <= s[1] <= t1]
            if inside:
                starts.append(min(inside) - t0)
        out["simulator.runner.pool_start_s"] = median(starts)
    # host time inside Machine.run: the cell minus layout and machine set-up
    sim = (sum(durations(cell_spans)) - total("runner.get_layout")
           - total("policies.build_machine"))
    out["_sim_seconds"] = sim
    return out


# ----------------------------------------------------------------------
# grid-cold
# ----------------------------------------------------------------------
class GridCold:
    """A cold sweep on a local pool: nearly all host time is simulation."""

    name = "grid-cold"
    #: its times scale with the host's CPU speed (see ``HostSpeed``)
    host_bound = True
    imports = ("repro.sweeps.executor", "repro.sweeps.spec")

    def setup(self, ctx: Context) -> None:
        from repro.sweeps.spec import parse_spec

        self.specs = [parse_spec(inputs.cold_spec(ctx.seed, i))
                      for i in range(inputs.COLD_SWEEP_SETS)]
        self.pinned = ctx.pinned(self.name)
        self.windows: List[Tuple[float, float]] = []
        self.kinstr = 0.0

    def teardown(self) -> None:
        pass

    def sweep(self, ctx: Context, tally: Tally, index: int) -> float:
        """One cold sweep from an empty store and cache; returns its wall."""
        from repro.service.store import ResultStore
        from repro.sweeps import executor, plan

        ctx.fresh_cache()
        store = ResultStore(ctx.fresh("store"))
        try:
            start = time.perf_counter()
            report = executor.run_sweep(
                plan.compile_spec(self.specs[index % len(self.specs)]),
                store=store, jobs=ctx.jobs)
            end = time.perf_counter()
        finally:
            store.close()
        for cell, source, stats, _, _ in report.outcomes.values():
            label = cold_label(cell.benchmark, cell.policy, cell.seed)
            if not tally.check(source == "executed" and stats is not None,
                               "cell %s: %s" % (source, label)):
                continue
            tally.check(stats_digest(stats) == self.pinned[label],
                        "stats digest differs from pinned")
            self.kinstr += (cell.instructions + cell.warmup) / 1000.0
        self.windows.append((start, end))
        return end - start

    def run(self, ctx: Context, seconds: float, tally: Tally) -> Result:
        from repro.simulator import runner

        # each cell timed around the call a pool worker makes, from here
        # rather than by the wall time the program reports for it
        log = SpanLog(ctx.fresh("cells"))
        log.wrap(runner, "run_benchmark", "cell")
        # the host's speed sampled inside the pool workers, between the
        # simulation's own steps: a sampler in this idle process would
        # compete with them for the cores instead of sharing one
        simulate = runner.run_benchmark
        samplers: Dict[int, HostSpeed] = {}

        def probed(*args, **kwargs):
            speed = samplers.get(os.getpid())
            if speed is None:  # the first cell of this worker
                speed = samplers[os.getpid()] = HostSpeed().__enter__()
            result = simulate(*args, **kwargs)
            # written from here, not the sampler thread: a worker exits
            # without stopping its threads
            while speed.samples:
                end, rate = speed.samples.pop(0)
                log.record(("host", end, end, rate))
            return result

        runner.run_benchmark = probed
        try:
            timed_loop(seconds,
                       lambda: self.sweep(ctx, tally, len(self.windows)))
        finally:
            runner.run_benchmark = simulate
            log.restore()
        named = by_name(log.collect())
        rates = [rate for _, _, _, rate in named["host"]]
        # the median cell of each sweep, then the median over sweeps: every
        # sweep runs the same 16 kinds of cell, so the figure does not
        # move with how many sweeps fitted in the run
        sweep_p50 = [median([t1 - t0 for _, t0, t1, _ in named["cell"]
                             if start <= t0 <= end])
                     for start, end in self.windows]
        sim_kips = self.kinstr / sum(end - start
                                     for start, end in self.windows)
        return Result(sim_kips, 1000.0 * median(sweep_p50), [
            "  sim_kips                     %.4g kinstr/s over %d sweeps"
            % (sim_kips, len(self.windows)),
            describe("cell_s", durations(named["cell"]), "s"),
            describe("sweep_cell_s_p50", sweep_p50, "s"),
        ], host=median(rates) / HostSpeed.REFERENCE)

    def traced(self, ctx: Context, tally: Tally) -> Dict[str, float]:
        log = SpanLog(ctx.fresh("spans"))
        traced, plain = traced_pass(log, system_spans,
                                    lambda: self.sweep(ctx, tally, 0))
        seed = inputs.cold_seed(ctx.seed, 0)
        cells = [(b, p, seed, inputs.COLD_INSTRUCTIONS, inputs.COLD_WARMUP)
                 for b in inputs.COLD_BENCHMARKS for p in inputs.COLD_POLICIES]
        out = system_metrics(log.collect(), len(cells), ctx.jobs)
        out.update(profile_cells(
            ctx, cells, self.pinned,
            lambda b, p: cold_label(b, p, seed), tally))
        out["simulator.host_ns_per_cycle"] = (
            1e9 * out.pop("_sim_seconds") / out.pop("_cycles"))
        out["trace_overhead_frac"] = traced / plain - 1.0
        return out


def cold_label(benchmark: str, policy: str, seed: int) -> str:
    return "%s/%s/s%d" % (benchmark, policy, seed)


# ----------------------------------------------------------------------
# grid-warm
# ----------------------------------------------------------------------
class GridWarm:
    """A main_grid-shaped plan resolved from a full store: no simulation."""

    name = "grid-warm"
    host_bound = True
    imports = ("repro.sweeps.executor", "repro.sweeps.spec",
               "repro.experiments.common")

    def setup(self, ctx: Context) -> None:
        from repro.service.store import ResultStore
        from repro.simulator.stats import SimulationStats
        from repro.sweeps.plan import compile_spec
        from repro.sweeps.spec import parse_spec

        self.spec = parse_spec(inputs.warm_spec(ctx.seed))
        plan = compile_spec(self.spec)
        payloads = inputs.warm_payloads([c.key for c in plan.cells], ctx.seed)
        self.expected = {(c.benchmark, c.policy, c.seed):
                         stats_digest(payloads[c.key]) for c in plan.cells}
        root = ctx.fresh("store")
        with ResultStore(root) as store:
            for cell in plan.cells:
                store.put(cell.key, SimulationStats.from_dict(payloads[cell.key]),
                          meta={"benchmark": cell.benchmark,
                                "policy": cell.policy, "seed": cell.seed,
                                "instructions": cell.instructions,
                                "warmup": cell.warmup})
        self.root = root
        self.cells = len(plan.cells)
        self.windows: List[Tuple[float, float]] = []
        self.sweep_walls: List[float] = []
        self.figure_walls: List[float] = []

    def teardown(self) -> None:
        pass

    def once(self, ctx: Context, tally: Tally) -> float:
        """Resolve the plan through both warm entry points; returns the wall.

        ``run_sweep`` asks the store first. The figure path
        (``collect`` -> ``run_suite_parallel``) asks the local cache
        first: from an empty cache every cell is a store hit that is
        copied into the cache, and a second pass hits the cache.
        """
        from repro.experiments import common
        from repro.service.store import ResultStore
        from repro.sweeps import executor, plan
        from repro.workloads.profiles import BENCHMARK_NAMES

        caches = [ctx.fresh_cache()]
        os.environ["REPRO_STORE"] = str(self.root)
        store = ResultStore(self.root)
        try:
            start = time.perf_counter()
            report = executor.run_sweep(plan.compile_spec(self.spec),
                                        store=store, jobs=ctx.jobs)
            mid = time.perf_counter()
        finally:
            store.close()
        for cell, source, stats, _, _ in report.outcomes.values():
            ok = source == "store" and stats is not None and (
                stats_digest(stats) == self.expected[
                    (cell.benchmark, cell.policy, cell.seed)])
            tally.check(ok, "warm sweep cell differs from the stored one")
        caches.append(ctx.fresh_cache())
        fig_start = time.perf_counter()
        passes = []
        for _ in ("store hit", "cache hit"):
            for seed in self.spec.seeds:
                passes.append((seed, common.collect(
                    list(inputs.WARM_POLICIES), list(BENCHMARK_NAMES),
                    inputs.WARM_INSTRUCTIONS, inputs.WARM_WARMUP,
                    seed=seed)))
        end = time.perf_counter()
        for seed, rows in passes:
            for bench in BENCHMARK_NAMES:
                for policy in inputs.WARM_POLICIES:
                    stats = rows.get(bench, {}).get(policy)
                    tally.check(
                        stats is not None and stats_digest(stats)
                        == self.expected[(bench, policy, seed)],
                        "figure-path cell differs from the stored one")
        self.windows.append((start, end))
        self.sweep_walls.append(mid - start)
        self.figure_walls.append(end - fig_start)
        # an operation writes 1248 cache files; keeping every operation's
        # files until the run ended made each run slower than the one
        # before, so they go as soon as they are checked
        for cache in caches:
            shutil.rmtree(cache)
        return end - start

    def run(self, ctx: Context, seconds: float, tally: Tally) -> Result:
        timed_loop(seconds, lambda: self.once(ctx, tally))
        # each operation scaled by the host's speed over that operation
        # alone: the host drifts within a run as well as between runs
        factors = [ctx.speed.factor(start, end) for start, end in self.windows]
        walls = [s + f for s, f in zip(self.sweep_walls, self.figure_walls)]
        # one operation resolves the plan three times
        cells = 3 * self.cells * len(walls)
        rate = cells / sum(walls)
        scaled_rate = cells / sum(w * f for w, f in zip(walls, factors))
        figure_ms = 1000.0 * median(self.figure_walls)
        scaled_figure_ms = 1000.0 * median(
            [w * f for w, f in zip(self.figure_walls, factors)])
        sweep_rate = self.cells * len(walls) / sum(self.sweep_walls)
        figure_rate = 2 * self.cells * len(walls) / sum(self.figure_walls)
        return Result(rate, figure_ms, [
            "  warm_cells_per_s             %.4g cells/s (%d operations of "
            "3 x %d)" % (rate, len(walls), self.cells),
            "  warm_sweep_cells_per_s       %.4g cells/s" % sweep_rate,
            "  warm_figure_cells_per_s      %.4g cells/s" % figure_rate,
            describe("sweep_pass_s", self.sweep_walls, "s"),
            describe("figure_pass_s", self.figure_walls, "s"),
        ], host=rate / scaled_rate, latency_host=scaled_figure_ms / figure_ms)

    def traced(self, ctx: Context, tally: Tally) -> Dict[str, float]:
        log = SpanLog(ctx.fresh("spans"))
        traced, plain = traced_pass(log, system_spans,
                                    lambda: self.once(ctx, tally))
        # one pass resolves every cell three times: sweep, store-hit
        # figure pass, cache-hit figure pass
        spans = log.collect()
        out = system_metrics(spans, 3 * self.cells, ctx.jobs)
        out.pop("_sim_seconds")
        out["simulator.cache.writes_per_warm_cell"] = (
            len(by_name(spans).get("cache.store", [])) / (3.0 * self.cells))
        out["trace_overhead_frac"] = traced / plain - 1.0
        return out


# ----------------------------------------------------------------------
# trace-ingest
# ----------------------------------------------------------------------
class TraceIngest:
    """Ingest a ChampSim log, register it, simulate it as ``repro run`` does."""

    name = "trace-ingest"
    host_bound = True
    imports = ("repro.traces.ingest", "repro.traces.registry",
               "repro.simulator.runner")

    def setup(self, ctx: Context) -> None:
        path = ctx.fresh("log") / "branches.champsim"
        path.write_text(inputs.champsim_log(ctx.seed))
        self.path = path
        self.pinned = ctx.pinned(self.name)
        self.count = 0
        self.ingest_walls: List[float] = []
        self.sim_walls: List[float] = []
        self.round_walls: List[float] = []

    def teardown(self) -> None:
        pass

    def once(self, ctx: Context, tally: Tally) -> float:
        """Ingest into a fresh store, register, simulate both policies."""
        from repro.service.store import ResultStore
        from repro.simulator import runner
        from repro.traces import ingest, registry
        from repro.traces.downsample import DEFAULT_BUDGET, DEFAULT_WINDOW

        self.count += 1
        # a new name per pass, so every pass synthesizes its layout anew
        name = "pb-trace-%d" % self.count
        ctx.fresh_cache()
        root = ctx.fresh("store")
        os.environ["REPRO_STORE"] = str(root)
        store = ResultStore(root)
        try:
            start = time.perf_counter()
            report = ingest.ingest_path(str(self.path), store=store,
                                        name=name)
            ingested = time.perf_counter()
            tally.check(report.digest == self.pinned["trace"],
                        "ingested trace digest differs from pinned")
            registry.register_ingested(name, report, budget=DEFAULT_BUDGET,
                                       window=DEFAULT_WINDOW)
            for policy in inputs.TRACE_POLICIES:
                t0 = time.perf_counter()
                stats = runner.run_benchmark(
                    name, policy, instructions=inputs.TRACE_INSTRUCTIONS,
                    warmup=inputs.TRACE_WARMUP, store=store)
                self.sim_walls.append(time.perf_counter() - t0)
                tally.check(stats_digest(stats) == self.pinned[policy],
                            "trace cell digest differs from pinned")
            end = time.perf_counter()
        finally:
            store.close()
        self.ingest_walls.append(ingested - start)
        self.round_walls.append(end - start)
        self.last = (name, report)
        return end - start

    def run(self, ctx: Context, seconds: float, tally: Tally) -> Result:
        timed_loop(seconds, lambda: self.once(ctx, tally))
        rate = inputs.TRACE_RECORDS * len(self.ingest_walls) / sum(
            self.ingest_walls)
        kinstr = len(self.sim_walls) * (inputs.TRACE_INSTRUCTIONS
                                        + inputs.TRACE_WARMUP) / 1000.0
        return Result(rate, 1000.0 * median(self.round_walls), [
            "  ingest_events_per_s          %.4g records/s (%d ingests)"
            % (rate, len(self.ingest_walls)),
            "  sim_kips                     %.4g kinstr/s"
            % (kinstr / sum(self.sim_walls)),
            describe("round_s", self.round_walls, "s"),
        ])

    def traced(self, ctx: Context, tally: Tally) -> Dict[str, float]:
        from repro.traces import ingest

        def install(log: SpanLog) -> None:
            system_spans(log)
            log.wrap(ingest, "load_records", "traces.convert",
                     size=lambda result: len(result[1]))
            log.wrap(ingest, "derive_block_events", "traces.schema",
                     size=len)
            log.wrap(ingest, "downsample_events", "traces.downsample",
                     size=lambda result: result[1].events_in)
            log.wrap(ingest, "synthesize", "traces.synthesize")

        log = SpanLog(ctx.fresh("spans"))
        traced, plain = traced_pass(log, install,
                                    lambda: self.once(ctx, tally))
        spans = log.collect()
        out = system_metrics(spans, len(inputs.TRACE_POLICIES), ctx.jobs)
        named = by_name(spans)

        def rate(name: str) -> float:
            group = named.get(name, [])
            busy = sum(durations(group))
            return sum(s[3] for s in group) / busy if busy else 0.0

        out["traces.convert.records_per_s"] = rate("traces.convert")
        out["traces.schema.derive_events_per_s"] = rate("traces.schema")
        out["traces.downsample.events_per_s"] = rate("traces.downsample")
        out["traces.synthesize.synthesize_s"] = sum(
            durations(named.get("traces.synthesize", [])))
        name, report = self.last
        out["traces.downsample.kept_frac"] = (
            report.downsample.events_kept / report.downsample.events_in)
        cells = [(name, p, 1, inputs.TRACE_INSTRUCTIONS,
                  inputs.TRACE_WARMUP) for p in inputs.TRACE_POLICIES]
        out.update(profile_cells(ctx, cells, self.pinned,
                                 lambda b, p: p, tally))
        out["simulator.host_ns_per_cycle"] = (
            1e9 * out.pop("_sim_seconds") / out.pop("_cycles"))
        out["trace_overhead_frac"] = traced / plain - 1.0
        return out


# ----------------------------------------------------------------------
# service-submit
# ----------------------------------------------------------------------
class ServiceSubmit:
    """Two closed-loop clients against ``repro serve`` on one worker."""

    name = "service-submit"
    imports = ()  # the server start covers the imports
    #: a round trip is mostly the client's poll sleep, which does not
    #: scale with the host's speed, so its times are reported as measured
    host_bound = False
    proc: Optional[subprocess.Popen] = None
    #: one pool worker: the busy processes (worker plus server or client)
    #: stay within two cores
    SERVER_JOBS = 1
    #: steps per pass of the traced run (the first is a cold step)
    TRACED_STEPS = 48

    def setup(self, ctx: Context) -> None:
        self.schedule = inputs.submit_schedule(ctx.seed)
        self.pinned = ctx.pinned(self.name)
        env = dict(os.environ, PYTHONPATH=str(ctx.src))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--jobs", str(self.SERVER_JOBS),
             "--store", str(ctx.fresh("store"))],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(ctx.work))
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""  # type: ignore[union-attr]
        if "listening on http://" not in line:
            self.teardown()
            raise RuntimeError("repro serve did not start: %r" % line)
        self.port = int(line.split("listening on http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])
        self.samples: Dict[str, List[float]] = {"hit": [], "cold": []}
        self.jobs: List[Dict[str, object]] = []
        self.steps = 0

    def teardown(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            ServiceClient(port=self.port, timeout=10).drain()
        except (ServiceError, OSError, AttributeError):
            proc.terminate()
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(port=self.port, timeout=60)

    def drive(self, tally: Tally, seconds: Optional[float],
              steps: Optional[int]) -> float:
        """Run schedule steps in lock step on two threads until ``seconds``
        or ``steps`` run out; returns the wall time."""
        from repro.service.client import ServiceError

        state = {"go": True, "step": -1}
        start = time.perf_counter()
        lock = threading.Lock()

        def decide() -> None:
            state["step"] += 1
            if steps is not None:
                state["go"] = state["step"] < steps
            else:
                state["go"] = (time.perf_counter() - start < seconds
                               and state["step"] < len(self.schedule))

        barrier = threading.Barrier(2, action=decide)

        def loop(idx: int) -> None:
            try:
                steps_of(idx)
            except threading.BrokenBarrierError:
                pass
            except Exception as exc:  # noqa: BLE001 - thread boundary
                with lock:
                    tally.fail("client stopped: %r" % (exc,))
            finally:
                # a client that stops for any reason releases the other
                barrier.abort()

        def steps_of(idx: int) -> None:
            client = self.client()
            while True:
                barrier.wait()
                if not state["go"]:
                    return
                kind, *cells = self.schedule[state["step"]]
                cell = cells[idx]
                t0 = time.perf_counter()
                try:
                    job = client.submit(
                        cell.benchmark, cell.policy,
                        instructions=inputs.SUBMIT_INSTRUCTIONS,
                        warmup=inputs.SUBMIT_WARMUP, seed=cell.seed)
                    job = client.wait(str(job["id"]), timeout=120)
                    result = client.result(str(job["id"]))
                except (ServiceError, OSError, TimeoutError) as exc:
                    with lock:
                        tally.fail("request error: %s" % type(exc).__name__)
                    continue
                wall = time.perf_counter() - t0
                with lock:
                    ok = tally.check(
                        stats_digest(result["stats"]) == self.pinned[cell.label],
                        "served stats differ from pinned")
                    if ok:
                        self.samples[kind].append(wall)
                        self.jobs.append(job)

        threads = [threading.Thread(target=loop, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.steps += max(0, state["step"])
        return time.perf_counter() - start

    def run(self, ctx: Context, seconds: float, tally: Tally) -> Result:
        wall = self.drive(tally, seconds, None)
        done = len(self.samples["hit"]) + len(self.samples["cold"])
        hit_ms = 1000.0 * median(self.samples["hit"])
        return Result(done / wall, hit_ms, [
            "  round_trips_per_s            %.4g 1/s (%d steps)"
            % (done / wall, self.steps),
            describe("submit_hit_ms", self.samples["hit"], "ms", 1000.0),
            describe("submit_cold_s", self.samples["cold"], "s"),
        ])

    def traced(self, ctx: Context, tally: Tally) -> Dict[str, float]:
        from repro.service import client as client_mod

        def restart() -> None:
            # a fresh server and store, so the cold steps are cold again
            self.teardown()
            self.setup(ctx)

        # untraced, traced, untraced, as in traced_pass
        self.drive(tally, None, self.TRACED_STEPS)
        restart()
        before = self.client().health()["counters"]
        log = SpanLog(ctx.fresh("spans"))
        for attr in ("submit", "status", "wait", "result"):
            log.wrap(client_mod.ServiceClient, attr, "client." + attr)
        try:
            traced = self.drive(tally, None, self.TRACED_STEPS)
        finally:
            log.restore()
        after = self.client().health()["counters"]
        jobs = self.jobs
        restart()
        plain = self.drive(tally, None, self.TRACED_STEPS)
        named = by_name(log.collect())
        waits = sum(durations(named.get("client.wait", [])))
        polls = sum(durations(named.get("client.status", [])))
        submitted = after["submitted"] - before["submitted"]
        hits = [j for j in jobs if j.get("source") == "store"]
        executed = [j for j in jobs if j.get("source") not in ("store", "")]
        return {
            "service.client.submit_ms_p50":
                1000.0 * median(durations(named.get("client.submit", []))),
            "service.client.status_polls_per_job":
                len(named.get("client.status", []))
                / max(1, len(named.get("client.wait", []))),
            "service.client.poll_sleep_frac":
                (waits - polls) / waits if waits else 0.0,
            "service.server.queue_wait_ms_p50": 1000.0 * median(
                [float(j["started"]) - float(j["submitted"]) for j in jobs]),
            "service.server.hit_job_ms_p50": 1000.0 * median(
                [float(j["finished"]) - float(j["submitted"]) for j in hits]),
            "service.server.coalesced_frac":
                (after["coalesced"] - before["coalesced"]) / max(1, submitted),
            "service.server.store_hit_frac":
                (after["store_hits"] - before["store_hits"]) / max(1, submitted),
            "service.jobs.cell_wall_s_p50": median(
                [float(j["wall_time"]) for j in executed]),
            "trace_overhead_frac": traced / plain - 1.0,
        }


WORKLOADS = {w.name: w for w in (GridCold, GridWarm, TraceIngest,
                                 ServiceSubmit)}
