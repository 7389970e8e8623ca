"""Cell runner: simulate benchmark x policy cells and compare IPC.

Layouts are generated once per (benchmark, seed) and shared across
policies (the same binary runs under every configuration, like the
paper's experiments); each policy still gets its own machine, caches,
and predictors. :func:`get_layout` memoizes the generated layouts —
simulation never mutates a layout, so sharing one object is safe.

Grids are embarrassingly parallel: every cell is an independent
simulation. :func:`execute_cells` runs a grid's store misses through
:func:`simulate_cell`, the one cell worker (the job server's too),
across a :class:`~concurrent.futures.ProcessPoolExecutor`, retrying
transient worker failures with bounded backoff. It is the local pool of
the sweep executor (:mod:`repro.sweeps.executor`), the one grid path:
figures, ``repro sweep run`` and ``repro suite`` all resolve their
grids there (the latter two through
:func:`repro.experiments.common.collect`).

The worker count resolves explicit argument > ``REPRO_JOBS`` env >
serial (see :func:`resolve_jobs`).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.simulator.config import MachineConfig, config_from_payload, config_hash
from repro.simulator.policies import build_machine, get_policy
from repro.simulator.stats import SimulationStats
from repro.utils import pool_child_init
from repro.workloads.generator import generate_layout
from repro.workloads.layout import CodeLayout
from repro.workloads.profiles import external_benchmark, get_profile

#: default measured instructions (the paper runs 100M in gem5; the pure-
#: Python model uses a scaled-down budget — long enough for the PDIP
#: table, BTB, and caches to converge, see DESIGN.md)
DEFAULT_INSTRUCTIONS = 400_000
DEFAULT_WARMUP = 120_000

#: retry budget for transient worker failures (per cell, beyond try #1),
#: in the sweep executor's local pool and the job server alike
DEFAULT_RETRIES = 2
#: base backoff between retry rounds, doubled each round
DEFAULT_BACKOFF_S = 0.25

#: memoized layouts, keyed by (benchmark, seed); layouts are immutable
#: during simulation (walkers keep their own pattern/call-stack state)
_LAYOUT_CACHE: Dict[Tuple[str, int], CodeLayout] = {}


def get_layout(benchmark: str, seed: int = 1) -> CodeLayout:
    """The (memoized) synthetic binary for ``(benchmark, seed)``.

    Repeated calls return the *same* object, so every policy in a suite
    walks the identical layout.
    """
    key = (benchmark, seed)
    layout = _LAYOUT_CACHE.get(key)
    if layout is None:
        ext = external_benchmark(benchmark)
        if ext is not None:
            layout = ext.layout_builder(seed)
        else:
            layout = generate_layout(get_profile(benchmark), seed=seed)
        _LAYOUT_CACHE[key] = layout
    return layout


def clear_layout_cache() -> None:
    """Drop memoized layouts (tests; profile retuning)."""
    _LAYOUT_CACHE.clear()


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Worker count: explicit argument > ``REPRO_JOBS`` env > ``default``."""
    if jobs is not None:
        return max(1, int(jobs))
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError("REPRO_JOBS must be an integer, got %r" % env)
    return max(1, int(default))


def run_benchmark(benchmark: str, policy: str,
                  instructions: int = DEFAULT_INSTRUCTIONS,
                  warmup: int = DEFAULT_WARMUP,
                  config: Optional[MachineConfig] = None,
                  seed: int = 1,
                  use_cache: bool = True,
                  telemetry=None,
                  store=None) -> SimulationStats:
    """Simulate one benchmark under one policy and return its stats.

    Results are memoized in the result store (see
    :mod:`repro.simulator.cache`): ``store``, or the default store
    (:func:`~repro.simulator.cache.open_store`) when it is None. Pass
    ``use_cache=False`` to force a fresh simulation; it is then written
    only to a ``store`` passed in, labelled ``run`` (see
    :func:`cell_meta`).

    ``telemetry`` (a :class:`repro.telemetry.TelemetrySession`) attaches
    a trace recorder for the duration of the run and harvests component
    counters at detach. A telemetry run always simulates (the recorder
    needs the events), so the store *read* is bypassed — the stats are
    bit-identical either way, so the result is still stored.
    """
    from repro.simulator import cache as result_cache

    profile = get_profile(benchmark)
    spec = get_policy(policy) if isinstance(policy, str) else policy
    if store is None and use_cache:
        store = result_cache.open_store()
    # a pool worker (no store, no lookup) never needs the key
    key = (result_cache.run_key(benchmark, spec, instructions, warmup, seed,
                                config) if store is not None else "")
    if use_cache and telemetry is None:
        hit = store.get(key)
        if hit is not None:
            return hit
    # wall time is store-row metadata, never simulation state
    t0 = time.perf_counter()  # repro: lint-ignore[determinism-wallclock]
    layout = get_layout(benchmark, seed=seed)
    machine = build_machine(layout, profile, spec, config=config, seed=seed)
    if telemetry is not None:
        telemetry.attach(machine)
    try:
        stats = machine.run(instructions, warmup=warmup)
    finally:
        if telemetry is not None:
            telemetry.detach(machine)
    if store is not None:
        # repro: lint-ignore[determinism-wallclock]
        wall = time.perf_counter() - t0
        store.put(key, stats, meta=cell_meta(
            benchmark, spec.name, seed, instructions, warmup, config,
            wall_time=wall, worker="main", attempts=1, label="run"))
    return stats


def cell_meta(benchmark: str, policy: str, seed: int, instructions: int,
              warmup: int, config: Optional[MachineConfig], wall_time: float,
              worker: str, attempts: int, label: str) -> Dict[str, object]:
    """The store-row metadata of one simulated cell, one shape for all.

    :func:`run_benchmark`, the sweep executor and the job server pass it
    to :meth:`~repro.simulator.cache.ResultStore.put`, which stores it as
    the row's ``meta``. ``label`` names the writer: ``run``,
    ``sweep:<name>`` or ``job:<id>``.
    """
    return {"benchmark": benchmark, "policy": policy, "seed": seed,
            "instructions": instructions, "warmup": warmup,
            "config_hash": config_hash(config), "wall_time": wall_time,
            "worker": worker, "attempts": attempts, "label": label}


# ----------------------------------------------------------------------
# grid execution
# ----------------------------------------------------------------------
def simulate_cell(payload: Mapping[str, Any]
                  ) -> Tuple[SimulationStats, float, str, Optional[dict]]:
    """Pool worker: simulate one cell from its wire form, store bypassed.

    ``payload`` is :meth:`~repro.sweeps.plan.PlanCell.payload` or a
    server job's normalized payload; the caller filtered the store hits
    and writes the result. Returns ``(stats, wall_time, "pid:<n>",
    telemetry)``. With ``REPRO_TELEMETRY`` on, the cell records through
    its own :class:`~repro.telemetry.TelemetrySession` and ``telemetry``
    is its summary; otherwise it is None (the null-handle path).
    """
    from repro.telemetry import TelemetrySession, telemetry_enabled

    session = TelemetrySession.from_env() if telemetry_enabled() else None
    # wall time is store-row metadata, never simulation state
    t0 = time.perf_counter()  # repro: lint-ignore[determinism-wallclock]
    # looked up in this module's globals at call time, so a wrapper set
    # on ``runner.run_benchmark`` before the pool forks reaches workers
    stats = run_benchmark(payload["benchmark"], get_policy(payload["policy"]),
                          instructions=payload["instructions"],
                          warmup=payload["warmup"],
                          config=config_from_payload(payload.get("config")),
                          seed=payload["seed"], use_cache=False,
                          telemetry=session)
    # repro: lint-ignore[determinism-wallclock]
    wall = time.perf_counter() - t0
    summary = session.summary() if session is not None else None
    return stats, wall, "pid:%d" % os.getpid(), summary


def execute_cells(pending: Mapping[str, dict], jobs: int, retries: int,
                  ) -> Tuple[Dict[str, Tuple[SimulationStats, float, str,
                                             Optional[dict]]],
                             Dict[str, int], Dict[str, str]]:
    """Run the store-miss cells, in-process (``jobs==1``) or in a pool.

    ``pending`` maps run-key to payload (see :func:`simulate_cell`).
    Returns ``(results, attempts, errors)`` where ``results`` maps
    run-key to ``(stats, wall_time, worker_id, telemetry_summary)``.
    Cells that raised are retried up to ``retries`` extra rounds with
    doubling backoff (a fresh pool each round, so a broken pool is also
    recovered); cells still failing land in ``errors``.
    """
    remaining = dict(pending)
    results: Dict[str, Tuple[SimulationStats, float, str, Optional[dict]]] = {}
    attempts: Dict[str, int] = {key: 0 for key in pending}
    errors: Dict[str, str] = {}
    for round_no in range(retries + 1):
        if not remaining:
            break
        if round_no:
            time.sleep(DEFAULT_BACKOFF_S * (2 ** (round_no - 1)))
        failed: Dict[str, dict] = {}
        errors = {}
        if jobs <= 1:
            for key, payload in remaining.items():
                attempts[key] += 1
                try:
                    stats, wall, _, tel = simulate_cell(payload)
                    results[key] = (stats, wall, "main", tel)
                except Exception as exc:  # noqa: BLE001 - retried below
                    failed[key] = payload
                    errors[key] = repr(exc)
        else:
            with ProcessPoolExecutor(max_workers=jobs,
                                     initializer=pool_child_init) as pool:
                futures = {pool.submit(simulate_cell, payload): key
                           for key, payload in remaining.items()}
                for future in as_completed(futures):
                    key = futures[future]
                    attempts[key] += 1
                    try:
                        results[key] = future.result()
                    except Exception as exc:  # noqa: BLE001 - retried below
                        failed[key] = remaining[key]
                        errors[key] = repr(exc)
        remaining = failed
    return results, attempts, errors


def speedup(stats: SimulationStats, baseline: SimulationStats) -> float:
    """IPC speedup of ``stats`` over ``baseline`` (1.0 = no change)."""
    if baseline.ipc == 0:
        raise ValueError("baseline IPC is zero")
    return stats.ipc / baseline.ipc

