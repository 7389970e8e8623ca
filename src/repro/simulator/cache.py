"""On-disk result cache for simulation runs.

A full figure regeneration simulates hundreds of (benchmark x policy)
pairs; many figures share pairs (the baseline appears in every one). The
cache stores each run's :class:`~repro.simulator.stats.SimulationStats`
counters as JSON keyed by a hash of everything that determines the run
(benchmark, policy spec, instruction budget, seed, machine config), so a
pair simulates once per configuration and every bench reuses it.

Set the environment variable ``REPRO_CACHE_DIR`` to relocate the cache,
or ``REPRO_NO_CACHE=1`` to disable it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from repro.simulator.config import MachineConfig
from repro.simulator.policies import PolicySpec
from repro.simulator.stats import SimulationStats
from repro.utils import canonical_digest, freeze
from repro.workloads.profiles import get_profile

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".repro-results"

#: run-key payload version: bump when simulation semantics change in a
#: way that must invalidate previously stored results. The service
#: store (:mod:`repro.service.store`) records it as ``code_version``,
#: so its rows invalidate in lockstep with this cache.
RUN_KEY_VERSION = 3


def cache_dir() -> Path:
    """Directory holding cached run results."""
    return Path(os.environ.get("REPRO_CACHE_DIR", str(_DEFAULT_DIR)))


def cache_enabled() -> bool:
    """False when REPRO_NO_CACHE=1."""
    return os.environ.get("REPRO_NO_CACHE", "") != "1"


#: backward-compatible alias; the canonical form lives in repro.utils
_freeze = freeze


def run_key(benchmark: str, spec: PolicySpec, instructions: int, warmup: int,
            seed: int, config: Optional[MachineConfig]) -> str:
    """Stable hash of everything that determines a run's outcome.

    This is the one cell identity in the system: the on-disk cache file
    name, the manifest ``key`` column, and the service store's primary
    key are all this digest (see :func:`repro.utils.canonical_digest`).
    """
    payload = {
        "benchmark": benchmark,
        # include the full profile so retuning a benchmark invalidates
        # its cached runs
        "profile": freeze(get_profile(benchmark)),
        "spec": freeze(spec),
        "instructions": instructions,
        "warmup": warmup,
        "seed": seed,
        "config": freeze(config if config is not None else MachineConfig()),
        "version": RUN_KEY_VERSION,
    }
    return canonical_digest(payload)


def load(key: str) -> Optional[SimulationStats]:
    """Load cached stats for a run key (None on miss)."""
    if not cache_enabled():
        return None
    path = cache_dir() / (key + ".json")
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    return SimulationStats.from_dict(data)


def cleanup_stale_tmp(key: str) -> int:
    """Remove leftover ``<key>.*.tmp`` files; returns the count removed.

    A worker that dies mid-:func:`store` (crash, OOM kill) leaves its
    pid-unique temp file behind. The runner calls this before
    re-submitting a failed cell so the retry starts from a clean slate
    instead of accreting partial artifacts run after run.
    """
    removed = 0
    directory = cache_dir()
    if not directory.is_dir():
        return 0
    for tmp in directory.glob(key + ".*.tmp"):
        try:
            tmp.unlink()
            removed += 1
        except OSError:
            pass  # another retryer won the race; nothing left to clean
    return removed


def store(key: str, stats: SimulationStats) -> None:
    """Persist a run's stats under its key."""
    if not cache_enabled():
        return
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    data = stats.to_dict()
    # pid-unique temp name: concurrent writers (parallel suite runs in
    # separate processes) must not clobber each other mid-write
    tmp = directory / ("%s.%d.tmp" % (key, os.getpid()))
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    tmp.replace(directory / (key + ".json"))
