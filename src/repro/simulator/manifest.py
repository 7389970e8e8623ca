"""Run manifests: per-cell telemetry for suite runs.

Every ``repro suite`` run emits one JSON manifest describing what
actually happened: one record per grid cell with its wall time, cache
hit/miss, worker id, attempt count, seed, and config hash, plus an
aggregate summary (hit rate, total simulation time, per-worker load).
The records are built from the grid's sweep report (see
:func:`repro.experiments.common.collect`); the manifest is the
observability needed to trust the parallel path — it shows how work was
distributed, what the store saved, and which cells were retried.

Manifests land in ``<cache dir>/manifests`` by default; relocate them
with ``REPRO_MANIFEST_DIR``. ``python -m repro manifest`` prints the
summary of the most recent manifest.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.simulator import cache as result_cache

#: manifest schema version (bump when the JSON layout changes)
#: v2: cells carry ``stats`` counter digests (diffable via ``repro diff``)
#: and, when REPRO_TELEMETRY is on, per-cell ``telemetry`` summaries
SCHEMA_VERSION = 2

#: per-process sequence number: one process may write several
#: manifests within a second (a library caller running several grids)
_SEQUENCE = itertools.count()


def manifest_dir() -> Path:
    """Directory holding run manifests."""
    env = os.environ.get("REPRO_MANIFEST_DIR", "")
    if env:
        return Path(env)
    return result_cache.cache_dir() / "manifests"


@dataclass
class CellRecord:
    """Telemetry for one (benchmark x policy x seed x config) cell."""

    benchmark: str
    policy: str
    seed: int
    instructions: int
    warmup: int
    key: str            #: run key of the cell (its result-store key)
    config_hash: str
    cache_hit: bool
    wall_time: float    #: seconds simulating (0.0 on a cache hit)
    worker: str         #: "main" for in-process, "pid:<n>" for pool workers
    attempts: int = 1   #: 1 = first try; >1 means transient retries
    status: str = "ok"  #: "ok" or "failed"
    error: str = ""
    #: counter digest of the cell's stats (schema v2); lets
    #: ``repro diff`` compare two manifests cell-by-cell
    stats: Optional[Dict[str, float]] = None
    #: telemetry summary (ring accounting + metric snapshot) when the
    #: run recorded with REPRO_TELEMETRY=1; None otherwise
    telemetry: Optional[Dict[str, object]] = None


@dataclass
class RunManifest:
    """One suite run's worth of cell records plus aggregate summary."""

    label: str = "suite"
    jobs: int = 1
    # run bookkeeping only, never simulation state
    started: float = field(default_factory=time.time)  # repro: lint-ignore[determinism-wallclock]
    finished: float = 0.0
    cells: List[CellRecord] = field(default_factory=list)
    path: Optional[Path] = None

    def add(self, record: CellRecord) -> None:
        """Append one cell record."""
        self.cells.append(record)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Aggregate stats over the recorded cells."""
        hits = sum(1 for c in self.cells if c.cache_hit)
        misses = len(self.cells) - hits
        failures = sum(1 for c in self.cells if c.status != "ok")
        retries = sum(max(0, c.attempts - 1) for c in self.cells)
        sim_time = sum(c.wall_time for c in self.cells)
        workers: Dict[str, int] = {}
        for c in self.cells:
            if not c.cache_hit:
                workers[c.worker] = workers.get(c.worker, 0) + 1
        finished = self.finished or time.time()  # repro: lint-ignore[determinism-wallclock]
        return {
            "cells": len(self.cells),
            "cache_hits": hits,
            "cache_misses": misses,
            "hit_rate": hits / len(self.cells) if self.cells else 0.0,
            "failures": failures,
            "retries": retries,
            "sim_wall_time_s": sim_time,
            "max_cell_time_s": max((c.wall_time for c in self.cells),
                                   default=0.0),
            "elapsed_s": max(0.0, finished - self.started),
            "workers": workers,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (schema v1)."""
        return {
            "schema": SCHEMA_VERSION,
            "label": self.label,
            "jobs": self.jobs,
            "started": self.started,
            "finished": self.finished or time.time(),  # repro: lint-ignore[determinism-wallclock]
            "summary": self.summary(),
            "cells": [dataclasses.asdict(c) for c in self.cells],
        }

    def write(self, path: Optional[Path] = None) -> Path:
        """Persist the manifest as JSON; returns the path."""
        self.finished = self.finished or time.time()  # repro: lint-ignore[determinism-wallclock]
        if path is None:
            directory = manifest_dir()
            directory.mkdir(parents=True, exist_ok=True)
            stamp = time.strftime("%Y%m%d-%H%M%S",
                                  time.localtime(self.started))
            path = directory / ("run-%s-%d-%d.json"
                                % (stamp, os.getpid(), next(_SEQUENCE)))
        else:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp%d" % os.getpid())
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
        tmp.replace(path)
        self.path = path
        return path


# ----------------------------------------------------------------------
# reading manifests back
# ----------------------------------------------------------------------
def load(path: Path) -> Dict[str, object]:
    """Load a manifest JSON file."""
    with open(path) as fh:
        return json.load(fh)


def latest() -> Optional[Path]:
    """Path of the most recently written manifest (None if there are none)."""
    directory = manifest_dir()
    if not directory.is_dir():
        return None
    candidates = sorted(directory.glob("run-*.json"),
                        key=lambda p: p.stat().st_mtime)
    return candidates[-1] if candidates else None


def render_summary(data: Dict[str, object]) -> str:
    """Human-readable digest of a loaded manifest."""
    summary = data.get("summary", {})
    lines = [
        "manifest: %s (jobs=%s, schema v%s)"
        % (data.get("label", "?"), data.get("jobs", "?"),
           data.get("schema", "?")),
        "  cells        %d  (hits %d / misses %d, hit rate %.0f%%)"
        % (summary.get("cells", 0), summary.get("cache_hits", 0),
           summary.get("cache_misses", 0),
           100.0 * summary.get("hit_rate", 0.0)),
        "  sim time     %.2fs total, %.2fs max cell, %.2fs elapsed"
        % (summary.get("sim_wall_time_s", 0.0),
           summary.get("max_cell_time_s", 0.0),
           summary.get("elapsed_s", 0.0)),
        "  retries      %d   failures %d"
        % (summary.get("retries", 0), summary.get("failures", 0)),
    ]
    workers = summary.get("workers", {})
    if workers:
        per = ", ".join("%s:%d" % (w, n) for w, n in sorted(workers.items()))
        lines.append("  workers      " + per)
    return "\n".join(lines)
