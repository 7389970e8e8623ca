"""Job model shared by the simulation server, client, and CLI.

A *job* is one simulation cell — the same (benchmark, policy,
instructions, warmup, seed, config) tuple the suite runner fans out —
plus scheduling state: priority, attempts, timestamps, and a terminal
status. Jobs are identified twice: by a server-assigned ``id`` (opaque,
per-server) and by their cell ``key`` (the canonical run digest), which
is what the store and the deduplication logic use.

:func:`execute_cell` is the process-pool entry point: a module-level
function (picklable) that rebuilds the cell from its JSON payload and
simulates it with the ordinary runner internals. Fault injection
(``fault: crash|fail|hang``) exists for the failure-mode tests and the
CI smoke job and is refused by the server unless started with
``--allow-faults``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.simulator.config import MachineConfig
from repro.simulator.manifest import config_hash
from repro.simulator.policies import POLICIES
from repro.utils import pool_child_init  # noqa: F401  (re-export: historic home)
from repro.workloads.profiles import known_benchmark_names


class JobState:
    """Lifecycle: QUEUED -> RUNNING -> one of the terminal states."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})


#: fault kinds the worker honours (tests / CI smoke only)
FAULT_KINDS = frozenset({"crash", "fail", "hang"})


@dataclass
class Job:
    """One scheduled simulation cell (server-side bookkeeping)."""

    id: str
    key: str                    #: canonical cell digest (store key)
    payload: Dict[str, object]  #: normalized submission (see below)
    priority: int = 0           #: higher runs earlier
    seq: int = 0                #: FIFO tiebreak within a priority
    state: str = JobState.QUEUED
    attempts: int = 0
    error: str = ""
    source: str = ""            #: "store" | "worker" once DONE
    cancel_requested: bool = False
    submitted: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    wall_time: float = 0.0      #: seconds simulating (0.0 on a store hit)
    result: Optional[Dict[str, object]] = None  #: stats dict once DONE

    def summary(self) -> Dict[str, object]:
        """JSON form for ``GET /jobs`` (no result payload)."""
        data = dataclasses.asdict(self)
        data.pop("result")
        data.pop("payload")
        for name in ("benchmark", "policy", "seed", "instructions",
                     "warmup", "fault"):
            if name in self.payload:
                data[name] = self.payload[name]
        return data


def config_from_payload(overrides: Optional[Dict[str, object]]
                        ) -> Optional[MachineConfig]:
    """Build a MachineConfig from a submission's ``config`` overrides.

    Top-level keys override :class:`MachineConfig` fields; the nested
    ``hierarchy`` dict overrides ``HierarchyConfig`` fields. ``None``
    (or an empty dict) means the default machine. Raises ``ValueError``
    on unknown fields so a typo is a 400, not a silently-default run.
    """
    if not overrides:
        return None
    from repro.memory.hierarchy import HierarchyConfig

    overrides = dict(overrides)
    hier = overrides.pop("hierarchy", None)
    fields_ = {f.name for f in dataclasses.fields(MachineConfig)}
    unknown = set(overrides) - fields_
    if unknown:
        raise ValueError("unknown MachineConfig fields: %s"
                         % ", ".join(sorted(unknown)))
    if hier is not None:
        hier_fields = {f.name for f in dataclasses.fields(HierarchyConfig)}
        unknown = set(hier) - hier_fields
        if unknown:
            raise ValueError("unknown HierarchyConfig fields: %s"
                             % ", ".join(sorted(unknown)))
        overrides["hierarchy"] = HierarchyConfig(**hier)
    return MachineConfig(**overrides)


def normalize_submission(body: Dict[str, object]) -> Dict[str, object]:
    """Validate and default a ``POST /jobs`` body into a cell payload.

    Returns ``{benchmark, policy, instructions, warmup, seed, priority,
    config?, fault?, fault_seconds?}``; raises ``ValueError`` with a
    client-presentable message on anything malformed.
    """
    from repro.simulator.runner import DEFAULT_INSTRUCTIONS, DEFAULT_WARMUP

    if not isinstance(body, dict):
        raise ValueError("submission body must be a JSON object")
    benchmark = body.get("benchmark")
    if benchmark not in known_benchmark_names():
        raise ValueError("unknown benchmark %r (see 'repro list')"
                         % (benchmark,))
    policy = body.get("policy", "baseline")
    if policy not in POLICIES:
        raise ValueError("unknown policy %r (see 'repro list')" % (policy,))
    payload: Dict[str, object] = {
        "benchmark": benchmark,
        "policy": policy,
        "instructions": int(body.get("instructions",
                                     DEFAULT_INSTRUCTIONS)),
        "warmup": int(body.get("warmup", DEFAULT_WARMUP)),
        "seed": int(body.get("seed", 1)),
        "priority": int(body.get("priority", 0)),
    }
    if payload["instructions"] <= 0:
        raise ValueError("instructions must be positive")
    if payload["warmup"] < 0:
        raise ValueError("warmup must be non-negative")
    config = body.get("config")
    if config:
        config_from_payload(config)  # validate field names eagerly
        payload["config"] = config
    fault = body.get("fault")
    if fault is not None:
        if fault not in FAULT_KINDS:
            raise ValueError("unknown fault %r (one of %s)"
                             % (fault, ", ".join(sorted(FAULT_KINDS))))
        payload["fault"] = fault
        payload["fault_seconds"] = float(body.get("fault_seconds", 30.0))
    return payload




def execute_cell(payload: Dict[str, object]) -> Dict[str, object]:
    """Pool worker: simulate one cell from its normalized payload.

    Bypasses the result store (the server parent owns all
    persistence, so workers never write). Returns
    ``{stats, wall_time, worker, config_hash}``.
    """
    from repro.simulator.runner import run_benchmark

    fault = payload.get("fault")
    if fault == "crash":
        # simulate a worker death (SIGKILL/OOM): the pool breaks and the
        # server must recover it — an exception would be the wrong shape
        os._exit(17)
    if fault == "fail":
        raise RuntimeError("injected failure (fault=fail)")
    if fault == "hang":
        time.sleep(float(payload.get("fault_seconds", 30.0)))
        raise RuntimeError("injected hang outlived the job timeout")
    config = config_from_payload(payload.get("config"))
    t0 = time.perf_counter()
    stats = run_benchmark(payload["benchmark"], payload["policy"],
                          instructions=int(payload["instructions"]),
                          warmup=int(payload["warmup"]),
                          config=config, seed=int(payload["seed"]),
                          use_cache=False)
    return {
        "stats": stats.to_dict(),
        "wall_time": time.perf_counter() - t0,
        "worker": "pid:%d" % os.getpid(),
        "config_hash": config_hash(config),
    }

