"""Simulation service: durable result store + async job server.

The serving layer above the parallel suite runner (DESIGN.md §13):

* :mod:`repro.service.store` — the content-addressed result store
  (SQLite index + blob directory, keyed by the canonical cell digest
  shared with the run manifests), re-exported from
  :mod:`repro.simulator.cache`;
* :mod:`repro.service.server` — a long-lived asyncio job server
  (``repro serve``) with a priority queue, a bounded process-pool of
  simulation workers, per-job timeouts, bounded retries with backoff,
  queue-full backpressure, and graceful SIGTERM drain;
* :mod:`repro.service.client` — the stdlib-only HTTP client behind
  ``repro submit`` / ``repro jobs``;
* :mod:`repro.service.jobs` — the job model and the picklable worker
  entry point;
* :mod:`repro.service.cluster` — the scale-out layer: a coordinator
  (``repro serve --coordinator``) that dispatches cells to registered
  ``repro worker`` processes with heartbeat liveness, consistent-hash
  sharding of the store by run digest, work stealing, and
  retry-on-another-worker when a worker is lost mid-job.

Layering: ``service`` sits above ``simulator`` (it reuses the runner
internals and the result store) and below nothing — no simulation
or model code may import it (enforced by ``repro lint``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.cluster import (
    Coordinator,
    HashRing,
    WorkerNode,
    run_worker,
    serve_coordinator,
)
from repro.service.jobs import Job, JobState, execute_cell
from repro.service.server import DEFAULT_PORT, SimulationServer, serve
from repro.service.store import ResultStore

__all__ = [
    "DEFAULT_PORT",
    "Coordinator",
    "HashRing",
    "Job",
    "JobState",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "SimulationServer",
    "WorkerNode",
    "execute_cell",
    "run_worker",
    "serve",
    "serve_coordinator",
]
