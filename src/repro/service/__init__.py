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
  entry point.

Layering: ``service`` sits above ``simulator`` (it reuses the runner
internals and the result store) and below nothing — no simulation
or model code may import it (enforced by ``repro lint``).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobState, execute_cell
from repro.service.server import DEFAULT_PORT, SimulationServer, serve
from repro.service.store import ResultStore

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobState",
    "ResultStore",
    "ServiceClient",
    "ServiceError",
    "SimulationServer",
    "execute_cell",
    "serve",
]
