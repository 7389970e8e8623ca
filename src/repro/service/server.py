"""Async simulation job server over the parallel runner.

A long-lived, dependency-free service (``repro serve``) that schedules
simulation cells across a bounded :class:`ProcessPoolExecutor`, fronted
by a minimal HTTP/1.1 control plane on :func:`asyncio.start_server`
(no aiohttp, no http.server — requests are framed by hand). The shape
is an inference-serving results cache: submissions deduplicate against
the content-addressed :class:`~repro.simulator.cache.ResultStore` and
against identical in-flight jobs, a priority queue orders the backlog,
the queue is bounded (HTTP 429 past the limit), per-job timeouts and
worker crashes are retried with exponential backoff, and SIGTERM drains
gracefully — in-flight cells finish and persist before the process
exits 0.

Endpoints (all JSON)::

    GET  /healthz            server state, queue depth, counters, store info
    GET  /jobs               job summaries (newest last)
    POST /jobs               submit a cell; 202 queued / 200 coalesced or
                             store hit / 400 invalid / 429 queue full /
                             503 draining
    GET  /jobs/<id>          one job's status; ``?wait=S`` long-polls:
                             held until the job is terminal or S
                             seconds pass (S capped at MAX_WAIT_S),
                             then the same summary (400 if S is not
                             a number >= 0)
    GET  /jobs/<id>/result   the stats payload (409 until terminal)
    POST /jobs/<id>/cancel   cancel a queued (immediate) or running
                             (best-effort, takes effect at the next
                             attempt boundary) job
    POST /drain              begin graceful drain (also sent by SIGTERM)
    GET  /dash               the live dashboard page (text/html)
    GET  /dash/state         everything the dashboard renders, one JSON doc
    GET  /sweeps             registered sweep snapshots (dashboard order)
    POST /sweeps             register a sweep (202; id in the body)
    GET  /sweeps/<id>        one sweep's snapshot
    POST /sweeps/<id>/progress  executor progress push (counts + grid)

Scheduling: the backlog is a max-priority heap (higher ``priority``
first, FIFO within a priority — the service-level echo of the paper's
priority-directed theme). Worker slots are a semaphore; each job runs
attempts of :func:`repro.service.jobs.execute_cell` in the process
pool. A timeout or a crashed worker (``BrokenProcessPool``) resets the
pool — surviving tasks are unaffected because each attempt holds its
own future — and the job retries with doubling backoff until the retry
budget is spent, then reports ``failed`` with the last error. A store
write that fails (a full disk, a SQLite error) fails the job at once.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import signal
import sqlite3
import time
import urllib.parse
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Tuple

from repro.dash import build_state, render_page, sweep_rows
from repro.service.jobs import (
    Job,
    JobState,
    config_from_payload,
    execute_cell,
    normalize_submission,
    pool_child_init,
)
from repro.simulator import cache as result_cache
from repro.simulator.cache import ResultStore
from repro.simulator.stats import SimulationStats
from repro.utils import canonical_digest

#: default control-plane port (unregistered; override with --port)
DEFAULT_PORT = 8642
#: default submission backlog bound (queued jobs, not running ones)
DEFAULT_QUEUE_LIMIT = 256
#: default per-attempt retry budget beyond try #1
DEFAULT_RETRIES = 2
#: base exponential-backoff delay between attempts (seconds)
DEFAULT_BACKOFF_S = 0.25

#: cap on one ``GET /jobs/<id>?wait=S`` long-poll window (seconds)
MAX_WAIT_S = 30.0

_MAX_BODY = 1 << 20          # 1 MiB submission bodies are plenty
_MAX_HEADERS = 64
#: registered sweep snapshots kept in memory (oldest finished evicted)
MAX_SWEEPS = 32


class SimulationServer:
    """The job scheduler plus its HTTP control plane."""

    def __init__(self, store: Optional[ResultStore] = None,
                 jobs: int = 2,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 timeout: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_S,
                 allow_faults: bool = False) -> None:
        self.store = store
        self.worker_count = max(1, int(jobs))
        self.queue_limit = max(1, int(queue_limit))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.allow_faults = allow_faults

        self.jobs: Dict[str, Job] = {}
        self._order: List[str] = []            # submission order, for /jobs
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = 0
        self._wake = asyncio.Event()
        self._slots = asyncio.Semaphore(self.worker_count)
        self._running: set = set()             # live _run_job tasks
        self._by_key: Dict[str, str] = {}      # active cell key -> job id
        #: job id -> set when that job finishes; made only for waited jobs
        self._finished: Dict[str, asyncio.Event] = {}
        self._answering: set = set()           # handlers with a request read
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self.draining = False
        self._drained = asyncio.Event()
        self.sweeps: Dict[str, Dict[str, object]] = {}  # id -> snapshot
        self.counters: Dict[str, int] = {
            "submitted": 0, "executed": 0, "store_hits": 0,
            "coalesced": 0, "retries": 0, "timeouts": 0,
            "worker_crashes": 0, "failed": 0, "cancelled": 0,
            "sweeps_registered": 0,
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _make_pool(self) -> ProcessPoolExecutor:
        """The process pool that simulates cells (at start and on reset)."""
        return ProcessPoolExecutor(max_workers=self.worker_count,
                                   initializer=pool_child_init)

    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> Tuple[str, int]:
        """Open the pool and the listening socket; returns (host, port)."""
        self._pool = self._make_pool()
        self._server = await asyncio.start_server(self._handle_client,
                                                  host, port)
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())
        sock = self._server.sockets[0].getsockname()
        return sock[0], sock[1]

    async def serve_until_drained(self) -> None:
        """Block until a drain completes (SIGTERM or ``POST /drain``)."""
        await self._drained.wait()

    def request_drain(self) -> None:
        """Stop accepting submissions; finish the backlog, then exit."""
        if self.draining:
            return
        self.draining = True
        self._wake.set()

    async def _shutdown(self) -> None:
        """Dispatcher epilogue: wait for in-flight jobs, close everything."""
        if self._running:
            await asyncio.gather(*list(self._running),
                                 return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._answering:
            # every job is terminal now, so held long-polls are on their
            # way out (wait_closed() only waits for them from 3.12.1 on);
            # bounded, so a client that stopped reading cannot pin us
            await asyncio.wait(list(self._answering), timeout=MAX_WAIT_S)
        loop = asyncio.get_event_loop()
        if self._pool is not None:
            pool = self._pool
            await loop.run_in_executor(
                None, lambda: pool.shutdown(wait=True))
        if self.store is not None:
            await loop.run_in_executor(None, self.store.close)
        self._drained.set()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT begin a graceful drain (POSIX event loops)."""
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass  # non-POSIX loop; CLI still has POST /drain

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _enqueue(self, job: Job) -> None:
        self.jobs[job.id] = job
        self._order.append(job.id)
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        self._wake.set()

    def _queued_count(self) -> int:
        return sum(1 for j in self.jobs.values()
                   if j.state == JobState.QUEUED)

    async def _next_job(self) -> Optional[Job]:
        """Pop the highest-priority queued job; None once drained dry."""
        while True:
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                job = self.jobs[job_id]
                if job.state == JobState.QUEUED:
                    return job
                # cancelled while queued: tombstone, skip
            if self.draining:
                return None
            self._wake.clear()
            await self._wake.wait()

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                break
            await self._slots.acquire()
            if job.state != JobState.QUEUED:  # cancelled while waiting
                self._slots.release()
                continue
            task = asyncio.ensure_future(self._run_job(job))
            self._running.add(task)
            task.add_done_callback(self._running.discard)
        await self._shutdown()

    def _finish(self, job: Job, state: str, error: str = "") -> None:
        job.state = state
        job.error = error or job.error
        job.finished = time.time()
        if self._by_key.get(job.key) == job.id:
            del self._by_key[job.key]
        event = self._finished.pop(job.id, None)
        if event is not None:
            event.set()
        if state == JobState.FAILED:
            self.counters["failed"] += 1
        elif state == JobState.CANCELLED:
            self.counters["cancelled"] += 1

    async def _await_finish(self, job: Job, window: float) -> None:
        """Hold a long-poll until ``job`` is terminal or ``window`` s pass."""
        if window <= 0 or job.state in JobState.TERMINAL:
            return
        event = self._finished.get(job.id)
        if event is None:
            event = self._finished[job.id] = asyncio.Event()
        try:
            await asyncio.wait_for(event.wait(), window)
        except asyncio.TimeoutError:
            pass  # window spent: answer with the non-terminal summary

    async def _run_job(self, job: Job) -> None:
        try:
            if job.state != JobState.QUEUED:
                return
            job.state = JobState.RUNNING
            job.started = time.time()
            fault = "fault" in job.payload
            if self.store is not None and not fault:
                hit = await asyncio.get_event_loop().run_in_executor(
                    None, self.store.get, job.key)
                if hit is not None:
                    job.result = hit.to_dict()
                    job.source = "store"
                    self.counters["store_hits"] += 1
                    self._finish(job, JobState.DONE)
                    return
            await self._run_attempts(job)
        finally:
            self._slots.release()

    async def _run_attempts(self, job: Job) -> None:
        delay = self.backoff
        for attempt in range(1, self.retries + 2):
            job.attempts = attempt
            try:
                assert self._pool is not None
                future = asyncio.get_event_loop().run_in_executor(
                    self._pool, execute_cell, dict(job.payload))
                if self.timeout is not None:
                    result = await asyncio.wait_for(future, self.timeout)
                else:
                    result = await future
            except asyncio.TimeoutError:
                job.error = "attempt %d timed out after %.3gs" % (
                    attempt, self.timeout or 0.0)
                self.counters["timeouts"] += 1
                await self._reset_pool()
            except BrokenProcessPool as exc:
                job.error = "worker crashed: %r" % (exc,)
                self.counters["worker_crashes"] += 1
                await self._reset_pool()
            except Exception as exc:  # noqa: BLE001 - retried below
                job.error = repr(exc)
            else:
                if job.cancel_requested:
                    self._finish(job, JobState.CANCELLED,
                                 "cancelled while running")
                    return
                job.result = result["stats"]
                job.wall_time = float(result.get("wall_time", 0.0))
                job.source = result.get("worker", "worker")
                self.counters["executed"] += 1
                try:
                    await self._persist(job, result)
                except (OSError, sqlite3.Error) as exc:
                    # a full disk is no reason to simulate again; failing
                    # the job releases its waiters and frees its key
                    self._finish(job, JobState.FAILED,
                                 "store write failed: %r" % (exc,))
                    return
                self._finish(job, JobState.DONE)
                return
            if job.cancel_requested:
                self._finish(job, JobState.CANCELLED,
                             "cancelled while running")
                return
            if attempt <= self.retries:
                self.counters["retries"] += 1
                await asyncio.sleep(delay)
                delay *= 2
        self._finish(job, JobState.FAILED)

    async def _persist(self, job: Job, result: Dict[str, object]) -> None:
        """Write a finished cell into the store (off the event loop)."""
        if self.store is None or "fault" in job.payload:
            return
        stats = SimulationStats.from_dict(dict(job.result or {}))
        meta = {
            "benchmark": job.payload["benchmark"],
            "policy": job.payload["policy"],
            "seed": job.payload["seed"],
            "instructions": job.payload["instructions"],
            "warmup": job.payload["warmup"],
            "config_hash": result.get("config_hash", ""),
            "code_version": result_cache.RUN_KEY_VERSION,
            "wall_time": job.wall_time,
            "worker": job.source,
            "attempts": job.attempts,
            "job_id": job.id,
        }
        await asyncio.get_event_loop().run_in_executor(
            None, lambda: self.store.put(job.key, stats, meta=meta))

    async def _reset_pool(self) -> None:
        """Replace the process pool after a timeout or crash.

        A timed-out attempt leaves its worker wedged mid-simulation and
        a crashed worker breaks the whole executor; both are recovered
        the same way the parallel runner recovers a broken pool — throw
        it away and start fresh. Old workers are terminated so a wedged
        simulation cannot outlive its job.
        """
        async with self._pool_lock:
            old, self._pool = self._pool, self._make_pool()
        await asyncio.get_event_loop().run_in_executor(
            None, tear_down_pool, old)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def _submit(self, body: Dict[str, object]) -> Tuple[int, Dict[str, object]]:
        if self.draining:
            return 503, {"error": "server is draining"}
        try:
            payload = normalize_submission(body)
        except (ValueError, TypeError) as exc:
            return 400, {"error": str(exc)}
        if "fault" in payload and not self.allow_faults:
            return 403, {"error": "fault injection requires --allow-faults"}
        self.counters["submitted"] += 1
        if "fault" in payload:
            # fault jobs are never stored or coalesced; key on the whole
            # payload so two injected faults stay distinct jobs
            key = "fault-" + canonical_digest(payload)
        else:
            key = ResultStore.cell_key(
                payload["benchmark"], payload["policy"],
                int(payload["instructions"]), int(payload["warmup"]),
                seed=int(payload["seed"]),
                config=config_from_payload(payload.get("config")))
            active = self._by_key.get(key)
            if active is not None:
                self.counters["coalesced"] += 1
                job = self.jobs[active]
                return 200, {"job": job.summary(), "coalesced": True}
        if self._queued_count() >= self.queue_limit:
            return 429, {"error": "queue full (%d queued)"
                                  % self.queue_limit,
                         "retry_after_s": 1.0}
        self._seq += 1
        job = Job(id=uuid.uuid4().hex[:12], key=key, payload=payload,
                  priority=int(payload.get("priority", 0)), seq=self._seq,
                  submitted=time.time())
        if "fault" not in payload:
            self._by_key[key] = job.id
        self._enqueue(job)
        return 202, {"job": job.summary()}

    def _cancel(self, job: Job) -> Tuple[int, Dict[str, object]]:
        if job.state in JobState.TERMINAL:
            return 409, {"error": "job already %s" % job.state,
                         "job": job.summary()}
        if job.state == JobState.QUEUED:
            self._finish(job, JobState.CANCELLED, "cancelled while queued")
            return 200, {"job": job.summary()}
        # running: flag it; the attempt loop honours the flag at the next
        # attempt boundary (an executing simulation cannot be preempted)
        job.cancel_requested = True
        return 202, {"job": job.summary(), "note": "cancel requested; "
                     "takes effect at the attempt boundary"}

    # ------------------------------------------------------------------
    # sweep registry + dashboard
    # ------------------------------------------------------------------
    def _register_sweep(self, body: Dict[str, object]
                        ) -> Tuple[int, Dict[str, object]]:
        """Create a sweep snapshot for the dashboard; returns its id.

        The registry is bookkeeping, not scheduling — jobs flow through
        ``POST /jobs`` exactly as before; a sweep entry only aggregates
        the executor's progress pushes for display. Capped at
        :data:`MAX_SWEEPS` snapshots (terminal entries evicted first).
        """
        try:
            total = int(body.get("total", 0))  # type: ignore[arg-type]
        except (TypeError, ValueError):
            return 400, {"error": "total must be an integer"}
        if total < 0:
            return 400, {"error": "total must be >= 0"}
        sweep_id = uuid.uuid4().hex[:12]
        snapshot: Dict[str, object] = {
            "id": sweep_id,
            "name": str(body.get("name") or "sweep"),
            "plan_digest": str(body.get("plan_digest") or ""),
            "total": total,
            "benchmarks": [str(b) for b in body.get("benchmarks") or ()],
            "policies": [str(p) for p in body.get("policies") or ()],
            "state": "running",
            "created": time.time(),
            "updated": time.time(),
            "counts": {},
            "grid": {},
        }
        self.sweeps[sweep_id] = snapshot
        self.counters["sweeps_registered"] += 1
        while len(self.sweeps) > MAX_SWEEPS:
            victims = sorted(
                self.sweeps.values(),
                key=lambda s: (s["state"] == "running", s["created"]))
            del self.sweeps[str(victims[0]["id"])]
        return 202, {"sweep": snapshot}

    @staticmethod
    def _update_sweep(snapshot: Dict[str, object],
                      body: Dict[str, object]
                      ) -> Tuple[int, Dict[str, object]]:
        """Fold one executor progress push into a sweep snapshot."""
        state = body.get("state", snapshot["state"])
        if state not in ("running", "done", "failed"):
            return 400, {"error": "bad sweep state %r" % (state,)}
        counts = body.get("counts")
        if counts is not None:
            if not isinstance(counts, dict):
                return 400, {"error": "counts must be an object"}
            snapshot["counts"] = counts
        grid = body.get("grid")
        if grid is not None:
            if not isinstance(grid, dict):
                return 400, {"error": "grid must be an object"}
            snapshot["grid"] = grid
        snapshot["state"] = state
        snapshot["updated"] = time.time()
        return 200, {"sweep": snapshot}

    async def _dash_state(self) -> Dict[str, object]:
        """Assemble the ``GET /dash/state`` document (store off-loop)."""
        store_info: Optional[Dict[str, object]] = None
        if self.store is not None:
            loop = asyncio.get_event_loop()
            store_info = await loop.run_in_executor(None, self.store.info)
        running = sum(1 for j in self.jobs.values()
                      if j.state == JobState.RUNNING)
        server = {
            "state": "draining" if self.draining else "running",
            "workers": self.worker_count,
            "queue_limit": self.queue_limit,
        }
        gauges = {"queued": self._queued_count(), "running": running,
                  "jobs": len(self.jobs)}
        return build_state(server, self.counters, gauges, self.sweeps,
                           [self.jobs[j].summary() for j in self._order],
                           store=store_info)

    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: Optional[Dict[str, object]]
                     ) -> Tuple[int, Dict[str, object]]:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            running = sum(1 for j in self.jobs.values()
                          if j.state == JobState.RUNNING)
            store_info: Optional[Dict[str, object]] = None
            if self.store is not None:
                loop = asyncio.get_event_loop()
                store_info = await loop.run_in_executor(
                    None, self.store.info)
            return 200, {
                "state": "draining" if self.draining else "running",
                "workers": self.worker_count,
                "queued": self._queued_count(),
                "running": running,
                "jobs": len(self.jobs),
                "queue_limit": self.queue_limit,
                "counters": dict(self.counters),
                "store": store_info,
            }
        if method == "GET" and parts == ["jobs"]:
            return 200, {"jobs": [self.jobs[j].summary()
                                  for j in self._order]}
        if method == "POST" and parts == ["jobs"]:
            return self._submit(body or {})
        if method == "POST" and parts == ["drain"]:
            self.request_drain()
            return 202, {"state": "draining"}
        if method == "GET" and parts == ["dash"]:
            return 200, {"__html__": render_page()}
        if method == "GET" and parts == ["dash", "state"]:
            return 200, await self._dash_state()
        if method == "GET" and parts == ["sweeps"]:
            return 200, {"sweeps": sweep_rows(self.sweeps)}
        if method == "POST" and parts == ["sweeps"]:
            return self._register_sweep(body or {})
        if len(parts) >= 2 and parts[0] == "sweeps":
            sweep = self.sweeps.get(parts[1])
            if sweep is None:
                return 404, {"error": "no such sweep %r" % parts[1]}
            if method == "GET" and len(parts) == 2:
                return 200, {"sweep": sweep}
            if method == "POST" and parts[2:] == ["progress"]:
                return self._update_sweep(sweep, body or {})
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.jobs.get(parts[1])
            if job is None:
                return 404, {"error": "no such job %r" % parts[1]}
            if method == "GET" and len(parts) == 2:
                await self._await_finish(job, _wait_window(query))
                return 200, {"job": job.summary()}
            if method == "GET" and parts[2:] == ["result"]:
                if job.state != JobState.DONE:
                    return 409, {"error": "job is %s" % job.state,
                                 "job": job.summary()}
                return 200, {"id": job.id, "key": job.key,
                             "source": job.source, "stats": job.result}
            if method == "POST" and parts[2:] == ["cancel"]:
                return self._cancel(job)
        return 404, {"error": "no route for %s %s" % (method, path)}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        status, payload = 400, {"error": "malformed request"}
        task = asyncio.current_task()
        try:
            parsed = await _read_request(reader)
            if parsed is not None:
                self._answering.add(task)
                method, path, query, body = parsed
                status, payload = await self._route(method, path, query,
                                                    body)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            status, payload = 400, {"error": "bad request: %s" % exc}
        except Exception as exc:  # noqa: BLE001 - control plane must answer
            status, payload = 500, {"error": repr(exc)}
        try:
            _write_response(writer, status, payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away; nothing to tell it
        finally:
            writer.close()
            self._answering.discard(task)


def tear_down_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and discard it (crash/timeout path):
    a wedged simulation must not outlive its job."""
    processes = list(getattr(pool, "_processes", {}).values())
    for proc in processes:
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    try:
        pool.shutdown(wait=False)
    except Exception:  # noqa: BLE001 - best-effort teardown
        pass


_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            403: "Forbidden", 404: "Not Found", 409: "Conflict",
            429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            Optional[dict]]]:
    """Parse one HTTP/1.x request: (method, path, query, JSON body or
    None); the query string is split off the path into a dict."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise ValueError("bad request line %r" % line[:80])
    path, _, query = target.partition("?")
    length = 0
    for _ in range(_MAX_HEADERS):
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    else:
        raise ValueError("too many headers")
    if length > _MAX_BODY:
        raise ValueError("body too large (%d bytes)" % length)
    body = None
    if length:
        raw = await reader.readexactly(length)
        body = json.loads(raw.decode("utf-8"))
    return (method.upper(), path,
            dict(urllib.parse.parse_qsl(query, keep_blank_values=True)), body)


def _wait_window(query: Dict[str, str]) -> float:
    """The ``?wait=S`` long-poll window: 0.0 when absent, clamped to
    :data:`MAX_WAIT_S`; ``ValueError`` (a 400) unless S is a number >= 0."""
    raw = query.get("wait")
    if raw is None:
        return 0.0
    try:
        window = float(raw)
    except ValueError:
        window = float("nan")
    if not window >= 0:
        raise ValueError("wait must be a number of seconds >= 0, got %r"
                         % raw)
    return min(window, MAX_WAIT_S)


def _write_response(writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, object]) -> None:
    # a payload of {"__html__": text} is a page (the dashboard), not a
    # JSON document; everything else on the control plane stays JSON
    html = payload.get("__html__") if isinstance(payload, dict) else None
    if isinstance(html, str):
        body = html.encode("utf-8")
        content_type = "text/html; charset=utf-8"
    else:
        body = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    head = ("HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n\r\n"
            % (status, _REASONS.get(status, "Unknown"), content_type,
               len(body)))
    writer.write(head.encode("latin-1") + body)


async def _amain(host: str, port: int, server: SimulationServer,
                 announce: bool = True) -> int:
    bound_host, bound_port = await server.start(host, port)
    server.install_signal_handlers()
    if announce:
        store = (server.store.root if server.store is not None
                 else "(no store)")
        print("repro serve: listening on http://%s:%d  store=%s  "
              "workers=%d queue<=%d timeout=%s retries=%d"
              % (bound_host, bound_port, store, server.worker_count,
                 server.queue_limit, server.timeout, server.retries),
              flush=True)
    await server.serve_until_drained()
    if announce:
        print("repro serve: drained cleanly (%d executed, %d store hits, "
              "%d failed, %d cancelled)"
              % (server.counters["executed"], server.counters["store_hits"],
                 server.counters["failed"], server.counters["cancelled"]),
              flush=True)
    return 0


def serve(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
          store_root: Optional[str] = None, jobs: int = 2,
          queue_limit: int = DEFAULT_QUEUE_LIMIT,
          timeout: Optional[float] = None, retries: int = DEFAULT_RETRIES,
          backoff: float = DEFAULT_BACKOFF_S,
          allow_faults: bool = False, announce: bool = True) -> int:
    """Blocking entry point for ``repro serve``; returns the exit code."""
    store = ResultStore(store_root) if store_root else None
    server = SimulationServer(store=store, jobs=jobs,
                              queue_limit=queue_limit, timeout=timeout,
                              retries=retries, backoff=backoff,
                              allow_faults=allow_faults)
    return asyncio.run(_amain(host, port, server, announce=announce))
