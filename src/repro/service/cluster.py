"""Scale-out simulation cluster: coordinator + sharded workers.

PDIP's headline results come from policy x benchmark x config sweeps;
:mod:`repro.service.server` (PR 5) serves them from one process with
one local pool. This module promotes that server to a *coordinator*
(``repro serve --coordinator``) that dispatches cells to N registered
*workers* (``repro worker``) so a million-cell sweep saturates every
machine it is given — while the store-dedup and in-flight-coalescing
guarantees of the single-node service hold cluster-wide.

Topology and protocol (all stdlib, the same hand-framed HTTP/1.1 the
single-node server speaks)::

    client ──POST /jobs──▶ coordinator ──POST /execute──▶ worker 0
                              │   ▲                        worker 1
             registration ────┘   └── heartbeats           worker N
             POST /workers/register   POST /workers/<id>/heartbeat

* **Registration + heartbeats.** A worker starts its own listener,
  then registers ``{host, port, slots, name}`` with the coordinator
  and heartbeats on the interval the coordinator hands back. A lapsed
  heartbeat (or a connection failure mid-dispatch) marks the worker
  dead: it leaves the shard ring and every cell in flight on it is
  requeued and retried on a surviving worker. A zombie worker whose
  heartbeat is answered 410 re-registers from scratch.
* **Consistent-hash sharding.** The content-addressed store is sharded
  across workers by the canonical run digest: :class:`HashRing` (SHA-1
  points, virtual nodes) maps each cell key to its *owner*, which
  holds the key's blob in its local :class:`~repro.service.store
  .ResultStore` shard and preferentially executes it. Worker
  join/leave remaps only the keys the ring assigns to/from that worker
  (property-tested), so a warm fleet stays warm through membership
  churn. Shard loss is cache loss, never wrong results — lost keys
  simply re-execute on next submission.
* **Work stealing.** Scheduling prefers a cell's shard owner, but when
  the owner's slots are full and another worker idles, the idle worker
  takes the cell (counted in ``counters["steals"]``) — the fleet never
  serializes behind one hot shard.
* **Failure ladder.** A worker-*reported* failure (attempt timeout,
  crashed pool process, injected fault) consumes the job's retry
  budget with exponential backoff, exactly like single-node attempts.
  A worker *loss* (connection drop, heartbeat lapse) does not: the
  cell is requeued at its original position and dispatched to another
  worker, because losing a machine is a liveness event, not evidence
  the cell is bad.

The single-node ``repro serve`` is untouched and remains the
degenerate case: a coordinator plus one worker produces byte-identical
digests and results, test-enforced. Dedup/coalescing stay
coordinator-scope: every submission passes through one ``_by_key``
map and one shard lookup, so two submissions of one digest execute
once cluster-wide.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import heapq
import json
import os
import signal
import time
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.service.jobs import Job, JobState, execute_cell, pool_child_init
from repro.service.server import (
    DEFAULT_BACKOFF_S,
    DEFAULT_PORT,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_RETRIES,
    SimulationServer,
    _read_request,
    _write_response,
    tear_down_pool,
)
from repro.service.store import ResultStore
from repro.simulator import cache as result_cache
from repro.simulator.stats import SimulationStats

#: virtual nodes per worker on the shard ring
DEFAULT_REPLICAS = 128
#: seconds between worker heartbeats (coordinator-configured; workers
#: adopt the value returned by registration)
DEFAULT_HEARTBEAT_INTERVAL = 1.0
#: heartbeat silence after which a worker is declared dead
DEFAULT_HEARTBEAT_TIMEOUT = 5.0


# ----------------------------------------------------------------------
# consistent-hash ring
# ----------------------------------------------------------------------
class HashRing:
    """Consistent hashing of run digests onto worker names.

    Each node contributes ``replicas`` SHA-1 points on a 64-bit ring; a
    key is owned by the first node point clockwise of the key's own
    point. Properties the tests enforce: ownership is independent of
    insertion order, load is balanced within tolerance for 1–16 nodes,
    and adding/removing a node remaps only the keys that move to/from
    that node.
    """

    def __init__(self, replicas: int = DEFAULT_REPLICAS) -> None:
        self.replicas = max(1, int(replicas))
        self._points: List[int] = []      # sorted ring points
        self._owners: List[str] = []      # node at the same index
        self._nodes: Set[str] = set()

    @staticmethod
    def _point(label: str) -> int:
        digest = hashlib.sha1(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    @property
    def nodes(self) -> Set[str]:
        return set(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Insert ``node``'s virtual points (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for i in range(self.replicas):
            point = self._point("%s#%d" % (node, i))
            idx = bisect.bisect(self._points, point)
            # ties between distinct nodes are broken by name so the
            # ring is insertion-order independent
            while (idx < len(self._points) and self._points[idx] == point
                   and self._owners[idx] < node):
                idx += 1
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    def remove(self, node: str) -> None:
        """Drop ``node``'s virtual points (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def owner(self, key: str) -> Optional[str]:
        """The node owning ``key`` (None on an empty ring)."""
        if not self._points:
            return None
        idx = bisect.bisect(self._points, self._point(key))
        if idx == len(self._points):
            idx = 0
        return self._owners[idx]

    def preference(self, key: str, n: Optional[int] = None) -> List[str]:
        """Distinct nodes in ring order from ``key`` (failover order)."""
        if not self._points:
            return []
        want = len(self._nodes) if n is None else min(n, len(self._nodes))
        start = bisect.bisect(self._points, self._point(key))
        seen: List[str] = []
        for i in range(len(self._points)):
            node = self._owners[(start + i) % len(self._points)]
            if node not in seen:
                seen.append(node)
                if len(seen) == want:
                    break
        return seen


# ----------------------------------------------------------------------
# hand-framed async HTTP (coordinator -> worker, worker -> coordinator)
# ----------------------------------------------------------------------
async def _http_json(host: str, port: int, method: str, path: str,
                     body: Optional[Dict[str, object]] = None,
                     timeout: Optional[float] = 10.0,
                     ) -> Tuple[int, Dict[str, object]]:
    """One JSON request on a fresh connection; ``(status, payload)``.

    Raises ``OSError``/``ConnectionError`` on transport failure,
    ``asyncio.TimeoutError`` past ``timeout`` (None waits forever —
    used for dispatches whose duration is the simulation itself; the
    heartbeat monitor is the liveness backstop there).
    """
    async def _talk() -> Tuple[int, Dict[str, object]]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            data = (json.dumps(body).encode("utf-8")
                    if body is not None else b"")
            head = ("%s %s HTTP/1.1\r\nHost: %s\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: %d\r\nConnection: close\r\n\r\n"
                    % (method, path, host, len(data)))
            writer.write(head.encode("latin-1") + data)
            await writer.drain()
            line = await reader.readline()
            if not line:
                raise ConnectionError("empty response from %s:%d"
                                      % (host, port))
            status = int(line.decode("latin-1").split(None, 2)[1])
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value.strip())
            raw = await reader.readexactly(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
            return status, payload
        finally:
            writer.close()

    if timeout is None:
        return await _talk()
    return await asyncio.wait_for(_talk(), timeout)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class WorkerHandle:
    """The coordinator's view of one registered worker."""

    id: str
    host: str
    port: int
    slots: int
    pid: int = 0
    state: str = "alive"          #: "alive" | "dead"
    registered: float = 0.0
    last_seen: float = 0.0
    heartbeats: int = 0
    executed: int = 0
    stolen: int = 0               #: cells this worker took from a busy owner
    #: job id -> the dispatch task awaiting this worker
    in_flight: Dict[str, "asyncio.Task"] = field(default_factory=dict)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self.in_flight)

    def summary(self) -> Dict[str, object]:
        return {
            "id": self.id, "host": self.host, "port": self.port,
            "slots": self.slots, "pid": self.pid, "state": self.state,
            "registered": self.registered, "last_seen": self.last_seen,
            "heartbeats": self.heartbeats, "executed": self.executed,
            "stolen": self.stolen, "in_flight": sorted(self.in_flight),
        }


class Coordinator(SimulationServer):
    """A :class:`SimulationServer` that executes on remote workers.

    Reuses the whole single-node control plane — submission
    validation, canonical cell keys, priority heap, coalescing,
    cancel, drain — and replaces the execution backend: no local
    process pool; cells are pushed to registered workers over HTTP,
    shard-owner first, stolen by idle workers otherwise. Results
    persist into the shard ring (the owner's local store), and a
    worker loss requeues its in-flight cells onto survivors.
    """

    def __init__(self, queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 timeout: Optional[float] = None,
                 retries: int = DEFAULT_RETRIES,
                 backoff: float = DEFAULT_BACKOFF_S,
                 allow_faults: bool = False,
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                 replicas: int = DEFAULT_REPLICAS) -> None:
        super().__init__(store=None, jobs=1, queue_limit=queue_limit,
                         timeout=timeout, retries=retries, backoff=backoff,
                         allow_faults=allow_faults)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(heartbeat_timeout)
        #: shard I/O deadline: a store get/put must answer well inside
        #: the liveness window or the worker is as good as dead
        self.io_timeout = max(2.0 * self.heartbeat_interval,
                              self.heartbeat_timeout)
        self.workers: Dict[str, WorkerHandle] = {}
        self.ring = HashRing(replicas)
        self._capacity = asyncio.Event()   # set when a slot may be free
        self._monitor: Optional[asyncio.Task] = None
        self.counters.update({
            "workers_registered": 0, "workers_lost": 0,
            "heartbeat_expiries": 0, "steals": 0, "requeues": 0,
            "shard_hits": 0, "shard_put_failures": 0,
        })

    # -- lifecycle ------------------------------------------------------
    def _make_pool(self) -> Optional[ProcessPoolExecutor]:
        return None               # never simulates locally

    def _dash_workers(self) -> Optional[List[Dict[str, object]]]:
        """Dashboard hook: the registered fleet, stable name order."""
        return [self.workers[w].summary() for w in sorted(self.workers)]

    async def start(self, host: str = "127.0.0.1",
                    port: int = DEFAULT_PORT) -> Tuple[str, int]:
        bound = await super().start(host, port)
        self._monitor = asyncio.ensure_future(self._monitor_loop())
        return bound

    async def _shutdown(self) -> None:
        if self._monitor is not None:
            self._monitor.cancel()
        await super()._shutdown()

    async def _monitor_loop(self) -> None:
        """Reap workers whose heartbeats lapse; requeue their cells."""
        poll = max(0.05, min(self.heartbeat_interval,
                             self.heartbeat_timeout) / 2.0)
        while True:
            await asyncio.sleep(poll)
            now = time.time()
            for worker in list(self.workers.values()):
                if (worker.state == "alive"
                        and now - worker.last_seen > self.heartbeat_timeout):
                    self.counters["heartbeat_expiries"] += 1
                    self._mark_dead(worker, "heartbeat lapsed (%.3gs)"
                                    % self.heartbeat_timeout)

    # -- membership -----------------------------------------------------
    def alive_workers(self) -> List[WorkerHandle]:
        return [w for w in self.workers.values() if w.state == "alive"]

    def _register(self, body: Dict[str, object]
                  ) -> Tuple[int, Dict[str, object]]:
        if self.draining:
            return 503, {"error": "coordinator is draining"}
        try:
            host = str(body["host"])
            port = int(body["port"])
            slots = max(1, int(body.get("slots", 1)))
        except (KeyError, TypeError, ValueError) as exc:
            return 400, {"error": "bad registration: %s" % exc}
        name = str(body.get("name") or "") or uuid.uuid4().hex[:12]
        existing = self.workers.get(name)
        if existing is not None and existing.state == "alive":
            return 409, {"error": "worker %r already registered" % name}
        now = time.time()
        worker = WorkerHandle(id=name, host=host, port=port, slots=slots,
                              pid=int(body.get("pid", 0)), registered=now,
                              last_seen=now)
        self.workers[name] = worker
        self.ring.add(name)
        self.counters["workers_registered"] += 1
        self._capacity.set()
        return 200, {"id": name,
                     "heartbeat_interval": self.heartbeat_interval,
                     "heartbeat_timeout": self.heartbeat_timeout}

    def _heartbeat(self, worker_id: str) -> Tuple[int, Dict[str, object]]:
        worker = self.workers.get(worker_id)
        if worker is None or worker.state != "alive":
            # zombie (marked dead after a lapse/partition): tell it to
            # re-register so it rejoins the ring under a fresh lease
            return 410, {"error": "unknown worker %r; re-register"
                                  % worker_id}
        worker.last_seen = time.time()
        worker.heartbeats += 1
        return 200, {"ok": True, "draining": self.draining}

    def _deregister(self, worker_id: str) -> Tuple[int, Dict[str, object]]:
        worker = self.workers.get(worker_id)
        if worker is None:
            return 404, {"error": "no such worker %r" % worker_id}
        was_alive = worker.state == "alive"
        self._mark_dead(worker, "deregistered")
        if was_alive:
            self.counters["workers_lost"] -= 1   # a goodbye is not a loss
        return 200, {"ok": True}

    def _mark_dead(self, worker: WorkerHandle, reason: str,
                   exclude: Optional[str] = None) -> None:
        """Remove a worker from the ring and requeue its in-flight cells.

        ``exclude`` names a job whose own dispatch task is doing the
        marking (it handles its own requeue; cancelling it here would
        cancel the caller).
        """
        if worker.state == "dead":
            return
        worker.state = "dead"
        self.ring.remove(worker.id)
        self.counters["workers_lost"] += 1
        for job_id, task in list(worker.in_flight.items()):
            if job_id == exclude:
                continue
            task.cancel()
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if job.cancel_requested:
                self._finish(job, JobState.CANCELLED,
                             "cancelled while running")
            elif job.state == JobState.RUNNING:
                job.error = "worker %s lost (%s); retrying elsewhere" % (
                    worker.id, reason)
                self._requeue(job)
        worker.in_flight = ({exclude: worker.in_flight[exclude]}
                            if exclude in worker.in_flight else {})
        self._capacity.set()

    # -- scheduling -----------------------------------------------------
    def _requeue(self, job: Job) -> None:
        """Put a dispatched cell back at its original heap position."""
        if job.state == JobState.QUEUED or job.state in JobState.TERMINAL:
            return
        job.state = JobState.QUEUED
        job.worker = ""
        self.counters["requeues"] += 1
        heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
        self._wake.set()

    async def _acquire_worker(self, job: Job) -> Optional[WorkerHandle]:
        """Pick the worker to run ``job``: shard owner, else steal.

        Blocks until some alive worker has a free slot (new capacity
        arrives via registration, job completion, or worker death).
        Returns None only while draining with no workers left — the
        dispatcher fails the job rather than hanging the drain.
        """
        while True:
            alive = self.alive_workers()
            free = [w for w in alive if w.free_slots > 0]
            if free:
                owner_id = self.ring.owner(job.key)
                owner = self.workers.get(owner_id) if owner_id else None
                if owner is not None and owner.state == "alive" \
                        and owner.free_slots > 0:
                    return owner
                # owner busy (or fault job with no shard): an idle
                # worker steals the cell instead of waiting
                best = max(free, key=lambda w: (w.free_slots, w.id))
                if owner is not None:
                    best.stolen += 1
                    self.counters["steals"] += 1
                return best
            if self.draining and not alive:
                return None
            self._capacity.clear()
            await self._capacity.wait()

    async def _dispatch_loop(self) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                # draining and the heap is dry — but an in-flight cell
                # can still requeue (worker loss, retry backoff), so
                # only exit once every dispatch task has settled
                if self._running:
                    await asyncio.wait(list(self._running),
                                       return_when=asyncio.FIRST_COMPLETED)
                    continue
                break
            worker = await self._acquire_worker(job)
            if job.state != JobState.QUEUED:   # cancelled while waiting
                continue
            if worker is None:
                self._finish(job, JobState.FAILED,
                             "draining with no workers left")
                continue
            task = asyncio.ensure_future(self._run_remote(job, worker))
            worker.in_flight[job.id] = task
            self._running.add(task)
            task.add_done_callback(self._running.discard)
        await self._shutdown()

    async def _run_remote(self, job: Job, worker: WorkerHandle) -> None:
        requeue_after = 0.0
        requeue = False
        try:
            if job.state != JobState.QUEUED:   # cancelled pre-dispatch
                return
            job.state = JobState.RUNNING
            job.started = job.started or time.time()
            job.worker = worker.id
            fault = "fault" in job.payload
            if not fault:
                hit = await self._shard_get(job.key)
                if hit is not None:
                    job.result = hit
                    job.source = "store"
                    self.counters["store_hits"] += 1
                    self._finish(job, JobState.DONE)
                    return
            job.attempts += 1
            try:
                status, payload = await _http_json(
                    worker.host, worker.port, "POST", "/execute",
                    {"payload": dict(job.payload), "timeout": self.timeout},
                    timeout=self._dispatch_deadline())
            except asyncio.CancelledError:
                # _mark_dead cancelled this dispatch (heartbeat lapse /
                # partition): a loss, not a failed attempt — give the
                # attempt back; _mark_dead already requeued the job
                job.attempts -= 1
                raise
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError) as exc:
                # transport loss: the worker died mid-cell. Retrying on
                # another worker is a liveness action — give the
                # attempt back rather than spending the retry budget.
                job.attempts -= 1
                job.error = "worker %s lost mid-job: %r" % (worker.id, exc)
                self._mark_dead(worker, "dispatch failed", exclude=job.id)
                requeue = True
                return
            if status == 200 and payload.get("ok"):
                result = dict(payload.get("result") or {})
                if job.cancel_requested:
                    self._finish(job, JobState.CANCELLED,
                                 "cancelled while running")
                    return
                job.result = dict(result.get("stats") or {})
                job.wall_time = float(result.get("wall_time", 0.0))
                job.source = "%s/%s" % (worker.id,
                                        result.get("worker", "worker"))
                worker.executed += 1
                self.counters["executed"] += 1
                if not fault:
                    await self._shard_put(job, result)
                self._finish(job, JobState.DONE)
                return
            # the worker answered, and the answer is a failed attempt
            kind = str(payload.get("kind", "error"))
            job.error = str(payload.get("error", "HTTP %d" % status))
            if kind == "draining":
                # the worker is on its way out, not at fault: give the
                # attempt back and let the cell land elsewhere once the
                # worker's deregistration clears it from the ring
                job.attempts -= 1
                requeue = True
                requeue_after = min(0.2, self.backoff)
                return
            if kind == "timeout":
                self.counters["timeouts"] += 1
            elif kind == "crash":
                self.counters["worker_crashes"] += 1
            if job.cancel_requested:
                self._finish(job, JobState.CANCELLED,
                             "cancelled while running")
                return
            if job.attempts <= self.retries:
                self.counters["retries"] += 1
                requeue = True
                requeue_after = self.backoff * (2 ** (job.attempts - 1))
            else:
                self._finish(job, JobState.FAILED)
        finally:
            worker.in_flight.pop(job.id, None)
            self._capacity.set()
            if requeue:
                if requeue_after:
                    await asyncio.sleep(requeue_after)
                if job.cancel_requested:
                    self._finish(job, JobState.CANCELLED,
                                 "cancelled while running")
                else:
                    self._requeue(job)

    def _dispatch_deadline(self) -> Optional[float]:
        """Socket budget for one dispatch.

        With a per-attempt timeout configured, the worker must answer
        within it plus shard-I/O grace; without one the simulation
        bounds the wait and the heartbeat monitor is the backstop.
        """
        if self.timeout is None:
            return None
        return self.timeout + self.io_timeout + 5.0

    # -- sharded store --------------------------------------------------
    async def _shard_get(self, key: str) -> Optional[Dict[str, object]]:
        """Look ``key`` up on its shard owner (None on miss/no ring)."""
        owner_id = self.ring.owner(key)
        if owner_id is None:
            return None
        worker = self.workers[owner_id]
        try:
            status, payload = await _http_json(
                worker.host, worker.port, "GET", "/store/" + key,
                timeout=self.io_timeout)
        except (OSError, ValueError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return None    # owner unwell; the monitor will reap it
        if status == 200 and payload.get("found"):
            self.counters["shard_hits"] += 1
            return dict(payload.get("stats") or {})
        return None

    async def _shard_put(self, job: Job, result: Dict[str, object]) -> None:
        """Persist a finished cell onto its shard owner.

        The owner is resolved at put time (it may have changed since
        dispatch if workers died); one re-resolve covers an owner that
        dies under the put. With no ring left the result is kept only
        in job memory — a later submission simply re-executes.
        """
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
        body = {"stats": job.result, "meta": meta}
        for _ in range(2):
            owner_id = self.ring.owner(job.key)
            if owner_id is None:
                break
            worker = self.workers[owner_id]
            try:
                status, payload = await _http_json(
                    worker.host, worker.port, "POST", "/store/" + job.key,
                    body, timeout=self.io_timeout)
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                self._mark_dead(worker, "shard put failed",
                                exclude=job.id)
                continue
            if status == 200 and payload.get("ok"):
                return
            break
        self.counters["shard_put_failures"] += 1

    # -- routing --------------------------------------------------------
    async def _route(self, method: str, path: str, query: Dict[str, str],
                     body: Optional[Dict[str, object]]
                     ) -> Tuple[int, Dict[str, object]]:
        parts = [p for p in path.split("/") if p]
        if parts and parts[0] == "workers":
            if method == "GET" and len(parts) == 1:
                return 200, {
                    "workers": [self.workers[w].summary()
                                for w in sorted(self.workers)],
                    "ring": {"nodes": sorted(self.ring.nodes),
                             "replicas": self.ring.replicas},
                }
            if method == "POST" and parts[1:] == ["register"]:
                return self._register(body or {})
            if len(parts) == 3 and method == "POST":
                if parts[2] == "heartbeat":
                    return self._heartbeat(parts[1])
                if parts[2] == "deregister":
                    return self._deregister(parts[1])
            return 404, {"error": "no route for %s %s" % (method, path)}
        status, payload = await super()._route(method, path, query, body)
        if method == "GET" and parts == ["healthz"] and status == 200:
            alive = self.alive_workers()
            payload["mode"] = "coordinator"
            payload["workers"] = len(alive)
            payload["worker_slots"] = sum(w.slots for w in alive)
            payload["ring"] = {"nodes": sorted(self.ring.nodes),
                               "replicas": self.ring.replicas}
        return status, payload


# ----------------------------------------------------------------------
# worker node
# ----------------------------------------------------------------------
class WorkerNode:
    """One cluster worker: an execute endpoint plus a store shard.

    Serves the coordinator (never end users): ``POST /execute`` runs
    one cell attempt in a local process pool — honouring the attempt
    timeout the coordinator sends, resetting the pool on a crashed or
    wedged child exactly like the single-node server — and
    ``GET|POST /store/<key>`` reads/writes this worker's shard of the
    content-addressed store. A background task registers with the
    coordinator and heartbeats on the interval registration returns,
    re-registering from scratch whenever the coordinator answers 410
    (e.g. after this worker was presumed dead across a partition).
    SIGTERM drains: in-flight attempts finish and persist, the worker
    deregisters, the process exits 0.
    """

    def __init__(self, coordinator_host: str = "127.0.0.1",
                 coordinator_port: int = DEFAULT_PORT,
                 slots: int = 1, store: Optional[ResultStore] = None,
                 name: Optional[str] = None,
                 advertise_host: str = "127.0.0.1") -> None:
        self.coordinator = (coordinator_host, int(coordinator_port))
        self.slots = max(1, int(slots))
        self.store = store
        self.name = name or ("w-" + uuid.uuid4().hex[:8])
        self.advertise_host = advertise_host
        self.worker_id: Optional[str] = None
        self.heartbeat_interval = DEFAULT_HEARTBEAT_INTERVAL
        self.port: Optional[int] = None
        self.busy = 0
        self.executed = 0
        self.draining = False
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = asyncio.Lock()
        self._server: Optional[asyncio.AbstractServer] = None
        self._beat: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._drained = asyncio.Event()

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[str, int]:
        self._pool = ProcessPoolExecutor(max_workers=self.slots,
                                         initializer=pool_child_init)
        self._server = await asyncio.start_server(self._handle_client,
                                                  host, port)
        sock = self._server.sockets[0].getsockname()
        self.port = sock[1]
        self._beat = asyncio.ensure_future(self._heartbeat_loop())
        return sock[0], sock[1]

    async def serve_until_drained(self) -> None:
        await self._drained.wait()

    def request_drain(self) -> None:
        if not self.draining:
            self.draining = True
            self._drain_task = asyncio.ensure_future(self._shutdown())

    def install_signal_handlers(self) -> None:
        loop = asyncio.get_event_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, RuntimeError):
                pass

    async def _shutdown(self) -> None:
        while self.busy:                 # finish in-flight attempts
            await asyncio.sleep(0.02)
        if self._beat is not None:
            self._beat.cancel()
        if self.worker_id is not None:
            try:
                await _http_json(self.coordinator[0], self.coordinator[1],
                                 "POST",
                                 "/workers/%s/deregister" % self.worker_id,
                                 timeout=2.0)
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                pass                     # coordinator already gone
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_event_loop()
        if self._pool is not None:
            pool = self._pool
            await loop.run_in_executor(
                None, lambda: pool.shutdown(wait=True))
        if self.store is not None:
            await loop.run_in_executor(None, self.store.close)
        self._drained.set()

    # -- registration + heartbeats --------------------------------------
    async def _register_once(self) -> bool:
        body = {"host": self.advertise_host, "port": self.port,
                "slots": self.slots, "name": self.name, "pid": os.getpid()}
        try:
            status, payload = await _http_json(
                self.coordinator[0], self.coordinator[1], "POST",
                "/workers/register", body, timeout=5.0)
        except (OSError, ValueError, asyncio.TimeoutError,
                asyncio.IncompleteReadError):
            return False
        if status != 200:
            return False
        self.worker_id = str(payload["id"])
        self.heartbeat_interval = float(
            payload.get("heartbeat_interval", self.heartbeat_interval))
        return True

    async def _heartbeat_loop(self) -> None:
        while not self.draining:
            if self.worker_id is None:
                if not await self._register_once():
                    await asyncio.sleep(
                        min(1.0, self.heartbeat_interval))
                    continue
            try:
                status, _ = await _http_json(
                    self.coordinator[0], self.coordinator[1], "POST",
                    "/workers/%s/heartbeat" % self.worker_id,
                    {"busy": self.busy}, timeout=5.0)
                if status == 410:
                    self.worker_id = None   # presumed dead: re-register
                    continue
            except (OSError, ValueError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                pass                        # coordinator briefly away
            await asyncio.sleep(self.heartbeat_interval)

    # -- execution ------------------------------------------------------
    async def _reset_pool(self) -> None:
        async with self._pool_lock:
            old, self._pool = self._pool, ProcessPoolExecutor(
                max_workers=self.slots, initializer=pool_child_init)
        if old is not None:
            await asyncio.get_event_loop().run_in_executor(
                None, tear_down_pool, old)

    async def _execute(self, body: Dict[str, object]
                       ) -> Tuple[int, Dict[str, object]]:
        if self.draining:
            return 503, {"ok": False, "kind": "draining",
                         "error": "worker is draining"}
        payload = dict(body.get("payload") or {})
        timeout = body.get("timeout")
        self.busy += 1
        try:
            assert self._pool is not None
            future = asyncio.get_event_loop().run_in_executor(
                self._pool, execute_cell, payload)
            try:
                if timeout is not None:
                    result = await asyncio.wait_for(future, float(timeout))
                else:
                    result = await future
            except asyncio.TimeoutError:
                await self._reset_pool()
                return 200, {"ok": False, "kind": "timeout",
                             "error": "attempt timed out after %.3gs"
                                      % float(timeout)}
            except BrokenProcessPool as exc:
                await self._reset_pool()
                return 200, {"ok": False, "kind": "crash",
                             "error": "worker process crashed: %r" % exc}
            except Exception as exc:  # noqa: BLE001 - reported upstream
                return 200, {"ok": False, "kind": "error",
                             "error": repr(exc)}
            self.executed += 1
            return 200, {"ok": True, "result": result}
        finally:
            self.busy -= 1

    # -- store shard ----------------------------------------------------
    async def _store_get(self, key: str) -> Tuple[int, Dict[str, object]]:
        if self.store is None:
            return 200, {"found": False}
        stats = await asyncio.get_event_loop().run_in_executor(
            None, self.store.get, key)
        if stats is None:
            return 200, {"found": False}
        return 200, {"found": True, "stats": stats.to_dict()}

    async def _store_put(self, key: str, body: Dict[str, object]
                         ) -> Tuple[int, Dict[str, object]]:
        if self.store is None:
            return 200, {"ok": False, "error": "worker has no store"}
        stats = SimulationStats.from_dict(dict(body.get("stats") or {}))
        meta = dict(body.get("meta") or {})
        digest = await asyncio.get_event_loop().run_in_executor(
            None, lambda: self.store.put(key, stats, meta=meta))
        return 200, {"ok": True, "digest": digest}

    # -- request handling ----------------------------------------------
    async def _route(self, method: str, path: str,
                     body: Optional[Dict[str, object]]
                     ) -> Tuple[int, Dict[str, object]]:
        parts = [p for p in path.split("/") if p]
        if method == "GET" and parts == ["healthz"]:
            store_info: Optional[Dict[str, object]] = None
            if self.store is not None:
                loop = asyncio.get_event_loop()
                store_info = await loop.run_in_executor(
                    None, self.store.info)
            # probed directly by operators / the chaos harness, not by
            # any in-repo client class
            # repro: lint-ignore[route-conformance]
            return 200, {
                "state": "draining" if self.draining else "running",
                "name": self.name, "id": self.worker_id,
                "slots": self.slots, "busy": self.busy,
                "executed": self.executed,
                "coordinator": "%s:%d" % self.coordinator,
                "store": store_info,
            }
        if method == "POST" and parts == ["execute"]:
            return await self._execute(body or {})
        if len(parts) == 2 and parts[0] == "store":
            if method == "GET":
                return await self._store_get(parts[1])
            if method == "POST":
                return await self._store_put(parts[1], body or {})
        if method == "POST" and parts == ["shutdown"]:
            self.request_drain()
            # sent by the test harness's raw drain helper, not by an
            # in-repo client class
            # repro: lint-ignore[route-conformance]
            return 202, {"state": "draining"}
        return 404, {"error": "no route for %s %s" % (method, path)}

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        status, payload = 400, {"error": "malformed request"}
        try:
            parsed = await _read_request(reader)
            if parsed is not None:
                method, path, _query, body = parsed
                status, payload = await self._route(method, path, body)
        except (ValueError, asyncio.IncompleteReadError) as exc:
            status, payload = 400, {"error": "bad request: %s" % exc}
        except Exception as exc:  # noqa: BLE001 - must answer
            status, payload = 500, {"error": repr(exc)}
        try:
            _write_response(writer, status, payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()


# ----------------------------------------------------------------------
# blocking entry points (CLI)
# ----------------------------------------------------------------------
async def _coordinator_amain(host: str, port: int,
                             coordinator: Coordinator,
                             announce: bool = True) -> int:
    bound_host, bound_port = await coordinator.start(host, port)
    coordinator.install_signal_handlers()
    if announce:
        print("repro serve: coordinator listening on http://%s:%d  "
              "queue<=%d timeout=%s retries=%d heartbeat=%.3gs/%.3gs"
              % (bound_host, bound_port, coordinator.queue_limit,
                 coordinator.timeout, coordinator.retries,
                 coordinator.heartbeat_interval,
                 coordinator.heartbeat_timeout),
              flush=True)
    await coordinator.serve_until_drained()
    if announce:
        c = coordinator.counters
        print("repro serve: coordinator drained cleanly (%d executed, "
              "%d store hits, %d failed, %d requeues, %d steals)"
              % (c["executed"], c["store_hits"], c["failed"],
                 c["requeues"], c["steals"]),
              flush=True)
    return 0


def serve_coordinator(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                      queue_limit: int = DEFAULT_QUEUE_LIMIT,
                      timeout: Optional[float] = None,
                      retries: int = DEFAULT_RETRIES,
                      backoff: float = DEFAULT_BACKOFF_S,
                      allow_faults: bool = False,
                      heartbeat_interval: float =
                      DEFAULT_HEARTBEAT_INTERVAL,
                      heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
                      announce: bool = True) -> int:
    """Blocking entry for ``repro serve --coordinator``; exit code."""
    coordinator = Coordinator(queue_limit=queue_limit, timeout=timeout,
                              retries=retries, backoff=backoff,
                              allow_faults=allow_faults,
                              heartbeat_interval=heartbeat_interval,
                              heartbeat_timeout=heartbeat_timeout)
    return asyncio.run(_coordinator_amain(host, port, coordinator,
                                          announce=announce))


async def _worker_amain(host: str, port: int, worker: WorkerNode,
                        announce: bool = True) -> int:
    bound_host, bound_port = await worker.start(host, port)
    worker.install_signal_handlers()
    if announce:
        store = (worker.store.root if worker.store is not None
                 else "(no store)")
        print("repro worker: %s listening on http://%s:%d  "
              "coordinator=%s:%d  store=%s  slots=%d"
              % (worker.name, bound_host, bound_port,
                 worker.coordinator[0], worker.coordinator[1], store,
                 worker.slots),
              flush=True)
    await worker.serve_until_drained()
    if announce:
        print("repro worker: %s drained cleanly (%d executed)"
              % (worker.name, worker.executed), flush=True)
    return 0


def run_worker(coordinator_host: str = "127.0.0.1",
               coordinator_port: int = DEFAULT_PORT,
               host: str = "127.0.0.1", port: int = 0,
               slots: int = 1, store_root: Optional[str] = None,
               name: Optional[str] = None,
               announce: bool = True) -> int:
    """Blocking entry for ``repro worker``; returns the exit code."""
    store = ResultStore(store_root) if store_root else None
    worker = WorkerNode(coordinator_host=coordinator_host,
                        coordinator_port=coordinator_port, slots=slots,
                        store=store, name=name, advertise_host=host)
    return asyncio.run(_worker_amain(host, port, worker,
                                     announce=announce))
