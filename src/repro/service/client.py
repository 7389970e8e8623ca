"""Blocking client for the simulation job server (stdlib-only).

Speaks the control plane of :mod:`repro.service.server` over
:class:`http.client.HTTPConnection` — no third-party HTTP stack. Used
by the ``repro submit`` / ``repro jobs`` CLI commands and the service
tests; scripts can use it directly::

    from repro.service.client import ServiceClient

    client = ServiceClient(port=8642)
    job = client.submit("cassandra", "pdip_44", instructions=100_000)
    done = client.wait(job["id"])      # returns when the job finishes
    stats = client.result(job["id"])["stats"]

``wait`` long-polls ``GET /jobs/<id>?wait=S``: the server holds each
status request until the job is terminal or S seconds pass, so no
client sleeps between polls. ``status(job_id, wait=S)`` is the single
long-poll, for callers that watch several jobs at once. A server that
predates ``?wait`` reads the query as part of the job id and answers
404, so ``wait`` needs a server that long-polls; a plain ``status``
call sends no query and works against any server.
"""

from __future__ import annotations

import http.client
import json
import math
import time
from typing import Dict, List, Optional, Tuple

from repro.service.server import DEFAULT_PORT


class ServiceError(RuntimeError):
    """A non-2xx control-plane response (carries status + payload).

    ``status`` is the HTTP status of the rejected response, or 0 when
    the server answered bytes the client could not parse as an HTTP
    JSON response at all (truncated or malformed body) — connection
    failures stay ``OSError``, a different class of problem.
    """

    def __init__(self, status: int, payload: Dict[str, object]) -> None:
        super().__init__("HTTP %d: %s"
                         % (status, payload.get("error", payload)))
        self.status = status
        self.payload = payload


class ServiceClient:
    """Thin request wrapper; one TCP connection per call (server closes).

    ``backpressure_retries`` opts in to retrying a 429 queue-full
    submission: the client sleeps the server-suggested
    ``retry_after_s`` (capped) and resubmits, up to the budget, before
    surfacing the 429 as a :class:`ServiceError`.
    """

    #: cap on one server-suggested backpressure sleep (seconds)
    MAX_RETRY_AFTER_S = 5.0

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 timeout: float = 30.0,
                 backpressure_retries: int = 0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.backpressure_retries = max(0, int(backpressure_retries))

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None
                 ) -> Tuple[int, Dict[str, object]]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            data = json.dumps(body).encode("utf-8") if body is not None \
                else None
            headers = {"Content-Type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            try:
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ValueError) as exc:
                # unparsable status line / truncated body: a broken
                # response, not a broken connection
                raise ServiceError(0, {"error": "malformed response: %r"
                                                % (exc,)}) from exc
            ctype = response.getheader("Content-Type") or ""
            if ctype.startswith("text/html"):
                # the dashboard page: a document, not a JSON payload
                return response.status, {
                    "__html__": raw.decode("utf-8", "replace")}
            try:
                payload = json.loads(raw.decode("utf-8")) if raw else {}
            except (ValueError, UnicodeDecodeError) as exc:
                raise ServiceError(
                    response.status,
                    {"error": "malformed response body: %r" % (exc,),
                     "body": raw[:200].decode("latin-1")}) from exc
            return response.status, payload
        finally:
            conn.close()

    def _checked(self, method: str, path: str,
                 body: Optional[Dict[str, object]] = None,
                 ok: Tuple[int, ...] = (200, 202)) -> Dict[str, object]:
        status, payload = self._request(method, path, body)
        if status not in ok:
            raise ServiceError(status, payload)
        return payload

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        return self._checked("GET", "/healthz")

    def submit(self, benchmark: str, policy: str = "baseline",
               instructions: Optional[int] = None,
               warmup: Optional[int] = None, seed: int = 1,
               priority: int = 0,
               config: Optional[Dict[str, object]] = None,
               fault: Optional[str] = None,
               fault_seconds: Optional[float] = None,
               backpressure_retries: Optional[int] = None
               ) -> Dict[str, object]:
        """Submit one cell; returns the job summary (raises on 4xx/5xx).

        A duplicate of an active job coalesces server-side: the summary
        you get back is the existing job's, with the same id. A 429
        (queue full) is retried after the server-suggested delay when
        ``backpressure_retries`` (or the client-level default) allows.
        """
        body: Dict[str, object] = {"benchmark": benchmark, "policy": policy,
                                   "seed": seed, "priority": priority}
        if instructions is not None:
            body["instructions"] = instructions
        if warmup is not None:
            body["warmup"] = warmup
        if config:
            body["config"] = config
        if fault is not None:
            body["fault"] = fault
            if fault_seconds is not None:
                body["fault_seconds"] = fault_seconds
        budget = (self.backpressure_retries if backpressure_retries is None
                  else max(0, int(backpressure_retries)))
        while True:
            try:
                return self._checked("POST", "/jobs", body)["job"]
            except ServiceError as exc:
                if exc.status != 429 or budget <= 0:
                    raise
                budget -= 1
                delay = float(exc.payload.get("retry_after_s", 1.0))
                time.sleep(min(max(delay, 0.0), self.MAX_RETRY_AFTER_S))

    def jobs(self) -> List[Dict[str, object]]:
        return self._checked("GET", "/jobs")["jobs"]

    def status(self, job_id: str, wait: float = 0.0) -> Dict[str, object]:
        """One job's summary. With ``wait`` > 0 this is a long-poll: the
        server answers once the job is terminal or ``wait`` seconds pass
        (the server caps the window). A long-poll needs a server that
        knows ``?wait``; ``wait=0`` sends the plain ``GET /jobs/<id>``."""
        if wait > 0:
            return self._checked("GET", "/jobs/%s?wait=%.3f"
                                 % (job_id, wait))["job"]
        return self._checked("GET", "/jobs/%s" % job_id)["job"]

    def result(self, job_id: str) -> Dict[str, object]:
        """``{id, key, source, stats}`` of a DONE job (409 otherwise)."""
        return self._checked("GET", "/jobs/%s/result" % job_id)

    def cancel(self, job_id: str) -> Dict[str, object]:
        return self._checked("POST", "/jobs/%s/cancel" % job_id)["job"]

    def drain(self) -> Dict[str, object]:
        return self._checked("POST", "/drain")

    # -- dashboard + sweep registry ------------------------------------
    def dash_page(self) -> str:
        """The dashboard HTML document (``GET /dash``)."""
        return str(self._checked("GET", "/dash")["__html__"])

    def dash_state(self) -> Dict[str, object]:
        """Everything the dashboard renders, as one JSON document."""
        return self._checked("GET", "/dash/state")

    def sweeps(self) -> List[Dict[str, object]]:
        """Registered sweep snapshots (running first, then newest)."""
        return self._checked("GET", "/sweeps")["sweeps"]

    def sweep(self, sweep_id: str) -> Dict[str, object]:
        return self._checked("GET", "/sweeps/%s" % sweep_id)["sweep"]

    def register_sweep(self, name: str, plan_digest: str = "",
                       total: int = 0,
                       benchmarks: Optional[List[str]] = None,
                       policies: Optional[List[str]] = None
                       ) -> Dict[str, object]:
        """Register a sweep on the server's dashboard; returns it."""
        body: Dict[str, object] = {"name": name, "plan_digest": plan_digest,
                                   "total": total,
                                   "benchmarks": benchmarks or [],
                                   "policies": policies or []}
        return self._checked("POST", "/sweeps", body)["sweep"]

    def sweep_progress(self, sweep_id: str,
                       counts: Optional[Dict[str, int]] = None,
                       grid: Optional[Dict[str, object]] = None,
                       state: str = "running") -> Dict[str, object]:
        """Push executor progress into a registered sweep's snapshot."""
        body: Dict[str, object] = {"state": state}
        if counts is not None:
            body["counts"] = counts
        if grid is not None:
            body["grid"] = grid
        return self._checked("POST", "/sweeps/%s/progress" % sweep_id,
                             body)["sweep"]

    @property
    def wait_window(self) -> float:
        """Longest long-poll this client asks for: half the socket
        timeout, so every answer beats it (``inf`` without one; the
        server clamps every window to its own cap)."""
        if self.timeout is None:
            return math.inf
        return self.timeout / 2.0

    def wait(self, job_id: str,
             timeout: Optional[float] = None) -> Dict[str, object]:
        """Block until the job reaches a terminal state; returns it.

        A loop of long-polled :meth:`status` calls, so it returns as soon
        as the job ends. Raises ``TimeoutError`` if ``timeout`` seconds
        elapse first.
        """
        from repro.service.jobs import JobState

        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            window = self.wait_window
            if deadline is not None:
                window = min(window, max(0.0, deadline - time.monotonic()))
            job = self.status(job_id, wait=window)
            if job["state"] in JobState.TERMINAL:
                return job
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError("job %s still %s after %.3gs"
                                   % (job_id, job["state"], timeout))
