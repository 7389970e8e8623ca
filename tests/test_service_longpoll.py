"""Long-poll job completion: ``GET /jobs/<id>?wait=S``.

The server holds a status request until the job is terminal or ``S``
seconds pass, so ``ServiceClient.wait`` returns when the job does
instead of on its next poll. Every behaviour is checked against a live
:class:`SimulationServer`, whose ``_finish`` is what releases the
waiters. A hanging fault job (``fault: hang``, retries off) occupies
the one execution slot for a known time, which makes "held",
"released" and "timed out" observable.
"""

from __future__ import annotations

import http.client
import json
import math
import signal
import threading
import time

import pytest

from repro.service import server as server_mod
from repro.service.client import ServiceClient
from repro.service.jobs import JobState

from tests.test_service_server import (
    CELL,
    Harness,
    serve_process,
    wait_state,
)


@pytest.fixture
def backend(tmp_path, monkeypatch):
    """Factory for a live control plane with one execution slot."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    made = []

    def make(**kwargs):
        h = Harness(jobs=1, allow_faults=True, retries=0, **kwargs)
        made.append(h)
        return h

    yield make
    for h in made:
        assert h.stop(), "control plane did not drain at teardown"


def hold(h, seconds):
    """Occupy the one slot with a job that fails after ``seconds``."""
    client = h.client()
    blocker = client.submit("noop", fault="hang", fault_seconds=seconds)
    wait_state(client, blocker["id"], JobState.RUNNING)
    return blocker


def get(port, path):
    """One raw ``GET``: (status, payload, seconds to the answer)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    t0 = time.monotonic()
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, time.monotonic() - t0
    finally:
        conn.close()


class TestLongPoll:
    @pytest.mark.parametrize("outcome", [JobState.DONE, JobState.FAILED,
                                         JobState.CANCELLED])
    def test_waiter_released_when_job_ends(self, backend, outcome):
        h = backend()
        client = h.client()
        blocker = hold(h, 1.0)
        # not terminal when asked: the blocker hangs, the cell is queued
        target = (blocker if outcome == JobState.FAILED
                  else client.submit(**CELL))
        canceller = threading.Timer(0.3, client.cancel, (target["id"],))
        if outcome == JobState.CANCELLED:
            canceller.start()
        t0 = time.monotonic()
        job = client.status(target["id"], wait=20)
        elapsed = time.monotonic() - t0
        canceller.cancel()
        assert job["state"] == outcome
        assert elapsed < 10.0

    def test_window_elapses_with_nonterminal_summary(self, backend):
        h = backend()
        blocker = hold(h, 1.5)
        status, payload, elapsed = get(h.port,
                                       "/jobs/%s?wait=0.5" % blocker["id"])
        assert status == 200
        assert payload["job"]["state"] == JobState.RUNNING
        assert 0.45 <= elapsed < 1.4

    def test_no_window_answers_at_once(self, backend):
        h = backend()
        blocker = hold(h, 1.5)
        for query in ("", "?wait=0"):
            status, payload, elapsed = get(
                h.port, "/jobs/%s%s" % (blocker["id"], query))
            assert status == 200
            assert payload["job"]["state"] == JobState.RUNNING
            assert elapsed < 0.3, query

    def test_malformed_window_is_400(self, backend):
        h = backend()
        client = h.client()
        job = client.wait(client.submit(**CELL)["id"], timeout=60)
        for value in ("abc", "-1", "nan", ""):
            status, payload, _ = get(h.port,
                                     "/jobs/%s?wait=%s" % (job["id"], value))
            assert status == 400, value
            assert "wait" in payload["error"]

    @pytest.mark.parametrize("value", ["3600", "inf"])
    def test_oversized_window_is_clamped(self, backend, monkeypatch, value):
        # "inf" is what a client without a socket timeout asks for
        monkeypatch.setattr(server_mod, "MAX_WAIT_S", 0.4)
        h = backend()
        blocker = hold(h, 1.5)
        status, payload, elapsed = get(
            h.port, "/jobs/%s?wait=%s" % (blocker["id"], value))
        assert status == 200
        assert payload["job"]["state"] == JobState.RUNNING
        assert 0.35 <= elapsed < 1.4

    def test_one_finish_releases_both_coalesced_waiters(self, backend):
        h = backend()
        hold(h, 1.0)
        first = h.client().submit(**CELL)
        second = h.client().submit(**CELL)
        assert second["id"] == first["id"]      # coalesced while queued
        answers = []

        def waiter():
            answers.append(h.client().status(first["id"], wait=20))

        threads = [threading.Thread(target=waiter) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(15)
        assert [job["state"] for job in answers] == [JobState.DONE] * 2

    def test_client_wait_times_out_below_socket_timeout(self, backend):
        h = backend()
        blocker = hold(h, 2.5)
        client = h.client(timeout=0.6)
        assert client.wait_window == pytest.approx(0.3)
        windows = []
        status = client.status

        def recording_status(job_id, wait=0.0):
            windows.append(wait)
            return status(job_id, wait=wait)

        client.status = recording_status
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait(blocker["id"], timeout=1.0)
        elapsed = time.monotonic() - t0
        assert 1.0 <= elapsed < 1.8
        assert windows and max(windows) < client.timeout


class TestClientWindow:
    @pytest.mark.parametrize("timeout,window", [
        (None, math.inf), (120.0, 60.0), (10.0, 5.0), (0.5, 0.25)])
    def test_window_is_half_the_socket_timeout(self, timeout, window):
        # the server alone owns the cap; the client only stays below
        # its own socket timeout
        assert ServiceClient(timeout=timeout).wait_window == window

    def test_plain_status_sends_no_query(self, monkeypatch):
        # a server that predates ``?wait`` must keep answering status()
        client = ServiceClient()
        paths = []

        def fake_request(method, path, body=None):
            paths.append(path)
            return 200, {"job": {"id": "j1", "state": JobState.DONE}}

        monkeypatch.setattr(client, "_request", fake_request)
        client.status("j1")
        client.status("j1", wait=0)
        client.status("j1", wait=2)
        client.status("j1", wait=math.inf)
        assert paths == ["/jobs/j1", "/jobs/j1", "/jobs/j1?wait=2.000",
                         "/jobs/j1?wait=inf"]


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="POSIX only")
class TestDrainWithWaiter:
    """SIGTERM with a long-poll outstanding: answered, then exit 0."""

    def test_server_drain_answers_waiter(self, tmp_path):
        answers = []
        with serve_process(tmp_path, "--jobs", "1", "--retries", "0",
                           "--allow-faults") as (proc, client):
            job = client.submit("noop", fault="hang", fault_seconds=1.0)
            wait_state(client, job["id"], JobState.RUNNING)
            waiter = ServiceClient(port=client.port, timeout=30)
            thread = threading.Thread(target=lambda: answers.append(
                waiter.status(job["id"], wait=20)))
            thread.start()
            time.sleep(0.2)             # let the request reach the server
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            thread.join(15)
        assert [job["state"] for job in answers] == [JobState.FAILED]
