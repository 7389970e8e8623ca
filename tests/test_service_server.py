"""Failure-mode tests for the async simulation job server.

Each test runs a real :class:`SimulationServer` — event loop in a
background thread, real :class:`ProcessPoolExecutor` workers, real
hand-framed HTTP over a loopback socket — and drives it with the
stdlib :class:`~repro.service.client.ServiceClient`. Fault injection
(``fault: crash|fail|hang``) exercises the recovery ladder: per-job
timeout -> pool reset -> retry with backoff -> terminal ``failed``;
worker crash -> ``BrokenProcessPool`` -> pool reset -> server survives.
The drain tests check the SIGTERM contract: no new submissions, the
backlog finishes and persists, the process exits 0. A SIGKILLed server
must not leave its pool child behind as an orphan, and a pool child
SIGKILLed from outside mid-cell costs one retry, never a wrong result.
A store write that fails ends its job ``failed`` instead of stranding it.
"""

from __future__ import annotations

import asyncio
import contextlib
import errno
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobState, normalize_submission
from repro.service.server import SimulationServer
from repro.service.store import ResultStore
from repro.simulator.runner import run_benchmark

CELL = dict(benchmark="noop", policy="baseline", instructions=2000,
            warmup=300)

SRC = Path(__file__).resolve().parent.parent / "src"


class Harness:
    """A live server on an ephemeral port, event loop in a thread."""

    def __init__(self, **kwargs):
        self.server = SimulationServer(**kwargs)
        self.port = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(15), "server failed to start"

    def _run(self):
        asyncio.run(self._amain())

    async def _amain(self):
        _, self.port = await self.server.start("127.0.0.1", 0)
        self._ready.set()
        await self.server.serve_until_drained()

    def client(self, timeout=15.0):
        return ServiceClient(port=self.port, timeout=timeout)

    def stop(self, timeout=60.0):
        try:
            self.client().drain()
        except (ServiceError, OSError):
            pass  # already draining or already gone
        self._thread.join(timeout)
        return not self._thread.is_alive()


@pytest.fixture
def harness(tmp_path, monkeypatch):
    """Factory for servers; every one is drained at teardown."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_NO_MANIFEST", "1")
    servers = []

    def make(**kwargs):
        kwargs.setdefault("jobs", 1)
        h = Harness(**kwargs)
        servers.append(h)
        return h

    yield make
    for h in servers:
        assert h.stop(), "server did not drain at teardown"


def wait_state(client, job_id, state, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.status(job_id)
        if job["state"] == state:
            return job
        if (job["state"] in JobState.TERMINAL
                and state not in JobState.TERMINAL):
            raise AssertionError("job went %s while waiting for %s: %r"
                                 % (job["state"], state, job))
        time.sleep(0.02)
    raise AssertionError("job never reached %s" % state)


class TestExecuteAndStore:
    def test_submit_executes_bit_identical(self, harness, tmp_path):
        h = harness(store=ResultStore(tmp_path / "store"))
        client = h.client()
        job = client.submit(**CELL)
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == JobState.DONE
        assert done["source"].startswith("pid:")
        stats = client.result(job["id"])["stats"]
        local = run_benchmark(use_cache=False, seed=1, **CELL)
        assert stats == local.to_dict()
        # the cell was persisted under its canonical key
        key = ResultStore.cell_key(CELL["benchmark"], CELL["policy"],
                                   CELL["instructions"], CELL["warmup"])
        assert done["key"] == key
        assert h.server.store.get(key).to_dict() == local.to_dict()
        assert h.server.counters["executed"] == 1

    def test_resubmit_after_done_is_store_hit(self, harness, tmp_path):
        h = harness(store=ResultStore(tmp_path / "store"))
        client = h.client()
        first = client.wait(client.submit(**CELL)["id"], timeout=60)
        second = client.wait(client.submit(**CELL)["id"], timeout=60)
        assert second["id"] != first["id"]
        assert second["state"] == JobState.DONE
        assert second["source"] == "store"
        assert h.server.counters["executed"] == 1
        assert h.server.counters["store_hits"] == 1
        a = h.client().result(first["id"])["stats"]
        b = h.client().result(second["id"])["stats"]
        assert a == b

    def test_result_before_done_is_409(self, harness):
        h = harness(allow_faults=True, timeout=1.0, retries=0)
        client = h.client()
        job = client.submit("noop", fault="hang", fault_seconds=5)
        with pytest.raises(ServiceError) as exc:
            client.result(job["id"])
        assert exc.value.status == 409
        client.wait(job["id"], timeout=30)

    def test_unknown_job_is_404(self, harness):
        h = harness()
        with pytest.raises(ServiceError) as exc:
            h.client().status("nope")
        assert exc.value.status == 404


class TestValidation:
    def test_unknown_benchmark_is_400(self, harness):
        h = harness()
        with pytest.raises(ServiceError) as exc:
            h.client().submit("not-a-benchmark")
        assert exc.value.status == 400

    def test_unknown_config_field_is_400(self, harness):
        h = harness()
        with pytest.raises(ServiceError) as exc:
            h.client().submit("noop", config={"btb_entires": 4096})
        assert exc.value.status == 400
        assert "btb_entires" in str(exc.value)

    def test_fault_without_flag_is_403(self, harness):
        h = harness()  # allow_faults defaults to False
        with pytest.raises(ServiceError) as exc:
            h.client().submit("noop", fault="crash")
        assert exc.value.status == 403

    def test_normalize_defaults(self):
        payload = normalize_submission({"benchmark": "noop"})
        assert payload["policy"] == "baseline"
        assert payload["seed"] == 1
        assert payload["instructions"] > 0


class TestCoalescing:
    def test_duplicate_inflight_coalesces(self, harness):
        h = harness(allow_faults=True, timeout=2.0, retries=0)
        client = h.client()
        # occupy the single worker so the real cell stays queued
        blocker = client.submit("noop", fault="hang", fault_seconds=10)
        wait_state(client, blocker["id"], JobState.RUNNING)
        a = client.submit(**CELL)
        b = client.submit(**CELL)
        assert b["id"] == a["id"]
        assert h.server.counters["coalesced"] == 1
        client.wait(a["id"], timeout=60)
        client.wait(blocker["id"], timeout=60)
        assert h.server.counters["executed"] == 1


class TestQueueBackpressure:
    def test_queue_full_is_429(self, harness):
        h = harness(queue_limit=1, allow_faults=True, timeout=2.0,
                    retries=0)
        client = h.client()
        blocker = client.submit("noop", fault="hang", fault_seconds=10)
        wait_state(client, blocker["id"], JobState.RUNNING)
        queued = client.submit(**CELL)
        with pytest.raises(ServiceError) as exc:
            client.submit("noop", policy="pdip_44", instructions=2000,
                          warmup=300)
        assert exc.value.status == 429
        assert "retry_after_s" in exc.value.payload
        client.wait(queued["id"], timeout=60)
        client.wait(blocker["id"], timeout=60)


class TestFailureRecovery:
    def test_timeout_retries_then_failed(self, harness):
        h = harness(allow_faults=True, timeout=0.4, retries=2,
                    backoff=0.05)
        client = h.client()
        job = client.submit("noop", fault="hang", fault_seconds=30)
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == JobState.FAILED
        assert done["attempts"] == 3
        assert "timed out" in done["error"]
        assert h.server.counters["timeouts"] == 3
        assert h.server.counters["retries"] == 2
        assert h.server.counters["failed"] == 1

    def test_worker_crash_recovered(self, harness, tmp_path):
        h = harness(store=ResultStore(tmp_path / "store"),
                    allow_faults=True, retries=1, backoff=0.05)
        client = h.client()
        crash = client.submit("noop", fault="crash")
        done = client.wait(crash["id"], timeout=60)
        assert done["state"] == JobState.FAILED
        assert h.server.counters["worker_crashes"] == 2
        # the pool was replaced: a real cell still executes and persists
        job = client.wait(client.submit(**CELL)["id"], timeout=60)
        assert job["state"] == JobState.DONE
        assert len(h.server.store) == 1

    def test_injected_exception_retries_then_failed(self, harness):
        h = harness(allow_faults=True, retries=1, backoff=0.05)
        client = h.client()
        job = client.submit("noop", fault="fail")
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == JobState.FAILED
        assert done["attempts"] == 2
        assert "injected failure" in done["error"]


class TestStoreWriteFault:
    @pytest.mark.parametrize("where", ["blob", "index"])
    def test_failed_write_fails_job_and_frees_its_key(self, harness,
                                                       tmp_path, where):
        store = ResultStore(tmp_path / "store")
        h = harness(store=store)
        client = h.client()
        faulty = [True]
        write_blob, put = store._write_blob, store.put

        def full_disk_blob(payload):
            if faulty:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_blob(payload)

        def full_disk_index(key, stats, **kwargs):
            if not faulty:
                return put(key, stats, **kwargs)
            write_blob(stats.to_dict())  # the blob lands, its row does not
            raise sqlite3.OperationalError("database or disk is full")

        if where == "blob":
            store._write_blob = full_disk_blob
        else:
            store.put = full_disk_index
        failed = client.wait(client.submit(**CELL)["id"], timeout=30)
        assert failed["state"] == JobState.FAILED
        assert "store write failed" in failed["error"]
        assert ("No space left" if where == "blob"
                else "disk is full") in failed["error"]
        assert h.server.counters["failed"] == 1
        key = ResultStore.cell_key(CELL["benchmark"], CELL["policy"],
                                   CELL["instructions"], CELL["warmup"])
        assert store.get(key) is None
        # the key is free again: a resubmission is a new job that runs
        faulty.clear()
        done = client.wait(client.submit(**CELL)["id"], timeout=30)
        assert done["id"] != failed["id"]
        assert done["state"] == JobState.DONE
        assert done["source"].startswith("pid:")
        local = run_benchmark(use_cache=False, seed=1, **CELL)
        assert store.get(key).to_dict() == local.to_dict()


class TestCancel:
    def test_cancel_queued_is_immediate(self, harness):
        h = harness(allow_faults=True, timeout=2.0, retries=0)
        client = h.client()
        blocker = client.submit("noop", fault="hang", fault_seconds=10)
        wait_state(client, blocker["id"], JobState.RUNNING)
        queued = client.submit(**CELL)
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == JobState.CANCELLED
        assert h.server.counters["cancelled"] == 1
        assert h.server.counters["executed"] == 0
        client.wait(blocker["id"], timeout=60)

    def test_cancel_running_at_attempt_boundary(self, harness):
        h = harness(allow_faults=True, timeout=0.4, retries=5,
                    backoff=0.05)
        client = h.client()
        job = client.submit("noop", fault="hang", fault_seconds=30)
        wait_state(client, job["id"], JobState.RUNNING)
        flagged = client.cancel(job["id"])
        assert flagged["cancel_requested"] is True
        assert flagged["state"] == JobState.RUNNING
        done = client.wait(job["id"], timeout=60)
        assert done["state"] == JobState.CANCELLED
        assert done["attempts"] < 6  # cancelled long before retries ran out

    def test_cancel_terminal_is_409(self, harness):
        h = harness()
        client = h.client()
        job = client.wait(client.submit(**CELL)["id"], timeout=60)
        with pytest.raises(ServiceError) as exc:
            client.cancel(job["id"])
        assert exc.value.status == 409


class TestDrain:
    def test_drain_finishes_backlog_and_persists(self, harness, tmp_path):
        root = tmp_path / "store"
        h = harness(store=ResultStore(root))
        client = h.client()
        a = client.submit(**CELL)
        b = client.submit("noop", policy="pdip_44", instructions=2000,
                          warmup=300)
        client.drain()
        with pytest.raises(ServiceError) as exc:
            client.submit("noop", policy="2x_il1", instructions=2000,
                          warmup=300)
        assert exc.value.status == 503
        assert h.stop(), "drain did not complete"
        assert h.server.jobs[a["id"]].state == JobState.DONE
        assert h.server.jobs[b["id"]].state == JobState.DONE
        with ResultStore(root) as store:  # reopen: server closed its handle
            assert len(store) == 2


@contextlib.contextmanager
def serve_process(tmp_path, *args):
    """``repro serve --port 0 ARGS`` as a subprocess: yields ``(proc,
    client)`` and kills the process on the way out if it still runs."""
    env = dict(os.environ,
               PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(tmp_path / "cache"),
               REPRO_NO_MANIFEST="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=env)
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, "no listen line: %r" % line
        yield proc, ServiceClient(port=int(match.group(1)), timeout=15)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


@pytest.mark.skipif(not hasattr(signal, "SIGTERM"), reason="POSIX only")
class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        store_root = tmp_path / "store"
        with serve_process(tmp_path, "--jobs", "1",
                           "--store", str(store_root)) as (proc, client):
            job = client.submit(**CELL)
            # SIGTERM while the cell may still be running: the drain
            # must let it finish and persist before the process exits
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        with ResultStore(store_root) as store:
            key = ResultStore.cell_key(CELL["benchmark"], CELL["policy"],
                                       CELL["instructions"],
                                       CELL["warmup"])
            assert store.get(key) is not None
        assert job["state"] in (JobState.QUEUED, JobState.RUNNING,
                                JobState.DONE)


def _children(pid):
    """Live PIDs whose parent is ``pid``, read from /proc."""
    pids = [int(entry) for entry in os.listdir("/proc") if entry.isdigit()]
    return [child for child in pids
            if _proc_stat(child)[1:2] == [str(pid)] and _alive(child)]


def _pool_children(proc, timeout=10.0):
    """The server's pool children, once it has forked any."""
    deadline = time.monotonic() + timeout
    children = []
    while not children and time.monotonic() < deadline:
        children = _children(proc.pid)
    assert children, "the server forked no pool child"
    return children


def _proc_stat(pid):
    """``[state, ppid, ...]`` of /proc/<pid>/stat ([] once it is gone)."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            # fields after the parenthesised command name (which may
            # itself hold spaces or parentheses)
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def _alive(pid):
    # an exited orphan may stay a zombie if PID 1 does not reap it
    return _proc_stat(pid)[:1] not in ([], ["Z"])


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads /proc (Linux)")
class TestSigkillOrphans:
    def test_sigkilled_server_leaves_no_pool_child(self, tmp_path):
        children = []
        try:
            with serve_process(tmp_path, "--jobs", "1",
                               "--allow-faults") as (proc, client):
                job = client.submit("noop", fault="hang", fault_seconds=60)
                wait_state(client, job["id"], JobState.RUNNING)
                children = _pool_children(proc)
                # machine-death shape: the server gets no chance to
                # clean up
                proc.kill()
                proc.wait(timeout=30)
            deadline = time.monotonic() + 5.0
            while (any(_alive(pid) for pid in children)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            leftover = [pid for pid in children if _alive(pid)]
        finally:
            for pid in children:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)
        assert leftover == [], "orphaned pool children outlived the server"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads /proc (Linux)")
class TestSigkillPoolChild:
    def test_killed_mid_cell_is_retried_bit_identical(self, tmp_path):
        # the OOM-killer shape: the pool child dies from outside while
        # it simulates; the server replaces the pool and runs the cell
        # again, and the retry reproduces the golden row
        from tests.test_golden_stats import GOLDEN

        bench, policy, seed, instructions, warmup, want = GOLDEN[0]
        with serve_process(tmp_path, "--jobs", "1", "--store",
                           str(tmp_path / "store")) as (proc, client):
            job = client.submit(bench, policy, instructions=instructions,
                                warmup=warmup, seed=seed)
            wait_state(client, job["id"], JobState.RUNNING)
            (child,) = _pool_children(proc)
            os.kill(child, signal.SIGKILL)
            done = client.wait(job["id"], timeout=120)
            crashes = client.health()["counters"]["worker_crashes"]
            stats = client.result(job["id"])["stats"]
            client.drain()
            assert proc.wait(timeout=60) == 0
        assert done["state"] == JobState.DONE, done
        assert done["attempts"] == 2
        assert crashes == 1
        assert stats == want
