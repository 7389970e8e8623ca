"""The one result store under concurrent writers, forks and crashes.

* Threads of one process putting cells with the same new stats at once
  all succeed, and every row reads back whole.
* :func:`~repro.simulator.cache.open_store` in a forked pool child opens
  the child's own connection instead of using its parent's.
* Three processes write one store root at once — ``repro suite --jobs
  2``, a ``repro serve`` taking submissions, and a second ``repro
  suite`` — while a fourth writer is SIGKILLed partway through ``put``.
  Afterwards the index passes ``PRAGMA integrity_check`` and every
  ``get`` returns None or stats bit-identical to a fresh simulation.
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.service.client import ServiceClient
from repro.simulator import cache as result_cache
from repro.simulator.cache import ResultStore
from repro.simulator.runner import run_benchmark
from repro.simulator.stats import SimulationStats

SRC = Path(__file__).resolve().parent.parent / "src"
BUDGET = dict(instructions=3000, warmup=500)


def make_stats(n):
    stats = SimulationStats()
    stats.instructions, stats.cycles = 1000, 500 + n
    return stats


class TestThreadedPut:
    def test_threads_putting_the_same_new_blob_all_succeed(self, tmp_path):
        threads, rounds = 4, 300
        errors = []
        barrier = threading.Barrier(threads, timeout=30)
        with ResultStore(tmp_path / "store") as store:

            def writer(t):
                for i in range(rounds):
                    barrier.wait()  # every thread races each new stats
                    try:
                        store.put("t%d-%d" % (t, i), make_stats(i))
                    except Exception as exc:  # noqa: BLE001 - counted
                        errors.append(repr(exc))

            pool = [threading.Thread(target=writer, args=(t,))
                    for t in range(threads)]
            switch = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(120)
            finally:
                sys.setswitchinterval(switch)
            assert not any(t.is_alive() for t in pool), "a writer hung"
            assert errors == [], "%d of %d puts failed: %s" % (
                len(errors), threads * rounds, errors[0])
            assert len(store) == threads * rounds
            for t in range(threads):
                for i in range(rounds):
                    got = store.get("t%d-%d" % (t, i))
                    assert got.to_dict() == make_stats(i).to_dict()


#: the parent's default store, as a forked child inherits it
_PARENT_STORE = None


def _child_store_report():
    store = result_cache.open_store()
    store.put("child", make_stats(1))
    return (os.getpid(), store is not _PARENT_STORE,
            result_cache.open_store() is store)


class TestForkedChild:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method")
    def test_pool_child_opens_its_own_connection(self, tmp_path,
                                                 monkeypatch):
        global _PARENT_STORE
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        _PARENT_STORE = parent = result_cache.open_store()
        try:
            with ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=multiprocessing.get_context("fork")) as pool:
                pid, own, reused = pool.submit(_child_store_report).result()
        finally:
            _PARENT_STORE = None
        assert pid != os.getpid()
        assert own, "the child used its parent's connection"
        assert reused, "the child's store is not kept for the process"
        # the parent's connection still works and sees the child's row
        assert result_cache.open_store() is parent
        assert parent.get("child").to_dict() == make_stats(1).to_dict()


#: cells of the killed writer: it commits the first, a cell the suites
#: also write, and stalls in the second put's commit, holding the
#: index's write lock, until it is killed
KILLED_CELLS = [("tatp", "pdip_44"), ("smallbank", "2x_il1")]
_KILLED_WRITER = r"""
import sys, time
from pathlib import Path
from repro.simulator.cache import ResultStore
from repro.simulator.runner import run_benchmark

root, marker = sys.argv[1], Path(sys.argv[2])
store = ResultStore(root)


class StallingCommit:
    def __init__(self, db):
        self.db = db

    def execute(self, *args):
        return self.db.execute(*args)

    def commit(self):
        marker.write_text("in put")
        time.sleep(120)


cells = %r
for i, (bench, policy) in enumerate(cells):
    stats = run_benchmark(bench, policy, instructions=3000, warmup=500,
                          use_cache=False)
    if i == len(cells) - 1:
        store._db = StallingCommit(store._db)
    store.put(ResultStore.cell_key(bench, policy, 3000, 500), stats)
""" % (KILLED_CELLS,)


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="POSIX only")
class TestCrashSafety:
    SUITE_A = (["noop", "tatp"], ["baseline", "pdip_44"])
    SUITE_B = (["noop", "voter"], ["baseline", "pdip_44"])
    SUBMITTED = [("tatp", "baseline"), ("voter", "pdip_44"),
                 ("noop", "emissary")]

    def test_concurrent_writers_and_a_killed_one(self, tmp_path):
        root = tmp_path / "store"
        marker = tmp_path / "killed-writer.marker"
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_CACHE_DIR=str(tmp_path / "cache"))
        env.pop("REPRO_STORE", None)
        procs = []

        def start(args, **kwargs):
            proc = subprocess.Popen([sys.executable] + args, env=env,
                                    cwd=str(tmp_path), **kwargs)
            procs.append(proc)
            return proc

        def suite(benches, policies, jobs):
            return start(["-m", "repro", "suite", "--benchmarks",
                          ",".join(benches), "--policies", ",".join(policies),
                          "--jobs", str(jobs), "--instructions", "3000",
                          "--warmup", "500", "--store", str(root)],
                         stdout=subprocess.DEVNULL)

        try:
            server = start(["-m", "repro", "serve", "--port", "0", "--jobs",
                            "1", "--store", str(root)],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
            match = re.search(r"http://[\d.]+:(\d+)",
                              server.stdout.readline())
            assert match, "repro serve did not start"
            client = ServiceClient(port=int(match.group(1)), timeout=60)
            killed = start(["-c", _KILLED_WRITER, str(root), str(marker)])
            suites = [suite(*self.SUITE_A, jobs=2),
                      suite(*self.SUITE_B, jobs=1)]
            jobs = [client.submit(bench, policy, **BUDGET)["id"]
                    for bench, policy in self.SUBMITTED]

            deadline = time.monotonic() + 120
            while not marker.exists():
                assert killed.poll() is None, "writer exited before put"
                assert time.monotonic() < deadline, "writer never stalled"
                time.sleep(0.05)
            killed.send_signal(signal.SIGKILL)
            assert killed.wait(timeout=30) == -signal.SIGKILL

            for proc in suites:
                assert proc.wait(timeout=180) == 0
            for job_id in jobs:
                assert client.wait(str(job_id), timeout=180)["state"] == "done"
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()

        db = sqlite3.connect(str(root / "store.sqlite"))
        try:
            assert db.execute("PRAGMA integrity_check").fetchone() == ("ok",)
        finally:
            db.close()

        committed = {(b, p) for benches, policies in (self.SUITE_A,
                                                      self.SUITE_B)
                     for b in benches for p in policies}
        committed |= set(self.SUBMITTED) | {KILLED_CELLS[0]}
        with ResultStore(root) as store:
            # the killed put never committed: its cell reads as a miss
            assert store.get(ResultStore.cell_key(*KILLED_CELLS[1],
                                                  **BUDGET)) is None
            for bench, policy in sorted(committed):
                got = store.get(ResultStore.cell_key(bench, policy,
                                                     **BUDGET))
                want = run_benchmark(bench, policy, use_cache=False,
                                     **BUDGET)
                assert got is not None, (bench, policy)
                assert got.to_dict() == want.to_dict(), (bench, policy)
