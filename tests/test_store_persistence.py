"""The result store as the one persistent record, read without writing.

* A warm figure run over a copy of the committed store simulates
  nothing and leaves every byte of the store as it was: lookups and
  opens only read. Bundled trace benchmarks resolve from their package
  files, so neither a layout of one nor a ``repro bench`` cell over one
  writes to the store.
* Trace benchmark names registered by ``repro ingest --register`` are
  rows of the store that holds their blobs: concurrent registrations
  keep every name, and ``--store`` selects which names a command knows.
* Putting a trace blob again rewrites its row's counts, so a row
  written with a wrong instruction count does not outlive the next put.

The trace-name checks run ``repro`` in fresh processes, as a user would;
the warm figure runs in this one, so that a simulation can be caught.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main
from repro.experiments import fig10_speedup
from repro.service.store import ResultStore
from repro.simulator.cache import open_store
from repro.simulator import runner
from repro.sweeps import executor
from repro.traces import registry
from tests.test_traces_ingest import write_jsonl_file

ROOT = Path(__file__).resolve().parents[1]

#: registers 25 names, each pointing at a digest derived from the name
REGISTER = """
import hashlib, sys
from repro.traces.ingest import IngestReport
from repro.traces.registry import register_ingested

for i in range(25):
    name = "w%s-%02d" % (sys.argv[1], i)
    digest = hashlib.sha1(name.encode()).hexdigest()
    report = IngestReport(source=name + ".jsonl", format="jsonl",
                          digest=digest, source_sha="", created=True,
                          events=10, instructions=40, downsample=None)
    register_ingested(name, report, budget=1000, window=64)
"""

#: prints {name: pinned digest} of every trace name a process knows
NAMES = """
import json
from repro.workloads.profiles import external_benchmark_names, get_profile

print(json.dumps({n: get_profile(n).trace_digest
                  for n in external_benchmark_names()}))
"""


def repro_env(tmp_path, **extra):
    """No inherited ``REPRO_*`` setting; cache and home under tmp_path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), HOME=str(tmp_path / "home"),
               REPRO_CACHE_DIR=str(tmp_path / "cache"), **extra)
    return env


def python(args, env, **kwargs):
    return subprocess.run([sys.executable] + list(args), env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


def snapshot(root: Path):
    """``{relative path: bytes}`` of ``store.sqlite`` and every blob."""
    files = [root / "store.sqlite"] + sorted((root / "blobs").glob("*/*"))
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


def nonblank(text: str):
    return [line for line in text.splitlines() if line.strip()]


def rows_and_blobs(root: Path):
    """Every row of ``store.sqlite`` (``iterdump()``) and every blob name."""
    with closing(sqlite3.connect(str(root / "store.sqlite"))) as db:
        rows = list(db.iterdump())
    return rows, sorted(p.name for p in (root / "blobs").glob("*/*"))


class TestReadsNeverWrite:
    def test_warm_figure_leaves_the_store_byte_identical(self, tmp_path,
                                                         monkeypatch):
        store = tmp_path / "store"
        shutil.copytree(ROOT / ".repro-results" / "store", store,
                        ignore=shutil.ignore_patterns("*-wal", "*-shm",
                                                      "*.tmp"))
        before = snapshot(store)
        for name in ("REPRO_BENCHMARKS", "REPRO_INSTRUCTIONS", "REPRO_WARMUP",
                     "REPRO_JOBS"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_STORE", str(store))

        def simulate(*args, **kwargs):
            raise AssertionError("a warm figure dispatched cells to simulate")

        # every store miss of the figure's grids goes through here
        monkeypatch.setattr(executor, "execute_cells", simulate)
        try:
            text = fig10_speedup.render(fig10_speedup.run())
            wal = store / "store.sqlite-wal"
            assert not wal.exists() or wal.stat().st_size == 0
        finally:
            open_store().close()

        after = snapshot(store)
        assert sorted(after) == sorted(before)  # no blob added or removed
        assert after == before
        figure = ROOT / "benchmarks" / "output" / "fig10_speedup.txt"
        assert nonblank(text) == nonblank(figure.read_text())

    def test_bundled_traces_leave_the_store_alone(self, tmp_path,
                                                  monkeypatch):
        names = registry.trace_benchmark_names()
        if not names:
            pytest.skip("bundled traces unavailable in this checkout")
        store = tmp_path / "store"
        shutil.copytree(ROOT / ".repro-results" / "store", store)
        before = rows_and_blobs(store)
        monkeypatch.setenv("REPRO_STORE", str(store))
        # resolve every bundled trace afresh in this process
        monkeypatch.setattr(registry, "_WORKLOADS", {})
        monkeypatch.setattr(runner, "_LAYOUT_CACHE", {})
        cell = {c.name: c for c in bench.DEFAULT_CELLS}["trphase-pdip44-short"]
        try:
            for name in names:
                runner.get_layout(name, seed=1)
            assert bench.run_cell(cell, repeats=1)["simulated_cycles"] > 0
        finally:
            open_store().close()
        assert rows_and_blobs(store) == before

    def test_trace_run_leaves_the_store_alone(self, tmp_path, monkeypatch,
                                              capsys):
        store = tmp_path / "store"
        shutil.copytree(ROOT / ".repro-results" / "store", store)
        before = rows_and_blobs(store)
        monkeypatch.setenv("REPRO_STORE", str(store))
        # a cell the committed store holds: noop/pdip_44, 20000 + 4000
        try:
            assert main(["trace", "run", "noop", "--instructions", "20000",
                         "--warmup", "4000", "--seed", "1",
                         "--out", str(tmp_path / "s1")]) == 0
        finally:
            open_store().close()
        assert "run dump" in capsys.readouterr().out
        assert rows_and_blobs(store) == before


class TestTraceNames:
    @pytest.mark.parametrize("table", ["present", "predates"])
    def test_concurrent_registrations_keep_every_name(self, tmp_path,
                                                      table):
        root = tmp_path / "store"
        ResultStore(root).close()
        if table == "predates":  # a store written before trace names
            with closing(sqlite3.connect(str(root / "store.sqlite"))) as db:
                db.execute("DROP TABLE trace_names")
                db.commit()
        env = repro_env(tmp_path, REPRO_STORE=str(root))
        procs = [subprocess.Popen([sys.executable, "-c", REGISTER, str(w)],
                                  env=env, cwd=ROOT, stderr=subprocess.PIPE,
                                  text=True)
                 for w in range(4)]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err

        names = ["w%d-%02d" % (w, i) for w in range(4) for i in range(25)]
        want = {n: hashlib.sha1(n.encode()).hexdigest() for n in names}
        with ResultStore(root) as store:
            named = {name: digest for name, (digest, _)
                     in store.trace_names().items()}
        assert named == want
        out = python(["-c", NAMES], env)
        assert out.returncode == 0, out.stderr
        known = json.loads(out.stdout)
        assert {name: known.get(name) for name in want} == want

    def test_store_flag_selects_the_names(self, tmp_path):
        trace = write_jsonl_file(tmp_path / "t.jsonl")
        a, b = tmp_path / "a", tmp_path / "b"
        env = repro_env(tmp_path)
        cell = ["--instructions", "2000", "--warmup", "300"]

        ingest = python(["-m", "repro", "ingest", str(trace), "--register",
                         "n", "--store", str(a)], env)
        assert ingest.returncode == 0, ingest.stdout + ingest.stderr
        assert "registered   'n' in store %s" % a in ingest.stdout

        ok = python(["-m", "repro", "run", "n", "baseline", "--store",
                     str(a)] + cell, env)
        assert ok.returncode == 0, ok.stdout + ok.stderr
        assert "n / baseline" in ok.stdout

        other = python(["-m", "repro", "run", "n", "baseline", "--store",
                        str(b)] + cell, env)
        assert other.returncode == 2
        assert "invalid choice: 'n'" in other.stderr

        listed = python(["-m", "repro", "list"],
                        dict(env, REPRO_STORE=str(b)))
        assert listed.returncode == 0, listed.stderr
        assert "trace-phase" in listed.stdout
        assert "\n  n " not in listed.stdout
        assert not b.exists()  # knowing no names created no store


class TestTraceRows:
    def test_reput_repairs_a_stale_instruction_count(self, tmp_path):
        payload = {"events": [[0, 1, 4], [1, 0, 0], [4, 1, 1]]}
        sha = "a" * 40
        with ResultStore(tmp_path / "store") as store:
            digest, created = store.put_trace(
                payload, name="t", source_sha=sha, meta={"instructions": 0})
            assert created
            assert store.find_trace(sha)["instructions"] == 0
            again, created = store.put_trace(
                payload, name="t", source_sha=sha,
                meta={"instructions": 119369})
            assert (again, created) == (digest, False)
            row = store.find_trace(sha)
        assert row["instructions"] == 119369
        assert row["events"] == 3
        assert row["meta"] == {"instructions": 119369}
