"""The result store as the one persistent record, read without writing.

* A warm figure run over a copy of the committed store simulates
  nothing and leaves every byte of the store as it was: lookups and
  opens only read. Bundled trace benchmarks resolve from their package
  files, so neither a layout of one nor a machine run over one writes
  to the store.
* Trace benchmark names registered by ``repro ingest --register`` are
  rows of the store that holds their traces: concurrent registrations
  keep every name, and ``--store`` selects which names a command knows.
* Putting a trace again rewrites its row's counts, so a row written
  with a wrong instruction count does not outlive the next put.
* A store is one file at one schema: a root written at another schema
  is refused, by ``ResultStore`` and by ``repro``, and left as it was;
  processes creating a new root at once all open it; the committed
  store is one checkpointed ``store.sqlite``.

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

from repro.cli import main
from repro.experiments import fig10_speedup
from repro.service.store import STORE_SCHEMA_VERSION, ResultStore
from repro.simulator.cache import StoreSchemaError, open_store
from repro.simulator import runner
from repro.sweeps import executor
from repro.traces import registry
from tests.test_golden_stats import run_work
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


#: lists the trace names with REPRO_STORE on a refused root, then on a
#: fresh root (argv[1]) in the same process, and imports what
#: ``repro ingest --register`` imports
RETRY = """
import os, sys
from repro.simulator.cache import StoreSchemaError
from repro.workloads.profiles import external_benchmark_names

try:
    external_benchmark_names()
except StoreSchemaError:
    pass
else:
    raise SystemExit("the refused store's names were listed")
os.environ["REPRO_STORE"] = sys.argv[1]
names = external_benchmark_names()
from repro.traces.registry import register_ingested  # noqa: F401
print(" ".join(names))
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
    """``{relative path: bytes}`` of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def nonblank(text: str):
    return [line for line in text.splitlines() if line.strip()]


def rows(root: Path):
    """Every row of ``store.sqlite``, as ``iterdump()`` spells it."""
    with closing(sqlite3.connect(str(root / "store.sqlite"))) as db:
        return list(db.iterdump())


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
        assert sorted(after) == sorted(before)  # no file added or removed
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
        before = rows(store)
        monkeypatch.setenv("REPRO_STORE", str(store))
        # resolve every bundled trace afresh in this process
        monkeypatch.setattr(registry, "_WORKLOADS", {})
        monkeypatch.setattr(runner, "_LAYOUT_CACHE", {})
        try:
            for name in names:
                runner.get_layout(name, seed=1)
            machine, _ = run_work("trace-phase", "pdip_44", 1, 40_000, 8_000,
                                  probe=False)
            assert machine.cycle > 0
        finally:
            open_store().close()
        assert rows(store) == before

    def test_trace_run_leaves_the_store_alone(self, tmp_path, monkeypatch,
                                              capsys):
        store = tmp_path / "store"
        shutil.copytree(ROOT / ".repro-results" / "store", store)
        before = rows(store)
        monkeypatch.setenv("REPRO_STORE", str(store))
        # a cell the committed store holds: noop/pdip_44, 20000 + 4000
        try:
            assert main(["trace", "run", "noop", "--instructions", "20000",
                         "--warmup", "4000", "--seed", "1",
                         "--out", str(tmp_path / "s1")]) == 0
        finally:
            open_store().close()
        assert "run dump" in capsys.readouterr().out
        assert rows(store) == before


class TestTraceNames:
    @pytest.mark.parametrize("table", ["present"])
    def test_concurrent_registrations_keep_every_name(self, tmp_path,
                                                      table):
        root = tmp_path / "store"
        ResultStore(root).close()
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
                payload, source_sha=sha, meta={"instructions": 0})
            assert created
            assert store.find_trace(sha)["instructions"] == 0
            again, created = store.put_trace(
                payload, source_sha=sha,
                meta={"instructions": 119369})
            assert (again, created) == (digest, False)
            row = store.find_trace(sha)
        assert row["instructions"] == 119369
        assert row["events"] == 3
        assert row["meta"] == {"instructions": 119369}


#: the layout of a schema-2 root: an index beside a ``blobs/`` directory
SCHEMA_2_DDL = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE results (
    key TEXT PRIMARY KEY,
    benchmark TEXT NOT NULL DEFAULT '',
    policy TEXT NOT NULL DEFAULT '',
    seed INTEGER NOT NULL DEFAULT 0,
    instructions INTEGER NOT NULL DEFAULT 0,
    warmup INTEGER NOT NULL DEFAULT 0,
    config_hash TEXT NOT NULL DEFAULT '',
    code_version INTEGER NOT NULL DEFAULT 0,
    stats_blob TEXT NOT NULL,
    telemetry_blob TEXT,
    manifest TEXT,
    created REAL NOT NULL,
    last_access REAL NOT NULL,
    hits INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX idx_results_cell ON results (benchmark, policy, seed);
CREATE TABLE traces (
    digest TEXT PRIMARY KEY,
    name TEXT NOT NULL DEFAULT '',
    source_sha TEXT NOT NULL DEFAULT '',
    events INTEGER NOT NULL DEFAULT 0,
    instructions INTEGER NOT NULL DEFAULT 0,
    meta TEXT,
    created REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE INDEX idx_traces_source ON traces (source_sha);
CREATE TABLE trace_names (
    name TEXT PRIMARY KEY,
    digest TEXT NOT NULL,
    spec TEXT NOT NULL
);
INSERT INTO meta (key, value) VALUES ('schema', '2');
INSERT INTO results (key, stats_blob, manifest, created, last_access)
    VALUES ('k', 'ab12', '{}', 1.0, 1.0);
INSERT INTO trace_names (name, digest, spec) VALUES ('old', 'cd34', '{}');
"""


def schema_2_root(root: Path) -> Path:
    """A store root as schema 2 wrote it: WAL index, one row, one blob."""
    (root / "blobs" / "ab").mkdir(parents=True)
    (root / "blobs" / "ab" / "ab12.json").write_text('{"cycles": 1}')
    with closing(sqlite3.connect(str(root / "store.sqlite"))) as db:
        db.execute("PRAGMA journal_mode=WAL")
        db.executescript(SCHEMA_2_DDL)
    return root


class TestSchemaGuard:
    def test_an_old_root_is_refused_and_left_alone(self, tmp_path):
        root = schema_2_root(tmp_path / "old")
        before = snapshot(root)
        with pytest.raises(StoreSchemaError) as err:
            ResultStore(root)
        message = str(err.value)
        assert str(root) in message and "schema 2" in message
        assert "REPRO_STORE" in message and "--register" in message
        assert snapshot(root) == before

    def test_repro_exits_2_with_one_line(self, tmp_path):
        root = schema_2_root(tmp_path / "old")
        before = snapshot(root)
        listed = python(["-m", "repro", "list"],
                        repro_env(tmp_path, REPRO_STORE=str(root)))
        assert listed.returncode == 2, listed.stdout + listed.stderr
        (line,) = nonblank(listed.stderr)
        assert line.startswith("repro: store %s " % root)
        assert "Traceback" not in listed.stdout + listed.stderr
        assert snapshot(root) == before

    def test_a_refused_store_registers_no_name(self, tmp_path):
        # the failed import left nothing registered, so the next lookup
        # imports the registry again, cleanly, once REPRO_STORE names a
        # fresh root
        root = schema_2_root(tmp_path / "old")
        fresh = tmp_path / "fresh"
        out = python(["-c", RETRY, str(fresh)],
                     repro_env(tmp_path, REPRO_STORE=str(root)))
        assert out.returncode == 0, out.stdout + out.stderr
        assert "trace-phase" in out.stdout.split()
        assert not fresh.exists()  # knowing no names created no store

    def test_roots_created_at_once_all_open(self, tmp_path):
        # a root another process is creating must not read as an old one
        root = tmp_path / "new"
        env = repro_env(tmp_path)
        opener = ("import sys\nfrom repro.service.store import ResultStore\n"
                  "ResultStore(sys.argv[1]).close()\n")
        procs = [subprocess.Popen([sys.executable, "-c", opener, str(root)],
                                  env=env, cwd=ROOT, stderr=subprocess.PIPE,
                                  text=True)
                 for _ in range(4)]
        for proc in procs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
        with ResultStore(root) as store:
            assert store.info()["schema"] == STORE_SCHEMA_VERSION


class TestCommittedStore:
    def test_committed_store_is_one_checkpointed_file(self):
        root = ROOT / ".repro-results" / "store"
        assert sorted(p.name for p in root.iterdir()) == ["store.sqlite"]
        # immutable: read the main file alone, as committed, and write
        # no side file beside it
        uri = "file:%s?immutable=1" % (root / "store.sqlite")
        with closing(sqlite3.connect(uri, uri=True)) as db:
            (schema,) = db.execute(
                "SELECT value FROM meta WHERE key = 'schema'").fetchone()
            (rows,) = db.execute("SELECT COUNT(*) FROM results").fetchone()
        assert schema == str(STORE_SCHEMA_VERSION)
        assert rows > 0
