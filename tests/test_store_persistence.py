"""The result store as the one persistent record, read without writing.

* A warm figure run over a copy of the committed store leaves every
  byte of it as it was: lookups and opens only read.
* Trace benchmark names registered by ``repro ingest --register`` are
  rows of the store that holds their blobs: concurrent registrations
  keep every name, and ``--store`` selects which names a command knows.

Every check runs ``repro`` in fresh processes, as a user would.
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

from repro.service.store import ResultStore
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


class TestReadsNeverWrite:
    def test_warm_figure_leaves_the_store_byte_identical(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(ROOT / ".repro-results" / "store", store,
                        ignore=shutil.ignore_patterns("*-wal", "*-shm",
                                                      "*.tmp"))
        before = snapshot(store)

        out = python(["-m", "repro", "figure", "fig10", "--store",
                      str(store)], repro_env(tmp_path))

        assert out.returncode == 0, out.stderr
        wal = store / "store.sqlite-wal"
        assert not wal.exists() or wal.stat().st_size == 0
        after = snapshot(store)
        assert sorted(after) == sorted(before)  # no blob added or removed
        assert after == before
        (path,) = (tmp_path / "cache" / "manifests").glob("run-*.json")
        cells = json.loads(path.read_text())["cells"]
        assert len(cells) == 128
        assert all(c["cache_hit"] and c["worker"] == "store" for c in cells)
        figure = ROOT / "benchmarks" / "output" / "fig10_speedup.txt"
        assert nonblank(out.stdout) == nonblank(figure.read_text())


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
