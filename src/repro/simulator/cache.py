"""The result store: every simulated cell, looked up and written once.

A full figure regeneration simulates hundreds of (benchmark x policy)
pairs; many figures share pairs (the baseline appears in every one).
Each run's :class:`~repro.simulator.stats.SimulationStats` is recorded
under :func:`run_key` — the canonical hash of everything that
determines the run (benchmark profile, policy spec, instruction budget,
seed, :class:`~repro.simulator.config.MachineConfig` including the
nested ``HierarchyConfig``, run-key code version) — so a cell simulates
once per configuration, across processes, machines sharing a volume,
and weeks of wall time. The batch runner, the sweep executor and the
job server all read and write :class:`ResultStore`.

Layout on disk (everything under one root directory)::

    <root>/store.sqlite          # index: one row per cell key
    <root>/blobs/ab/abcdef...json  # content-addressed payload files

The SQLite index maps a cell key to the *content digest* of its stats
payload (and optionally of a telemetry dump); payloads live in the blob
directory named by the SHA-1 of their canonical JSON. Two cells with
bit-identical stats therefore share one blob file — sweeps that plateau
(e.g. PDIP table sizes past the working set) deduplicate storage for
free, and bit-identity between two runs is a file-name comparison.

Consistency model: blobs are immutable once written (a digest never
changes content) and are written atomically (a temp file named for the
writing process and thread, then ``rename``); the index row is
inserted only after its blob exists. Readers therefore never observe a
partial payload. Concurrent writers of the same cell are idempotent —
both write the same blob bytes and the second row upsert wins
harmlessly. Reading is a pure read: a lookup, and opening a store that
already has its schema, run only ``SELECT``. A row whose blob is missing
or unreadable is a plain miss; the next ``put`` of that cell rewrites
the blob. Nothing is ever evicted.

The store also names ingested traces: ``trace_names`` maps a benchmark
name registered by ``repro ingest --register`` to its trace blob's
digest and registration spec (see :mod:`repro.traces.registry`), so a
name lives with the blob it points to and ``--store`` selects both.

:func:`open_store` is the process's default store, rooted at
``--store``/``REPRO_STORE``, else ``<cache dir>/store``
(``REPRO_CACHE_DIR`` relocates the cache directory). ``repro bench``
deliberately bypasses the store: a bench score must time a real
simulation, never a lookup.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.simulator.config import MachineConfig
from repro.simulator.policies import PolicySpec, get_policy
from repro.simulator.stats import SimulationStats
from repro.utils import canonical_digest, canonical_json, json_digest
from repro.workloads.profiles import get_profile

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".repro-results"

#: run-key payload version: bump when simulation semantics change in a
#: way that must invalidate previously stored results. The store records
#: it per row as ``code_version``.
RUN_KEY_VERSION = 3

#: store schema version (bump when the SQLite layout changes)
STORE_SCHEMA_VERSION = 2

#: env var naming the default store's root directory
STORE_ENV = "REPRO_STORE"


def cache_dir() -> Path:
    """Directory holding the default store, manifests and sweep state."""
    return Path(os.environ.get("REPRO_CACHE_DIR", str(_DEFAULT_DIR)))


#: canonical JSON of the profiles, policy specs and machine configs
#: that run keys have frozen, keyed by value through ``repr``: a
#: dataclass's repr spells out every field, nested ones too, and unlike
#: ``==`` it tells 1, 1.0 and True apart, so two values share an entry
#: only if they freeze alike. Freezing is most of a key's cost. Threads
#: may race on it unlocked: an entry is a pure function of its key.
_FROZEN: Dict[str, str] = {}
#: entries the memo holds before it starts over (a long-lived server
#: meets new configs for as long as it runs)
_FROZEN_MAX = 4096
#: the frozen default machine, which most cells run on
_DEFAULT_CONFIG_JSON = canonical_json(MachineConfig())

#: the run-key payload as canonical JSON, its fields in sorted order
_RUN_KEY_JSON = ('{"benchmark": %s, "config": %s, "instructions": %s, '
                 '"profile": %s, "seed": %s, "spec": %s, "version": %s, '
                 '"warmup": %s}')


def _frozen_json(value) -> str:
    """:func:`~repro.utils.canonical_json` of ``value``, memoized."""
    memo = repr(value)
    text = _FROZEN.get(memo)
    if text is None:
        if len(_FROZEN) >= _FROZEN_MAX:
            _FROZEN.clear()
        text = _FROZEN[memo] = canonical_json(value)
    return text


def run_key(benchmark: str, spec: PolicySpec, instructions: int, warmup: int,
            seed: int, config: Optional[MachineConfig]) -> str:
    """Stable hash of everything that determines a run's outcome.

    This is the one cell identity in the system: the store's primary
    key and the manifest ``key`` column are both this digest, the
    :func:`repro.utils.canonical_digest` of ``{benchmark, profile, spec,
    instructions, warmup, seed, config, version}``. The full profile is
    part of it, so retuning a benchmark (or re-registering a trace name
    to another trace) invalidates its stored runs.
    """
    # the scalars are their own frozen form
    return json_digest(_RUN_KEY_JSON % (
        json.dumps(benchmark),
        (_DEFAULT_CONFIG_JSON if config is None else _frozen_json(config)),
        json.dumps(instructions),
        _frozen_json(get_profile(benchmark)),
        json.dumps(seed),
        _frozen_json(spec),
        json.dumps(RUN_KEY_VERSION),
        json.dumps(warmup)))


def _now() -> float:
    # creation bookkeeping of the store, never simulation state
    return time.time()  # repro: lint-ignore[determinism-wallclock]


#: ingested trace names; stores created before it get the table from
#: the first registration's write transaction
_TRACE_NAMES = """
CREATE TABLE IF NOT EXISTS trace_names (
    name TEXT PRIMARY KEY,
    digest TEXT NOT NULL,
    spec TEXT NOT NULL
)"""

# ``last_access`` (and ``hits`` of results) are set once, at insert, and
# never updated: they stay so that every store, whenever written, has
# one layout and opens with no migration
_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
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
CREATE INDEX IF NOT EXISTS idx_results_cell
    ON results (benchmark, policy, seed);
CREATE TABLE IF NOT EXISTS traces (
    digest TEXT PRIMARY KEY,
    name TEXT NOT NULL DEFAULT '',
    source_sha TEXT NOT NULL DEFAULT '',
    events INTEGER NOT NULL DEFAULT 0,
    instructions INTEGER NOT NULL DEFAULT 0,
    meta TEXT,
    created REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_traces_source ON traces (source_sha);
""" + _TRACE_NAMES + ";"


class ResultStore:
    """Durable get/put over simulation results and ingested traces.

    Thread-safe (one connection guarded by a lock) and safe across
    processes (SQLite WAL + busy timeout; blob writes are atomic
    renames). All methods are synchronous — the async server calls
    them through an executor.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.blob_dir = self.root / "blobs"
        self.blob_dir.mkdir(exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(str(self.root / "store.sqlite"),
                                   timeout=30.0, check_same_thread=False)
        if not self._has_table("results"):  # a new root: the only write
            self._db.executescript(_SCHEMA)
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                ("schema", str(STORE_SCHEMA_VERSION)))
            self._db.commit()

    def _has_table(self, name: str) -> bool:
        return self._db.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (name,)).fetchone() is not None

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    @staticmethod
    def cell_key(benchmark: str, policy, instructions: int, warmup: int,
                 seed: int = 1,
                 config: Optional[MachineConfig] = None) -> str:
        """The store key for a cell: exactly :func:`run_key`."""
        spec: PolicySpec = (get_policy(policy) if isinstance(policy, str)
                            else policy)
        return run_key(benchmark, spec, instructions, warmup, seed, config)

    # ------------------------------------------------------------------
    # blobs
    # ------------------------------------------------------------------
    def _blob_path(self, digest: str) -> Path:
        return self.blob_dir / digest[:2] / (digest + ".json")

    def _write_blob(self, payload) -> str:
        """Write a JSON payload content-addressed; returns its digest."""
        digest = canonical_digest(payload)
        path = self._blob_path(digest)
        if path.exists():  # identical content already stored
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        # a temp name of this writer's own: threads of one process and
        # other processes may be writing the same new blob at once
        tmp = path.with_name("%s.%d.%d.tmp" % (path.name, os.getpid(),
                                               threading.get_ident()))
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True)
        tmp.replace(path)
        return digest

    def _read_blob(self, digest: str):
        try:
            with open(self._blob_path(digest)) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationStats]:
        """Stats stored under ``key``; None on a miss or a missing blob."""
        with self._lock:
            row = self._db.execute(
                "SELECT stats_blob FROM results WHERE key = ?",
                (key,)).fetchone()
        payload = None if row is None else self._read_blob(row[0])
        return None if payload is None else SimulationStats.from_dict(payload)

    def get_telemetry(self, key: str) -> Optional[Dict[str, object]]:
        """Telemetry dump stored with the cell (None if absent)."""
        with self._lock:
            row = self._db.execute(
                "SELECT telemetry_blob FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None or row[0] is None:
            return None
        return self._read_blob(row[0])

    def get_row(self, key: str) -> Optional[Dict[str, object]]:
        """The index row (metadata, no payload) for ``key``."""
        with self._lock:
            cur = self._db.execute(
                "SELECT key, benchmark, policy, seed, instructions, warmup,"
                " config_hash, code_version, stats_blob, telemetry_blob,"
                " manifest, created, last_access, hits"
                " FROM results WHERE key = ?", (key,))
            row = cur.fetchone()
            if row is None:
                return None
            names = [c[0] for c in cur.description]
        out = dict(zip(names, row))
        if out.get("manifest"):
            out["manifest"] = json.loads(out["manifest"])
        return out

    def put(self, key: str, stats: SimulationStats,
            meta: Optional[Dict[str, object]] = None,
            telemetry: Optional[Dict[str, object]] = None) -> str:
        """Persist a cell's stats (and optional telemetry) under ``key``.

        ``meta`` is a manifest-row-shaped dict (benchmark, policy, seed,
        instructions, warmup, config_hash, wall_time, worker, ...);
        searchable columns are lifted out of it, the rest rides along as
        JSON. Returns the stats payload's content digest.
        """
        meta = dict(meta or {})
        stats_digest = self._write_blob(stats.to_dict())
        telemetry_digest = (self._write_blob(telemetry)
                            if telemetry is not None else None)
        now = _now()
        with self._lock:
            self._db.execute(
                "INSERT INTO results (key, benchmark, policy, seed,"
                " instructions, warmup, config_hash, code_version,"
                " stats_blob, telemetry_blob, manifest, created,"
                " last_access, hits)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, 0)"
                " ON CONFLICT(key) DO UPDATE SET"
                " stats_blob = excluded.stats_blob,"
                " telemetry_blob = COALESCE(excluded.telemetry_blob,"
                "                           results.telemetry_blob),"
                " manifest = excluded.manifest",
                (key, str(meta.get("benchmark", "")),
                 str(meta.get("policy", "")),
                 int(meta.get("seed", 0)),
                 int(meta.get("instructions", 0)),
                 int(meta.get("warmup", 0)),
                 str(meta.get("config_hash", "")),
                 int(meta.get("code_version", RUN_KEY_VERSION)),
                 stats_digest, telemetry_digest,
                 json.dumps(meta, sort_keys=True), now, now))
            self._db.commit()
        return stats_digest

    def __contains__(self, key: str) -> bool:
        with self._lock:
            row = self._db.execute(
                "SELECT 1 FROM results WHERE key = ?", (key,)).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (n,) = self._db.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return int(n)

    # ------------------------------------------------------------------
    # trace blobs (ingested external workloads)
    # ------------------------------------------------------------------
    # Traces are *inputs*, not results: rows are keyed by the blob's own
    # content digest. ``source_sha`` fingerprints (source bytes, ingest
    # parameters) so re-ingesting the same file is a pure index lookup —
    # zero pipeline work.

    def put_trace(self, payload: Dict[str, object], name: str = "",
                  source_sha: str = "",
                  meta: Optional[Dict[str, object]] = None
                  ) -> Tuple[str, bool]:
        """Store an ingested trace blob; ``(digest, created)``.

        ``created`` is False when the digest was already indexed (the
        blob write itself is always idempotent). Putting an indexed
        digest again rewrites every column of its row but ``created``
        and ``last_access``, so a row with stale counts is repaired.
        """
        digest = self._write_blob(payload)
        now = _now()
        with self._lock:
            existed = self._db.execute(
                "SELECT 1 FROM traces WHERE digest = ?",
                (digest,)).fetchone() is not None
            self._db.execute(
                "INSERT INTO traces (digest, name, source_sha, events,"
                " instructions, meta, created, last_access)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(digest) DO UPDATE SET"
                " name = excluded.name,"
                " source_sha = excluded.source_sha,"
                " events = excluded.events,"
                " instructions = excluded.instructions,"
                " meta = excluded.meta",
                (digest, name, source_sha,
                 int(len(payload.get("events", ()))),  # type: ignore[arg-type]
                 int((meta or {}).get("instructions", 0)),
                 json.dumps(meta or {}, sort_keys=True), now, now))
            self._db.commit()
        return digest, not existed

    def get_trace(self, digest: str) -> Optional[Dict[str, object]]:
        """Trace blob payload by digest (None on miss)."""
        with self._lock:
            row = self._db.execute(
                "SELECT 1 FROM traces WHERE digest = ?",
                (digest,)).fetchone()
        if row is None:
            return None
        return self._read_blob(digest)

    def find_trace(self, source_sha: str) -> Optional[Dict[str, object]]:
        """Newest trace row ingested with fingerprint ``source_sha``."""
        with self._lock:
            cur = self._db.execute(
                "SELECT digest, name, source_sha, events, instructions,"
                " meta, created, last_access FROM traces"
                " WHERE source_sha = ? ORDER BY created DESC LIMIT 1",
                (source_sha,))
            row = cur.fetchone()
            if row is None:
                return None
            names = [c[0] for c in cur.description]
        out = dict(zip(names, row))
        if out.get("meta"):
            out["meta"] = json.loads(out["meta"])
        return out

    def list_traces(self) -> "list[Dict[str, object]]":
        """All trace rows (metadata only), newest first."""
        with self._lock:
            cur = self._db.execute(
                "SELECT digest, name, source_sha, events, instructions,"
                " created, last_access FROM traces ORDER BY created DESC")
            names = [c[0] for c in cur.description]
            rows = cur.fetchall()
        return [dict(zip(names, row)) for row in rows]

    def name_trace(self, name: str, digest: str,
                   spec: Dict[str, object]) -> None:
        """Point trace benchmark ``name`` at ``digest`` (upsert)."""
        # one write transaction (committed, or rolled back on error),
        # which also gives a store that predates the table its trace_names
        with self._lock, self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(_TRACE_NAMES)
            self._db.execute(
                "INSERT INTO trace_names (name, digest, spec)"
                " VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET"
                " digest = excluded.digest, spec = excluded.spec",
                (name, digest, json.dumps(spec, sort_keys=True)))

    def trace_names(self) -> Dict[str, Tuple[str, Dict[str, object]]]:
        """``{name: (digest, spec)}`` of every named trace."""
        with self._lock:
            if not self._has_table("trace_names"):
                return {}  # a store from before trace names: none
            rows = self._db.execute(
                "SELECT name, digest, spec FROM trace_names").fetchall()
        return {name: (digest, json.loads(spec))
                for name, digest, spec in rows}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, object]:
        """Row/blob counts and byte totals (the ``/healthz`` payload)."""
        blobs = list(self.blob_dir.glob("*/*.json"))
        with self._lock:
            (rows,) = self._db.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            (traces,) = self._db.execute(
                "SELECT COUNT(*) FROM traces").fetchone()
        return {
            "root": str(self.root),
            "schema": STORE_SCHEMA_VERSION,
            "rows": int(rows),
            "traces": int(traces),
            "blobs": len(blobs),
            "blob_bytes": sum(p.stat().st_size for p in blobs),
        }


def store_root(path: "str | Path | None" = None) -> Path:
    """Root of the default store: ``path`` > ``REPRO_STORE`` >
    ``<cache dir>/store``."""
    root = str(path or "").strip() or os.environ.get(STORE_ENV, "").strip()
    return Path(root) if root else cache_dir() / "store"


#: (pid, root, store) of this process's default store
_OPEN: Optional[Tuple[int, Path, ResultStore]] = None
_OPEN_LOCK = threading.Lock()
#: default stores a forked child inherited: kept referenced so the
#: child's garbage collector never closes its parent's connection
_INHERITED: "list[ResultStore]" = []


def open_store(path: "str | Path | None" = None) -> ResultStore:
    """This process's store at :func:`store_root` ``(path)``.

    One connection per process, shared by every caller: a changed root
    closes it and opens the new one. A forked child (a pool worker)
    opens its own and never touches the connection it inherited, which
    belongs to its parent.
    """
    global _OPEN
    root = store_root(path)
    pid = os.getpid()
    with _OPEN_LOCK:
        if _OPEN is not None:
            owner, current, store = _OPEN
            if owner == pid and current == root:
                return store
            if owner == pid:
                store.close()
            else:
                _INHERITED.append(store)  # never used, never finalized
        store = ResultStore(root)
        _OPEN = (pid, root, store)
        return store


def load(key: str) -> Optional[SimulationStats]:
    """Stats stored under ``key`` in the default store (None on miss)."""
    return open_store().get(key)


def store(key: str, stats: SimulationStats,
          meta: Optional[Dict[str, object]] = None) -> str:
    """Persist a run's stats under its key in the default store."""
    return open_store().put(key, stats, meta=meta)
