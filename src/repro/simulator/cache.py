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

A store is one SQLite file, ``<root>/store.sqlite`` (plus SQLite's WAL
side files while a connection is open), with three tables:

* ``results``: one row per cell key, holding the canonical JSON text of
  the cell's stats, that of its telemetry summary when one was
  recorded, the :func:`~repro.simulator.runner.cell_meta` row as JSON,
  and its creation time;
* ``traces``: one row per ingested trace, keyed by the digest of its
  payload's canonical JSON, holding that text beside the source
  fingerprint and counts;
* ``trace_names``: each benchmark name registered by ``repro ingest
  --register`` with its trace digest and registration spec (see
  :mod:`repro.traces.registry`), so a name lives with the trace it
  points to and ``--store`` selects both.

Consistency model: each write is one SQLite transaction, so a reader
sees a row whole or not at all, and a writer killed inside ``put``
leaves the store as it was before that put. Concurrent writers of the
same cell are idempotent: both write the same stats and the last
upsert wins. Reading is a pure read: a lookup, and opening a store that
already has its schema, run only ``SELECT``. Nothing is ever evicted.
A root written at another :data:`STORE_SCHEMA_VERSION` is refused when
it opens (:class:`StoreSchemaError`) and left as it is; there is no
migration.

:func:`open_store` is the process's default store, rooted at
``--store``/``REPRO_STORE``, else ``<cache dir>/store``
(``REPRO_CACHE_DIR`` relocates the cache directory). No lookup can
serve ``GOLDEN_WORK`` or the perf gate: the one builds its machines
directly, the other times cold sweeps into an empty store.
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
from repro.utils import canonical_json, json_digest
from repro.workloads.profiles import get_profile

_DEFAULT_DIR = Path(__file__).resolve().parents[3] / ".repro-results"

#: run-key payload version: bump when simulation semantics change in a
#: way that must invalidate previously stored results.
RUN_KEY_VERSION = 3

#: store schema version: bump when the SQLite layout changes. A root
#: written at another version is refused when it opens, never migrated.
STORE_SCHEMA_VERSION = 3

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


#: the layout of a new root, created in one transaction
_SCHEMA = (
    "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE results (key TEXT PRIMARY KEY, stats TEXT NOT NULL,"
    " telemetry TEXT, meta TEXT NOT NULL, created REAL NOT NULL)",
    "CREATE TABLE traces (digest TEXT PRIMARY KEY, payload TEXT NOT NULL,"
    " source_sha TEXT NOT NULL, events INTEGER NOT NULL,"
    " instructions INTEGER NOT NULL, meta TEXT NOT NULL,"
    " created REAL NOT NULL)",
    "CREATE INDEX idx_traces_source ON traces (source_sha)",
    "CREATE TABLE trace_names (name TEXT PRIMARY KEY, digest TEXT NOT NULL,"
    " spec TEXT NOT NULL)",
    "INSERT INTO meta (key, value) VALUES ('schema', '%d')"
    % STORE_SCHEMA_VERSION,
)


class StoreSchemaError(RuntimeError):
    """A store root written at another :data:`STORE_SCHEMA_VERSION`."""


class ResultStore:
    """Durable get/put over simulation results and ingested traces.

    Thread-safe (one connection guarded by a lock) and safe across
    processes (SQLite WAL + busy timeout; each write is one
    transaction). All methods are synchronous — the async server calls
    them through an executor.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(str(self.root / "store.sqlite"),
                                   timeout=30.0, check_same_thread=False)
        schema = self._schema()
        if schema is None:  # a new root: the only write an open makes
            self._db.execute("PRAGMA journal_mode=WAL")
            # one transaction, so a process opening the root meanwhile
            # finds no table or all of them, never half a store
            with self._db:
                self._db.execute("BEGIN IMMEDIATE")
                if self._schema() is None:  # no one created it first
                    for statement in _SCHEMA:
                        self._db.execute(statement)
            schema = self._schema()
        if schema != str(STORE_SCHEMA_VERSION):
            self._db.close()
            raise StoreSchemaError(
                "store %s was written at schema %s, and this version reads "
                "schema %d only: point --store or REPRO_STORE at a fresh "
                "root, where results re-simulate, and re-register traces "
                "there with 'repro ingest FILE --register NAME'"
                % (self.root, schema or "(unknown)", STORE_SCHEMA_VERSION))

    def _schema(self) -> Optional[str]:
        """The schema version this root was written at ('' if it names
        none), or None for a root that holds no table yet."""
        tables = {name for (name,) in self._db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
        if not tables:
            return None
        if "meta" not in tables:
            return ""
        row = self._db.execute(
            "SELECT value FROM meta WHERE key = 'schema'").fetchone()
        return "" if row is None else str(row[0])

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
    # get / put
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[SimulationStats]:
        """Stats stored under ``key``; None on a miss."""
        with self._lock:
            row = self._db.execute(
                "SELECT stats FROM results WHERE key = ?", (key,)).fetchone()
        return None if row is None else SimulationStats.from_dict(
            json.loads(row[0]))

    def get_telemetry(self, key: str) -> Optional[Dict[str, object]]:
        """Telemetry summary stored with the cell (None if absent)."""
        with self._lock:
            row = self._db.execute(
                "SELECT telemetry FROM results WHERE key = ?",
                (key,)).fetchone()
        return None if row is None or row[0] is None else json.loads(row[0])

    def get_row(self, key: str) -> Optional[Dict[str, object]]:
        """The row of ``key`` without its payloads: ``key``, ``meta``
        (the :func:`~repro.simulator.runner.cell_meta` row it was put
        with) and ``created``."""
        with self._lock:
            row = self._db.execute(
                "SELECT meta, created FROM results WHERE key = ?",
                (key,)).fetchone()
        if row is None:
            return None
        return {"key": key, "meta": json.loads(row[0]), "created": row[1]}

    def put(self, key: str, stats: SimulationStats,
            meta: Optional[Dict[str, object]] = None,
            telemetry: Optional[Dict[str, object]] = None) -> None:
        """Persist a cell's stats (and optional telemetry) under ``key``.

        ``meta`` is the cell's :func:`~repro.simulator.runner.cell_meta`
        row. Putting a key again replaces its stats and meta, and keeps
        its telemetry when this put records none.
        """
        params = (key, canonical_json(stats.to_dict()),
                  None if telemetry is None else canonical_json(telemetry),
                  json.dumps(meta or {}, sort_keys=True), _now())
        with self._lock:
            self._db.execute(
                "INSERT INTO results (key, stats, telemetry, meta, created)"
                " VALUES (?, ?, ?, ?, ?) ON CONFLICT(key) DO UPDATE SET"
                " stats = excluded.stats, meta = excluded.meta,"
                " telemetry = COALESCE(excluded.telemetry,"
                "                      results.telemetry)", params)
            self._db.commit()

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
    # traces (ingested external workloads)
    # ------------------------------------------------------------------
    # Traces are *inputs*, not results: rows are keyed by the payload's
    # own content digest. ``source_sha`` fingerprints (source bytes,
    # ingest parameters) so re-ingesting the same file is a pure lookup —
    # zero pipeline work.

    def put_trace(self, payload: Dict[str, object], source_sha: str = "",
                  meta: Optional[Dict[str, object]] = None
                  ) -> Tuple[str, bool]:
        """Store an ingested trace payload; ``(digest, created)``.

        ``created`` is False when the digest was already stored. Putting
        a stored digest again rewrites every column of its row but
        ``payload`` (the same text) and ``created``, so a row with stale
        counts is repaired.
        """
        text = canonical_json(payload)
        digest = json_digest(text)
        meta = meta or {}
        params = (digest, text, source_sha,
                  int(len(payload.get("events", ()))),  # type: ignore[arg-type]
                  int(meta.get("instructions", 0)),  # type: ignore[arg-type]
                  json.dumps(meta, sort_keys=True), _now())
        with self._lock, self._db:
            self._db.execute("BEGIN IMMEDIATE")
            existed = self._db.execute(
                "SELECT 1 FROM traces WHERE digest = ?",
                (digest,)).fetchone() is not None
            self._db.execute(
                "INSERT INTO traces (digest, payload, source_sha, events,"
                " instructions, meta, created) VALUES (?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(digest) DO UPDATE SET"
                " source_sha = excluded.source_sha,"
                " events = excluded.events,"
                " instructions = excluded.instructions,"
                " meta = excluded.meta", params)
        return digest, not existed

    def get_trace(self, digest: str) -> Optional[Dict[str, object]]:
        """Trace payload by digest (None on miss)."""
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM traces WHERE digest = ?",
                (digest,)).fetchone()
        return None if row is None else json.loads(row[0])

    def find_trace(self, source_sha: str) -> Optional[Dict[str, object]]:
        """Newest trace row ingested with fingerprint ``source_sha``,
        without its payload."""
        with self._lock:
            cur = self._db.execute(
                "SELECT digest, source_sha, events, instructions, meta,"
                " created FROM traces WHERE source_sha = ?"
                " ORDER BY created DESC LIMIT 1", (source_sha,))
            row = cur.fetchone()
            if row is None:
                return None
            names = [c[0] for c in cur.description]
        out = dict(zip(names, row))
        out["meta"] = json.loads(out["meta"])
        return out

    def name_trace(self, name: str, digest: str,
                   spec: Dict[str, object]) -> None:
        """Point trace benchmark ``name`` at ``digest`` (upsert)."""
        # one write transaction, committed or rolled back on error
        with self._lock, self._db:
            self._db.execute("BEGIN IMMEDIATE")
            self._db.execute(
                "INSERT INTO trace_names (name, digest, spec)"
                " VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET"
                " digest = excluded.digest, spec = excluded.spec",
                (name, digest, json.dumps(spec, sort_keys=True)))

    def trace_names(self) -> Dict[str, Tuple[str, Dict[str, object]]]:
        """``{name: (digest, spec)}`` of every named trace."""
        with self._lock:
            rows = self._db.execute(
                "SELECT name, digest, spec FROM trace_names").fetchall()
        return {name: (digest, json.loads(spec))
                for name, digest, spec in rows}

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def info(self) -> Dict[str, object]:
        """Root, schema and row counts (the ``/healthz`` payload)."""
        with self._lock:
            (rows,) = self._db.execute(
                "SELECT COUNT(*) FROM results").fetchone()
            (traces,) = self._db.execute(
                "SELECT COUNT(*) FROM traces").fetchone()
        return {"root": str(self.root), "schema": STORE_SCHEMA_VERSION,
                "rows": int(rows), "traces": int(traces)}


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
          meta: Optional[Dict[str, object]] = None) -> None:
    """Persist a run's stats under its key in the default store."""
    open_store().put(key, stats, meta=meta)
