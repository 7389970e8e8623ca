"""The ingest pipeline: trace file -> content-addressed workload blob.

``ingest_path`` is the one entry point: it parses/converts the input
(:mod:`repro.traces.convert`), derives the dynamic block-event stream,
downsamples it to the instruction budget
(:mod:`repro.traces.downsample`), canonicalises the kept events into a
**blob payload** whose :func:`repro.utils.canonical_digest` is the
trace's identity everywhere (store blob name, ``TraceProfile.
trace_digest``, and therefore every run key computed over the
benchmark), and records it in the :class:`~repro.simulator.cache.
ResultStore` ``traces`` table.

Warm re-ingest is free by construction: the pipeline fingerprints
``(source bytes, ingest parameters)`` into ``source_sha`` first and asks
the store for it — a hit skips parsing, sampling and synthesis entirely
(:data:`PIPELINE_RUNS` counts the cold runs so tests and the CI
``ingest-smoke`` job can assert a warm re-run performed zero
ingestions).

Blob payload (JSON, digested canonically)::

    {"schema": "repro-xtrace-blob", "version": 1, "isize": 4,
     "events": [[start, end, size, taken, kind_index], ...]}

The payload deliberately excludes names, paths and timestamps: identity
is content.  Two ingests of the same trace under different names share
one blob; two different traces can never collide.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.service.store import ResultStore
from repro.traces.convert import load_records
from repro.traces.downsample import (
    DEFAULT_BUDGET,
    DEFAULT_WINDOW,
    DownsampleReport,
    downsample_events,
)
from repro.traces.schema import (
    DEFAULT_ISIZE,
    RECORD_KINDS,
    BlockEvent,
    TraceIngestError,
    derive_block_events,
)
from repro.traces.synthesize import TraceWorkload, synthesize
from repro.utils import canonical_digest

BLOB_SCHEMA = "repro-xtrace-blob"
BLOB_VERSION = 1

#: Cold pipeline executions (parse + downsample + blob) since import.
#: Warm re-ingests (source_sha store hits) must not bump this.
PIPELINE_RUNS = 0


@dataclass(frozen=True)
class IngestReport:
    """What one ``ingest_path`` call did."""

    source: str
    format: str
    digest: str
    source_sha: str
    created: bool        # False: warm re-ingest, resolved from the store
    events: int
    instructions: int
    downsample: Optional[DownsampleReport]  # None on a warm re-ingest


def blob_payload(events: List[BlockEvent], isize: int) -> Dict[str, object]:
    """Canonical blob payload for a kept event stream."""
    return {
        "schema": BLOB_SCHEMA,
        "version": BLOB_VERSION,
        "isize": isize,
        "events": [[ev.start, ev.end, ev.size, 1 if ev.taken else 0,
                    RECORD_KINDS.index(ev.kind)] for ev in events],
    }


def events_from_blob(payload: Dict[str, object]) -> Tuple[List[BlockEvent], int]:
    """Decode a blob payload back into ``(events, isize)``."""
    if (not isinstance(payload, dict)
            or payload.get("schema") != BLOB_SCHEMA):
        raise TraceIngestError("payload is not a %s blob" % BLOB_SCHEMA)
    if payload.get("version") != BLOB_VERSION:
        raise TraceIngestError(
            "blob version %r unsupported" % (payload.get("version"),),
            category="unsupported-version")
    isize = int(payload.get("isize", DEFAULT_ISIZE))  # type: ignore[arg-type]
    events = [
        BlockEvent(start=row[0], end=row[1], size=row[2],
                   taken=bool(row[3]), target=0, kind=RECORD_KINDS[row[4]])
        for row in payload["events"]  # type: ignore[union-attr]
    ]
    return events, isize


def source_fingerprint(path: str, fmt: str, budget: int, window: int,
                       seed: int) -> str:
    """SHA-1 over (source bytes, ingest parameters).

    Any change to either the file or the sampling parameters produces a
    different fingerprint, so a store hit is guaranteed to resolve to
    the exact blob this invocation would have produced.
    """
    sha = hashlib.sha1()
    sha.update(("xtrace:%s:%d:%d:%d:" % (fmt, budget, window, seed))
               .encode("utf-8"))
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
    return sha.hexdigest()


def ingest_events(events: List[BlockEvent], isize: int,
                  budget: int = DEFAULT_BUDGET,
                  window: int = DEFAULT_WINDOW,
                  seed: int = 0
                  ) -> Tuple[Dict[str, object], str, DownsampleReport]:
    """Downsample + canonicalise: ``(payload, digest, report)``."""
    global PIPELINE_RUNS
    PIPELINE_RUNS += 1
    kept, report = downsample_events(events, isize, budget=budget,
                                     window=window, seed=seed)
    payload = blob_payload(kept, isize)
    return payload, canonical_digest(payload), report


def ingest_path(path: str, fmt: str = "auto",
                store: Optional[ResultStore] = None,
                name: str = "",
                budget: int = DEFAULT_BUDGET,
                window: int = DEFAULT_WINDOW,
                seed: int = 0) -> IngestReport:
    """Ingest the trace file at *path*; returns an :class:`IngestReport`.

    With a store, a previous ingest of the same (bytes, parameters) is
    resolved from the index without touching the pipeline.
    """
    source_sha = source_fingerprint(path, fmt, budget, window, seed)
    if store is not None:
        row = store.find_trace(source_sha=source_sha)
        if row is not None:
            return IngestReport(
                source=path, format=str((row.get("meta") or {}).get(
                    "format", fmt)),
                digest=str(row["digest"]), source_sha=source_sha,
                created=False, events=int(row["events"]),
                instructions=int(row["instructions"]), downsample=None)
    payload, digest, fmt, report = _ingest_cold(
        path, fmt, budget, window, seed, store, name, source_sha)
    return IngestReport(
        source=path, format=fmt, digest=digest,
        source_sha=source_sha, created=True,
        events=report.events_kept,
        instructions=report.instructions_kept, downsample=report)


def _ingest_cold(path: str, fmt: str, budget: int, window: int, seed: int,
                 store: Optional[ResultStore], name: str, source_sha: str,
                 expect: str = ""
                 ) -> Tuple[Dict[str, object], str, str, DownsampleReport]:
    """Parse, derive, downsample and store: the cold ingest of *path*.

    Returns ``(payload, digest, format, report)``, with the format
    resolved. The trace row it writes is the same whoever asks, so a
    later warm ingest of the file reports what a cold one would. A
    non-empty *expect* digest that the file no longer ingests to raises
    ``bundle-drift`` before anything is stored.
    """
    meta, records = load_records(path, fmt)
    fmt = str(meta.get("format", fmt))
    events = derive_block_events(records)
    payload, digest, report = ingest_events(
        events, int(meta.get("isize", DEFAULT_ISIZE)),  # type: ignore[arg-type]
        budget=budget, window=window, seed=seed)
    if expect and digest != expect:
        raise TraceIngestError(
            "trace %s: source %s re-ingests to digest %s, expected %s"
            % (name, path, digest[:12], expect[:12]),
            category="bundle-drift")
    if store is not None:
        store.put_trace(payload, name=name, source_sha=source_sha,
                        meta={"format": fmt, "source": path,
                              "instructions": report.instructions_kept,
                              "budget": budget, "window": window,
                              "seed": seed})
    return payload, digest, fmt, report


def load_workload(name: str, digest: str,
                  store: Optional[ResultStore] = None,
                  path: Optional[str] = None, fmt: str = "auto",
                  budget: int = DEFAULT_BUDGET,
                  window: int = DEFAULT_WINDOW,
                  seed: int = 0,
                  profile_overrides: Optional[Dict[str, object]] = None,
                  description: str = "") -> TraceWorkload:
    """Materialise a :class:`TraceWorkload` for a known trace digest.

    Resolution order: store blob by digest, then re-ingest from *path*.
    The resulting blob digest must equal *digest* — a mismatch means the
    source drifted out from under its registration (category
    ``bundle-drift``).
    """
    payload: Optional[Dict[str, object]] = None
    if store is not None and digest:
        payload = store.get_trace(digest)
    if payload is None:
        if path is None:
            raise TraceIngestError(
                "trace %s (digest %s) not in the store and no source path "
                "to re-ingest from" % (name, digest[:12] or "?"))
        payload, digest, _, _ = _ingest_cold(
            path, fmt, budget, window, seed, store, name,
            source_fingerprint(path, fmt, budget, window, seed),
            expect=digest)
    events, isize = events_from_blob(payload)
    return synthesize(name, events, isize, digest=digest,
                      profile_overrides=profile_overrides,
                      description=description)
