"""Trace benchmark registry: names -> ingested workloads.

This module is the provider behind the external-benchmark registry in
:mod:`repro.workloads.profiles` (loaded lazily, by dotted name, on the
first unknown-benchmark lookup — including inside pool children).
Importing it registers:

* the **bundled traces** pinned in ``data/bundled.json`` (regenerate
  with ``scripts/make_bundled_traces.py``), and
* any **user traces** recorded by ``repro ingest --register NAME`` in
  the ``trace_names`` table of the default result store
  (:func:`~repro.service.store.store_root`), the store that holds
  their traces. A store that does not exist yet is not created: it has
  no names.

Registration is cheap: only the :class:`TraceProfile` (name, pinned
digest, event/instruction counts) is built eagerly, so computing a run
key over a trace benchmark costs no I/O.  The heavy work — resolving
the trace and synthesising the layout — happens once per process,
memoized, the first time a layout or walker is actually needed.  A
bundled trace re-ingests from its package file and touches no store,
so resolving it from a checkout leaves the checkout's store as it was;
a user trace resolves from the store by digest, else re-ingests from
its source file.  A resolved trace whose digest disagrees with the
pinned one fails with category ``bundle-drift`` rather than silently
simulating a different workload.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from typing import Dict, Optional

from repro.service.store import open_store, store_root
from repro.traces.downsample import DEFAULT_BUDGET, DEFAULT_WINDOW
from repro.traces.ingest import IngestReport, load_workload
from repro.traces.schema import TraceIngestError
from repro.traces.synthesize import TraceProfile, TraceWorkload
from repro.workloads.profiles import register_external_benchmark
from repro.workloads.trace import TraceReplayer

DATA_DIR = Path(__file__).resolve().parent / "data"
BUNDLED_MANIFEST = DATA_DIR / "bundled.json"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9_.-]{0,63}$")

_SPECS: Dict[str, Dict[str, object]] = {}
_WORKLOADS: Dict[str, TraceWorkload] = {}
_BUNDLED_NAMES: "set[str]" = set()
_LOCK = threading.Lock()


def trace_benchmark_names() -> "tuple[str, ...]":
    """Names this provider has registered (sorted)."""
    return tuple(sorted(_SPECS))


def get_workload(name: str) -> TraceWorkload:
    """The materialised workload for a registered trace benchmark."""
    with _LOCK:
        wl = _WORKLOADS.get(name)
        if wl is not None:
            return wl
        spec = _SPECS.get(name)
        if spec is None:
            raise KeyError("unknown trace benchmark %r" % (name,))
        path = spec.get("path")
        # a bundled trace re-ingests from its package file and is never
        # stored; a user trace resolves from the store that holds it
        wl = load_workload(
            name, str(spec["digest"]),
            store=None if name in _BUNDLED_NAMES else open_store(),
            path=str(path) if path else None,
            fmt=str(spec.get("format", "auto")),
            budget=int(spec.get("budget", DEFAULT_BUDGET)),  # type: ignore[arg-type]
            window=int(spec.get("window", DEFAULT_WINDOW)),  # type: ignore[arg-type]
            seed=int(spec.get("seed", 0)),  # type: ignore[arg-type]
            profile_overrides=spec.get("profile"),  # type: ignore[arg-type]
            description=str(spec.get("description", "")))
        _WORKLOADS[name] = wl
        return wl


def _register(name: str, spec: Dict[str, object],
              replace_existing: bool = False) -> None:
    if not _NAME_RE.match(name):
        raise TraceIngestError(
            "trace benchmark name %r must match %s"
            % (name, _NAME_RE.pattern))
    profile = TraceProfile(
        name=name,
        description=str(spec.get("description", "")) or
        "ingested trace workload",
        trace_digest=str(spec["digest"]),
        trace_events=int(spec.get("events", 0)),  # type: ignore[arg-type]
        trace_instructions=int(spec.get("instructions", 0)),  # type: ignore[arg-type]
        **dict(spec.get("profile") or {}))  # type: ignore[arg-type]

    def layout_builder(seed: int, _name: str = name):
        # trace layouts are reconstructions of one observed binary:
        # seed-invariant by design (the seed still varies machine RNGs)
        return get_workload(_name).layout

    def walker_factory(layout, seed: int, _name: str = name):
        return TraceReplayer(layout, get_workload(_name).replay_text,
                             loop=True, verify=False)

    _SPECS[name] = dict(spec)
    register_external_benchmark(name, profile, layout_builder,
                                walker_factory,
                                replace_existing=replace_existing)


def _load_bundled() -> None:
    if not BUNDLED_MANIFEST.exists():
        return  # stripped-down checkout: bundled benchmarks unavailable
    with open(BUNDLED_MANIFEST) as fh:
        manifest = json.load(fh)
    for name, spec in sorted(manifest.items()):
        spec = dict(spec)
        spec["path"] = str(DATA_DIR / str(spec.pop("file")))
        spec.setdefault("format", "jsonl")
        _BUNDLED_NAMES.add(name)
        _register(name, spec)


def _load() -> None:
    """Register the bundled traces, then the store's trace names.

    The store's names are read first, so a store that fails to open
    fails the import with nothing registered, and the next lookup
    imports this module again from a clean slate.
    """
    stored = {}
    if (store_root() / "store.sqlite").is_file():  # listing never creates one
        stored = open_store().trace_names()
    _load_bundled()
    for name, (digest, spec) in sorted(stored.items()):
        if name in _SPECS:
            continue  # bundled names win; the CLI refuses to shadow them
        _register(name, dict(spec, digest=digest))


def register_ingested(name: str, report: IngestReport,
                      budget: int, window: int, seed: int = 0,
                      profile: Optional[Dict[str, object]] = None,
                      description: str = "") -> Path:
    """Persist + activate ``repro ingest --register NAME``.

    Upserts the name into the default store's ``trace_names`` table in
    one transaction, so concurrent registrations never lose one, and
    registers the benchmark in this process.  Returns the store root.
    """
    if not _NAME_RE.match(name):
        raise TraceIngestError(
            "trace benchmark name %r must match %s"
            % (name, _NAME_RE.pattern))
    if name in _BUNDLED_NAMES:
        raise TraceIngestError(
            "%r is a bundled trace benchmark and cannot be replaced; "
            "pick another name" % (name,))
    spec: Dict[str, object] = {
        "path": os.path.abspath(report.source),
        "format": report.format,
        "events": report.events,
        "instructions": report.instructions,
        "budget": budget,
        "window": window,
        "seed": seed,
        "description": description or ("user trace ingested from %s"
                                       % os.path.basename(report.source)),
    }
    if profile:
        spec["profile"] = dict(profile)
    store = open_store()
    store.name_trace(name, report.digest, spec)
    _register(name, dict(spec, digest=report.digest), replace_existing=True)
    return store.root


_load()
