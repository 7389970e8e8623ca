"""Run-diff triage: what changed between two runs, and where first.

``repro diff A B`` compares two run artifacts and reports (1) which
counters diverged — naming the **first** diverging counter in the
declaration order the stats dump preserves, which for simulator counters
follows pipeline order, so the first name is usually the closest to the
root cause — and (2) when both runs carry traces, the first trace event
at which the two executions stopped agreeing (seq/cycle/kind/args).

Accepted inputs, auto-detected by content:

* **run dumps** — JSON written by ``repro run --stats-out`` or
  ``repro trace run`` (``{"stats": {...}, "trace": {...}}``); when both
  dumps reference existing ``.trace.jsonl`` files, the event-level
  first divergence is computed too;
* **manifests** — suite manifests (schema ≥ 2) whose cells carry
  ``stats`` digests, and sweep reports (``repro sweep run --report``);
  cells are aligned on (benchmark, policy, seed, instructions, warmup)
  and their config: a report row's overrides, a manifest cell's hash;
* **traces** — ``.trace.jsonl`` streams or Chrome ``traceEvents``
  documents, compared event-by-event.

The verdict is machine-readable (``--format json``) for CI:
exit 0 = match, 1 = diverged, 2 = incomparable/usage error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.telemetry.export import read_jsonl
from repro.telemetry.recorder import Event

#: counters whose divergence is reported before any event-level triage
_SKIP_KEYS = ("extra",)


@dataclass
class CounterDivergence:
    """One counter that differs between the two runs."""

    name: str
    a: Optional[float]
    b: Optional[float]
    #: manifest diffs qualify the counter with its grid cell
    cell: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "a": self.a, "b": self.b,
                "cell": self.cell}

    def render(self) -> str:
        where = ("%s: " % self.cell) if self.cell else ""
        return "%s%s: %s != %s" % (where, self.name, self.a, self.b)


@dataclass
class DiffReport:
    """Outcome of one A/B comparison."""

    a: str
    b: str
    kind: str                     #: "stats" | "manifest" | "trace"
    verdict: str = "match"        #: "match" | "diverged" | "incomparable"
    counters: List[CounterDivergence] = field(default_factory=list)
    #: {"index", "a", "b"} — first event where the traces disagree
    first_event_divergence: Optional[Dict[str, object]] = None
    notes: List[str] = field(default_factory=list)

    @property
    def first_diverging_counter(self) -> Optional[str]:
        """Name of the first diverging counter (None when none did)."""
        return self.counters[0].name if self.counters else None

    @property
    def exit_code(self) -> int:
        """CI contract: 0 match, 1 diverged, 2 incomparable."""
        if self.verdict == "match":
            return 0
        if self.verdict == "diverged":
            return 1
        return 2

    def to_dict(self) -> Dict[str, object]:
        return {
            "a": self.a,
            "b": self.b,
            "kind": self.kind,
            "verdict": self.verdict,
            "first_diverging_counter": self.first_diverging_counter,
            "counters": [c.to_dict() for c in self.counters],
            "first_event_divergence": self.first_event_divergence,
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = ["diff %s vs %s [%s]: %s"
                 % (self.a, self.b, self.kind, self.verdict.upper())]
        if self.counters:
            lines.append("  first diverging counter: %s"
                         % self.counters[0].render())
            for div in self.counters[1:]:
                lines.append("  also diverged: %s" % div.render())
        fed = self.first_event_divergence
        if fed is not None:
            lines.append("  first event divergence at index %s:"
                         % fed.get("index"))
            lines.append("    a: %s" % (fed.get("a"),))
            lines.append("    b: %s" % (fed.get("b"),))
        for note in self.notes:
            lines.append("  note: %s" % note)
        return "\n".join(lines)


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_artifact(path) -> Tuple[str, object]:
    """Load and classify one input: ("run"|"manifest"|"trace", payload)."""
    path = Path(path)
    if path.suffix == ".jsonl":
        return "trace", read_jsonl(path)
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return "trace", _events_from_chrome(doc)
        if "cells" in doc:
            return "manifest", doc
        if "stats" in doc:
            return "run", doc
        if doc and all(isinstance(v, (int, float))
                       for v in doc.values()):
            return "run", {"stats": doc}
    raise ValueError("unrecognized diff input %s (want a run dump, "
                     "manifest, or trace)" % path)


def _events_from_chrome(doc: Dict[str, object]) -> List[Event]:
    events: List[Event] = []
    for row in doc.get("traceEvents", []):
        if row.get("ph") != "i":
            continue
        args = dict(row.get("args", {}))
        seq = args.pop("seq", len(events))
        events.append((seq, row.get("ts", 0), row.get("name", "?"), args))
    return events


# ----------------------------------------------------------------------
# comparisons
# ----------------------------------------------------------------------
def diff_counters(a: Dict[str, object], b: Dict[str, object],
                  cell: str = "") -> List[CounterDivergence]:
    """Diverging numeric entries, in A's key order (B-only keys last)."""
    out: List[CounterDivergence] = []
    for name in list(a) + [k for k in b if k not in a]:
        if name in _SKIP_KEYS:
            continue
        va, vb = a.get(name), b.get(name)
        if isinstance(va, dict) or isinstance(vb, dict):
            continue
        if va != vb:
            out.append(CounterDivergence(name=name, a=va, b=vb, cell=cell))
    return out


def first_event_divergence(a: List[Event], b: List[Event]
                           ) -> Optional[Dict[str, object]]:
    """First index where the two event streams disagree (None if equal)."""
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            return {"index": i, "a": _event_dict(ea), "b": _event_dict(eb)}
    if len(a) != len(b):
        i = min(len(a), len(b))
        return {
            "index": i,
            "a": _event_dict(a[i]) if i < len(a) else None,
            "b": _event_dict(b[i]) if i < len(b) else None,
        }
    return None


def _event_dict(event: Event) -> Dict[str, object]:
    seq, cycle, kind, args = event
    return {"seq": seq, "cycle": cycle, "kind": kind, "args": args}


def _diff_runs(report: DiffReport, a: Dict[str, object],
               b: Dict[str, object]) -> None:
    report.counters = diff_counters(a.get("stats", {}) or {},
                                    b.get("stats", {}) or {})
    trace_a = (a.get("trace") or {}).get("jsonl")
    trace_b = (b.get("trace") or {}).get("jsonl")
    if trace_a and trace_b:
        pa, pb = Path(trace_a), Path(trace_b)
        if pa.exists() and pb.exists():
            report.first_event_divergence = first_event_divergence(
                read_jsonl(pa), read_jsonl(pb))
        else:
            report.notes.append("trace files referenced but missing; "
                                "event-level triage skipped")
    for side, dump in (("a", a), ("b", b)):
        tel = dump.get("telemetry")
        if tel and tel.get("recorder", {}).get("events_dropped_ring"):
            report.notes.append(
                "%s: ring dropped %d events (raise REPRO_TELEMETRY_CAPACITY "
                "for full-history alignment)"
                % (side, tel["recorder"]["events_dropped_ring"]))


def _cell_key(cell: Dict[str, object]) -> Tuple[object, ...]:
    # a report row carries its config overrides (None: the default
    # machine), a manifest cell its config hash
    config = cell.get("config", cell.get("config_hash"))
    return (cell.get("benchmark"), cell.get("policy"), cell.get("seed"),
            cell.get("instructions"), cell.get("warmup"),
            json.dumps(config, sort_keys=True))


def _cell_label(cell: Dict[str, object]) -> str:
    """``bench/policy/sN``, with ``[config label]`` for a non-default row."""
    variant = "[%s]" % cell.get("config_label") if cell.get("config") else ""
    return "%s/%s%s/s%s" % (cell.get("benchmark"), cell.get("policy"),
                            variant, cell.get("seed"))


def _diff_manifests(report: DiffReport, a: Dict[str, object],
                    b: Dict[str, object]) -> None:
    cells_a = {_cell_key(c): c for c in a.get("cells", [])}
    cells_b = {_cell_key(c): c for c in b.get("cells", [])}
    only_a = [k for k in cells_a if k not in cells_b]
    only_b = [k for k in cells_b if k not in cells_a]
    if only_a or only_b:
        report.notes.append(
            "grids differ: %d cell(s) only in A, %d only in B"
            % (len(only_a), len(only_b)))
    missing_digests = 0
    for key in cells_a:
        if key not in cells_b:
            continue
        sa = cells_a[key].get("stats")
        sb = cells_b[key].get("stats")
        if sa is None or sb is None:
            missing_digests += 1
            continue
        report.counters.extend(diff_counters(
            sa, sb, cell=_cell_label(cells_a[key])))
    if missing_digests:
        report.notes.append(
            "%d matched cell(s) lack stats digests (manifest schema < 2?)"
            % missing_digests)


def diff_paths(path_a, path_b) -> DiffReport:
    """Compare two artifacts; never raises on divergence, only on I/O."""
    report = DiffReport(a=str(path_a), b=str(path_b), kind="stats")
    try:
        kind_a, doc_a = load_artifact(path_a)
        kind_b, doc_b = load_artifact(path_b)
    except (OSError, ValueError, KeyError) as exc:
        report.verdict = "incomparable"
        report.notes.append(str(exc))
        return report
    if kind_a != kind_b:
        report.verdict = "incomparable"
        report.kind = "%s/%s" % (kind_a, kind_b)
        report.notes.append("cannot compare a %s against a %s"
                            % (kind_a, kind_b))
        return report
    report.kind = kind_a
    if kind_a == "trace":
        report.first_event_divergence = first_event_divergence(doc_a, doc_b)
    elif kind_a == "manifest":
        _diff_manifests(report, doc_a, doc_b)
    else:
        _diff_runs(report, doc_a, doc_b)
    diverged = bool(report.counters) or (
        report.first_event_divergence is not None)
    report.verdict = "diverged" if diverged else "match"
    return report
