"""The external trace schema (``repro-xtrace`` v1) and its error taxonomy.

An external trace is a stream of **retired branch records** — the same
information a ChampSim branch tracer or a Pin branch log carries.  The
canonical interchange form is JSON Lines:

Header (first non-empty line)::

    {"schema": "repro-xtrace", "version": 1, "isize": 4,
     "source": "optional free text"}

* ``schema`` / ``version`` — required, exactly as above.  Unknown extra
  header keys are preserved as metadata but never interpreted.
* ``isize`` — optional mean instruction size in bytes (default 4); used
  to estimate per-block instruction counts from address spans.

Record lines (one JSON object per retired branch)::

    {"pc": 4198400, "size": 4, "taken": true, "target": 4198656,
     "kind": "cond"}

* ``pc`` — required, address of the branch instruction (int, or a
  ``"0x..."`` string).
* ``taken`` — required bool.  Not-taken flow falls through to
  ``pc + size``.
* ``target`` — required when ``taken`` is true; the branch target.
* ``size`` — optional instruction size in bytes (default ``isize``).
* ``kind`` — optional hint, one of :data:`RECORD_KINDS`; defaults to
  ``"unknown"``.  Kinds are *hints*: layout synthesis trusts observed
  edges over declared kinds and degrades gracefully when they disagree.

Between two consecutive records the program executed a straight-line run
of instructions: the basic block entered at the previous record's
flow-out address and terminated by the current record's ``pc``.  That
derived *block event stream* (see :func:`derive_block_events`) is what
the downsampler and the layout synthesizer operate on, and what the
content-addressed trace payload stores.

Malformed-input taxonomy
------------------------

Every failure raises a subclass of :class:`TraceIngestError` carrying a
``category`` from :data:`TAXONOMY` and, where meaningful, a 1-based
``lineno`` — so callers (CLI, tests, services) can dispatch on *why* an
input was rejected, not just that it was:

============================ ===========================================
category                      meaning
============================ ===========================================
``not-a-trace``               no parseable header / unrecognised format
``unsupported-version``       header version this code does not speak
``bad-header-field``          header field missing or of the wrong type
``malformed-record``          record line is not parseable at all
``bad-field-type``            record field present but wrong type
``bad-field-value``           record field parseable but out of domain
``missing-target``            taken branch without a target
``empty-trace``               header but zero records
``inconsistent-flow``         records contradict each other (block would
                              end before it starts)
``budget-too-small``          downsample budget below one window
``bundle-drift``              bundled/pinned digest no longer matches
============================ ===========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, IO, Iterable, List, Optional, Tuple

SCHEMA_NAME = "repro-xtrace"
SCHEMA_VERSION = 1

#: Recognised values for a record's ``kind`` hint.
RECORD_KINDS = (
    "cond",
    "direct",
    "indirect",
    "call",
    "indirect_call",
    "return",
    "unknown",
)

DEFAULT_ISIZE = 4

#: category -> human description (the malformed-input taxonomy).
TAXONOMY: Dict[str, str] = {
    "not-a-trace": "no parseable header / unrecognised format",
    "unsupported-version": "header names a schema version this code does not speak",
    "bad-header-field": "header field missing or of the wrong type",
    "malformed-record": "record line is not parseable at all",
    "bad-field-type": "record field present but of the wrong type",
    "bad-field-value": "record field parseable but outside its domain",
    "missing-target": "taken branch without a target address",
    "empty-trace": "valid header but zero records",
    "inconsistent-flow": "records contradict each other mid-stream",
    "budget-too-small": "downsample budget smaller than one window",
    "bundle-drift": "bundled/pinned trace digest no longer matches",
}


class TraceIngestError(ValueError):
    """Base for every trace-ingestion failure.

    ``category`` is always a key of :data:`TAXONOMY`; ``lineno`` is the
    1-based input line when the failure is attributable to one.
    """

    category = "not-a-trace"

    def __init__(self, message: str, category: Optional[str] = None,
                 lineno: Optional[int] = None):
        if category is not None:
            self.category = category
        assert self.category in TAXONOMY, self.category
        self.lineno = lineno
        where = " (line %d)" % lineno if lineno is not None else ""
        super().__init__("[%s] %s%s" % (self.category, message, where))


class TraceFormatError(TraceIngestError):
    """The input is not a trace in any supported shape."""

    category = "not-a-trace"


class TraceSchemaError(TraceIngestError):
    """The header is present but wrong (version/fields)."""

    category = "bad-header-field"


class TraceRecordError(TraceIngestError):
    """A single record line is malformed."""

    category = "malformed-record"


class TraceStreamError(TraceIngestError):
    """Individually valid records that are mutually inconsistent."""

    category = "inconsistent-flow"


@dataclass(frozen=True)
class BranchRecord:
    """One retired branch, normalised from any input format."""

    pc: int
    taken: bool
    target: int  # 0 when not taken
    size: int
    kind: str  # one of RECORD_KINDS

    @property
    def flow_out(self) -> int:
        """Address control flow continues at after this branch."""
        return self.target if self.taken else self.pc + self.size


@dataclass(frozen=True)
class BlockEvent:
    """One dynamic basic-block execution derived from the record stream.

    The block spans ``[start, end]`` where ``end`` is the terminating
    branch's pc; ``size`` is that branch instruction's size (needed to
    compute the fall-through / return-point address ``end + size``).
    """

    start: int
    end: int
    size: int
    taken: bool
    target: int
    kind: str

    @property
    def flow_out(self) -> int:
        return self.target if self.taken else self.end + self.size

    def key(self) -> Tuple[int, int]:
        """Static block identity: same entry + same terminator."""
        return (self.start, self.end)


def parse_int(value: object, field: str, lineno: Optional[int]) -> int:
    """Parse an int field that may arrive as an int or a hex/dec string."""
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TraceRecordError(
            "field %r must be an integer, got bool" % field,
            category="bad-field-type", lineno=lineno)
    if isinstance(value, int):
        out = value
    elif isinstance(value, str):
        try:
            out = int(value, 0)
        except ValueError:
            raise TraceRecordError(
                "field %r is not an integer: %r" % (field, value),
                category="bad-field-type", lineno=lineno)
    else:
        raise TraceRecordError(
            "field %r must be an integer, got %s" % (field, type(value).__name__),
            category="bad-field-type", lineno=lineno)
    if out < 0:
        raise TraceRecordError(
            "field %r must be non-negative, got %d" % (field, out),
            category="bad-field-value", lineno=lineno)
    return out


def validate_header(obj: object, lineno: int = 1) -> Dict[str, object]:
    """Validate a parsed JSONL header object; returns it as metadata."""
    if not isinstance(obj, dict):
        raise TraceFormatError("header line is not a JSON object",
                               lineno=lineno)
    schema = obj.get("schema")
    if schema != SCHEMA_NAME:
        raise TraceFormatError(
            "header schema %r is not %r" % (schema, SCHEMA_NAME),
            lineno=lineno)
    version = obj.get("version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise TraceSchemaError("header 'version' must be an integer",
                               lineno=lineno)
    if version != SCHEMA_VERSION:
        raise TraceSchemaError(
            "schema version %d unsupported (this code speaks %d)"
            % (version, SCHEMA_VERSION),
            category="unsupported-version", lineno=lineno)
    isize = obj.get("isize", DEFAULT_ISIZE)
    if not isinstance(isize, int) or isinstance(isize, bool) or isize <= 0:
        raise TraceSchemaError("header 'isize' must be a positive integer",
                               lineno=lineno)
    return dict(obj)


def validate_record(obj: object, isize: int, lineno: int) -> BranchRecord:
    """Validate one parsed JSONL record object into a :class:`BranchRecord`."""
    if not isinstance(obj, dict):
        raise TraceRecordError("record line is not a JSON object",
                               lineno=lineno)
    if "pc" not in obj:
        raise TraceRecordError("record is missing 'pc'",
                               category="bad-field-value", lineno=lineno)
    pc = parse_int(obj["pc"], "pc", lineno)
    taken = obj.get("taken")
    if not isinstance(taken, bool):
        raise TraceRecordError("field 'taken' must be a bool",
                               category="bad-field-type", lineno=lineno)
    size = parse_int(obj.get("size", isize), "size", lineno)
    if size <= 0:
        raise TraceRecordError("field 'size' must be positive",
                               category="bad-field-value", lineno=lineno)
    kind = obj.get("kind", "unknown")
    if kind not in RECORD_KINDS:
        raise TraceRecordError(
            "field 'kind' must be one of %s, got %r"
            % ("/".join(RECORD_KINDS), kind),
            category="bad-field-value", lineno=lineno)
    if taken:
        if "target" not in obj or obj["target"] is None:
            raise TraceRecordError("taken branch has no 'target'",
                                   category="missing-target", lineno=lineno)
        target = parse_int(obj["target"], "target", lineno)
    else:
        target = 0
    return BranchRecord(pc=pc, taken=taken, target=target, size=size, kind=kind)


def read_jsonl(lines: Iterable[str]) -> Tuple[Dict[str, object], List[BranchRecord]]:
    """Parse JSONL text lines into ``(header_meta, records)``.

    The first non-empty, non-comment line must be the header.  Lines
    starting with ``#`` are comments.
    """
    meta: Optional[Dict[str, object]] = None
    isize = DEFAULT_ISIZE
    records: List[BranchRecord] = []
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            if meta is None:
                raise TraceFormatError("first line is not JSON", lineno=lineno)
            raise TraceRecordError("line is not JSON", lineno=lineno)
        if meta is None:
            meta = validate_header(obj, lineno=lineno)
            isize = int(meta.get("isize", DEFAULT_ISIZE))  # type: ignore[arg-type]
            continue
        records.append(validate_record(obj, isize, lineno))
    if meta is None:
        raise TraceFormatError("empty input: no header line",
                               lineno=lineno or None)
    if not records:
        raise TraceSchemaError("trace has a header but no records",
                               category="empty-trace", lineno=lineno)
    return meta, records


def write_jsonl(fh: IO[str], records: Iterable[BranchRecord],
                meta: Optional[Dict[str, object]] = None) -> None:
    """Write records in canonical ``repro-xtrace`` JSONL form."""
    header: Dict[str, object] = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION}
    if meta:
        for key, value in meta.items():
            if key not in ("schema", "version"):
                header[key] = value
    fh.write(json.dumps(header, sort_keys=True) + "\n")
    for rec in records:
        obj: Dict[str, object] = {"pc": rec.pc, "taken": rec.taken,
                                  "size": rec.size}
        if rec.taken:
            obj["target"] = rec.target
        if rec.kind != "unknown":
            obj["kind"] = rec.kind
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def derive_block_events(records: List[BranchRecord]) -> List[BlockEvent]:
    """Turn the branch-record stream into a dynamic basic-block stream.

    Block *i* starts at record *i-1*'s flow-out address (the first block
    starts at record 0's pc) and ends at record *i*'s pc.  A record whose
    pc precedes its block's start would mean the block ends before it
    begins — mutually contradictory records, rejected with category
    ``inconsistent-flow``.
    """
    if not records:
        raise TraceSchemaError("no records to derive blocks from",
                               category="empty-trace")
    events: List[BlockEvent] = []
    start = records[0].pc
    for i, rec in enumerate(records):
        if rec.pc < start:
            raise TraceStreamError(
                "record %d: branch pc 0x%x precedes its block start 0x%x "
                "(previous record's flow-out)" % (i, rec.pc, start),
                lineno=None)
        events.append(BlockEvent(start=start, end=rec.pc, size=rec.size,
                                 taken=rec.taken, target=rec.target,
                                 kind=rec.kind))
        start = rec.flow_out
    return events
