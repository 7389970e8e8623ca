"""Converters: foreign trace shapes -> normalised :class:`BranchRecord` streams.

Two common external shapes are supported beyond the native JSONL schema:

``champsim``
    Whitespace-separated text, one retired branch per line, in the shape
    ChampSim's branch-trace dumps use::

        <pc> <target> <taken 0|1> <BRANCH_TYPE>

    Addresses may be decimal or ``0x``-hex.  ``BRANCH_TYPE`` tokens map
    onto schema kinds via :data:`CHAMPSIM_KINDS`; unknown tokens are
    rejected (category ``bad-field-value``).

``csv``
    Generic ``pc,target,taken`` rows (an optional literal header row is
    skipped).  ``taken`` is ``0``/``1``; a not-taken row may leave
    ``target`` empty or ``0``.  No kind information — synthesis infers
    everything from the observed edges.

``load_records`` sniffs the format when asked (gzip is detected by magic
bytes; JSONL by a leading ``{``; CSV by commas; anything else is tried
as ChampSim text) and always returns ``(meta, records)`` in schema form.
"""

from __future__ import annotations

import gzip
import io
from typing import Dict, IO, Iterable, List, Tuple

from repro.traces.schema import (
    DEFAULT_ISIZE,
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BranchRecord,
    TraceFormatError,
    TraceRecordError,
    TraceSchemaError,
    read_jsonl,
)

FORMATS = ("auto", "jsonl", "champsim", "csv")

#: ChampSim branch-type token -> schema kind.
CHAMPSIM_KINDS: Dict[str, str] = {
    "BRANCH_CONDITIONAL": "cond",
    "BRANCH_DIRECT_JUMP": "direct",
    "BRANCH_INDIRECT": "indirect",
    "BRANCH_DIRECT_CALL": "call",
    "BRANCH_INDIRECT_CALL": "indirect_call",
    "BRANCH_RETURN": "return",
    "BRANCH_OTHER": "unknown",
}


def _parse_addr(token: str, field: str, lineno: int) -> int:
    try:
        value = int(token, 0)
    except ValueError:
        raise TraceRecordError(
            "field %r is not an address: %r" % (field, token),
            category="bad-field-type", lineno=lineno)
    if value < 0:
        raise TraceRecordError(
            "field %r must be non-negative, got %d" % (field, value),
            category="bad-field-value", lineno=lineno)
    return value


def read_champsim(lines: Iterable[str]) -> Tuple[Dict[str, object], List[BranchRecord]]:
    """Parse ChampSim-style branch-record text into schema form."""
    records: List[BranchRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise TraceRecordError(
                "expected 4 fields '<pc> <target> <taken> <type>', got %d"
                % len(fields), lineno=lineno)
        pc = _parse_addr(fields[0], "pc", lineno)
        target = _parse_addr(fields[1], "target", lineno)
        if fields[2] not in ("0", "1"):
            raise TraceRecordError(
                "field 'taken' must be 0 or 1, got %r" % fields[2],
                category="bad-field-value", lineno=lineno)
        taken = fields[2] == "1"
        kind = CHAMPSIM_KINDS.get(fields[3])
        if kind is None:
            raise TraceRecordError(
                "unknown branch type %r (expected one of %s)"
                % (fields[3], "/".join(sorted(CHAMPSIM_KINDS))),
                category="bad-field-value", lineno=lineno)
        if taken and target == 0:
            raise TraceRecordError("taken branch has target 0",
                                   category="missing-target", lineno=lineno)
        records.append(BranchRecord(pc=pc, taken=taken,
                                    target=target if taken else 0,
                                    size=DEFAULT_ISIZE, kind=kind))
    if not records:
        raise TraceSchemaError("champsim input has no records",
                               category="empty-trace")
    meta: Dict[str, object] = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
                               "isize": DEFAULT_ISIZE, "converted_from": "champsim"}
    return meta, records


def read_csv(lines: Iterable[str]) -> Tuple[Dict[str, object], List[BranchRecord]]:
    """Parse generic ``pc,target,taken`` CSV rows into schema form."""
    records: List[BranchRecord] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if lineno == 1 and [f.lower() for f in fields[:3]] == ["pc", "target", "taken"]:
            continue  # optional literal header row
        if len(fields) != 3:
            raise TraceRecordError(
                "expected 3 fields 'pc,target,taken', got %d" % len(fields),
                lineno=lineno)
        pc = _parse_addr(fields[0], "pc", lineno)
        target = _parse_addr(fields[1], "target", lineno) if fields[1] else 0
        if fields[2] not in ("0", "1"):
            raise TraceRecordError(
                "field 'taken' must be 0 or 1, got %r" % fields[2],
                category="bad-field-value", lineno=lineno)
        taken = fields[2] == "1"
        if taken and target == 0:
            raise TraceRecordError("taken branch has target 0",
                                   category="missing-target", lineno=lineno)
        records.append(BranchRecord(pc=pc, taken=taken,
                                    target=target if taken else 0,
                                    size=DEFAULT_ISIZE, kind="unknown"))
    if not records:
        raise TraceSchemaError("csv input has no records",
                               category="empty-trace")
    meta: Dict[str, object] = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
                               "isize": DEFAULT_ISIZE, "converted_from": "csv"}
    return meta, records


def sniff_format(first_line: str) -> str:
    """Guess the text format from the first non-empty, non-comment line."""
    line = first_line.strip()
    if line.startswith("{"):
        return "jsonl"
    if "," in line:
        return "csv"
    return "champsim"


def _open_text(path: str) -> IO[str]:
    """Open *path* as text, transparently decompressing gzip by magic."""
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == b"\x1f\x8b":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def load_records(path: str, fmt: str = "auto"
                 ) -> Tuple[Dict[str, object], List[BranchRecord]]:
    """Read *path* (optionally gzipped) in *fmt* into ``(meta, records)``."""
    if fmt not in FORMATS:
        raise TraceFormatError("unknown format %r (expected one of %s)"
                               % (fmt, "/".join(FORMATS)))
    fh = _open_text(path)
    try:
        lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise TraceFormatError("cannot read %s as a text trace: %s"
                               % (path, exc))
    finally:
        fh.close()
    if fmt == "auto":
        first = next((l for l in lines if l.strip() and not l.strip().startswith("#")), "")
        if not first:
            raise TraceFormatError("empty input: nothing to sniff")
        fmt = sniff_format(first)
    reader = {"jsonl": read_jsonl, "champsim": read_champsim, "csv": read_csv}[fmt]
    meta, records = reader(lines)
    meta["format"] = fmt
    return meta, records
