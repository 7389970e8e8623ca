"""Instruction-stream trace recording and replay.

The reproduction is execution-driven (the walker generates the stream),
but adopters often have their own traces — from a binary-instrumentation
tool, an emulator, or a previous run they want bit-identical. This module
defines a compact, versioned, text-based trace format and a
:class:`TraceReplayer` that is drop-in compatible with
:class:`~repro.workloads.walker.PathWalker` (same ``next_event`` /
``snapshot_stack`` surface), so a recorded trace can drive the full
simulator, PDIP included.

Format (one record per basic block, whitespace separated)::

    REPRO-TRACE v1
    <bid> <taken> <next_bid>

Block geometry travels with the layout, not the trace: a trace is only
replayable against the layout (profile + seed) it was recorded from,
which the header captures and the replayer verifies.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Union

from repro.workloads.layout import BranchKind, CodeLayout
from repro.workloads.walker import ControlFlowEvent, PathWalker

MAGIC = "REPRO-TRACE"
VERSION = 1


class TraceError(ValueError):
    """Malformed trace or layout mismatch."""


@dataclass
class TraceHeader:
    """Identity of the layout a trace was recorded against."""

    workload: str
    seed: int
    num_blocks: int

    def line(self) -> str:
        """Serialize the header line."""
        return (f"{MAGIC} v{VERSION} workload={self.workload} "
                f"seed={self.seed} blocks={self.num_blocks}")

    @classmethod
    def parse(cls, line: str) -> "TraceHeader":
        """Parse a header line (TraceError on mismatch)."""
        parts = line.split()
        if len(parts) != 5 or parts[0] != MAGIC:
            raise TraceError("not a repro trace: %r" % line[:50])
        if parts[1] != "v%d" % VERSION:
            raise TraceError("unsupported trace version %r" % parts[1])
        fields = dict(p.split("=", 1) for p in parts[2:])
        try:
            return cls(workload=fields["workload"],
                       seed=int(fields["seed"]),
                       num_blocks=int(fields["blocks"]))
        except (KeyError, ValueError) as exc:
            raise TraceError("bad trace header: %s" % exc)


def record(walker: PathWalker, num_events: int, out: IO[str],
           workload: str = "unknown", seed: int = 0) -> int:
    """Drive ``walker`` for ``num_events`` blocks, writing the trace.

    Returns the number of instructions covered.
    """
    header = TraceHeader(workload=workload, seed=seed,
                         num_blocks=walker.layout.num_blocks)
    out.write(header.line() + "\n")
    instructions = 0
    for _ in range(num_events):
        ev = walker.next_event()
        instructions += ev.block.num_instructions
        out.write(f"{ev.block.bid} {1 if ev.taken else 0} {ev.next_bid}\n")
    return instructions


def record_to_string(walker: PathWalker, num_events: int,
                     workload: str = "unknown", seed: int = 0) -> str:
    """Record a trace into a string (see record())."""
    buf = io.StringIO()
    record(walker, num_events, buf, workload=workload, seed=seed)
    return buf.getvalue()


def _parse_records(lines: Iterable[str]) -> Iterator["tuple[int, bool, int]"]:
    for lineno, raw in enumerate(lines, start=2):
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        if len(parts) != 3:
            raise TraceError("line %d: expected 3 fields, got %r"
                             % (lineno, raw[:50]))
        try:
            bid, taken, next_bid = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise TraceError("line %d: non-integer field in %r"
                             % (lineno, raw[:50]))
        if taken not in (0, 1):
            raise TraceError("line %d: taken must be 0/1" % lineno)
        yield bid, bool(taken), next_bid


class TraceReplayer:
    """Drop-in walker replacement that replays a recorded trace.

    Verifies each record against the layout (block ids in range,
    successors consistent with the block's terminator) so a corrupt or
    mismatched trace fails fast rather than silently simulating garbage.
    When the trace runs out, raises ``StopIteration`` from
    ``next_event`` unless ``loop=True`` (replay wraps around; only legal
    if the trace ends where it starts).
    """

    def __init__(self, layout: CodeLayout, text: Union[str, IO[str]],
                 loop: bool = False, verify: bool = True):
        if isinstance(text, str):
            text = io.StringIO(text)
        lines = text.read().splitlines()
        if not lines:
            raise TraceError("empty trace")
        self.header = TraceHeader.parse(lines[0])
        if self.header.num_blocks != layout.num_blocks:
            raise TraceError(
                "trace recorded against a %d-block layout, got %d blocks"
                % (self.header.num_blocks, layout.num_blocks))
        self.layout = layout
        self.loop = loop
        self._records: List["tuple[int, bool, int]"] = list(
            _parse_records(lines[1:]))
        if not self._records:
            raise TraceError("trace has a header but no records")
        if verify:
            self._verify()
        self._pos = 0
        self.events = 0
        # maintained for FTQ/wrong-path parity with PathWalker
        self.stack: List[int] = []

    # -- verification ---------------------------------------------------
    def _verify(self) -> None:
        layout = self.layout
        for i, (bid, taken, next_bid) in enumerate(self._records):
            if not 0 <= bid < layout.num_blocks:
                raise TraceError("record %d: block %d out of range" % (i, bid))
            if not 0 <= next_bid < layout.num_blocks:
                raise TraceError("record %d: successor %d out of range"
                                 % (i, next_bid))
            block = layout.blocks[bid]
            if block.kind is BranchKind.FALLTHROUGH and taken:
                raise TraceError("record %d: fallthrough block %d marked "
                                 "taken" % (i, bid))
            if block.kind is BranchKind.COND and not taken:
                if next_bid != block.fallthrough:
                    raise TraceError(
                        "record %d: not-taken COND must fall through" % i)
            if i + 1 < len(self._records):
                if self._records[i + 1][0] != next_bid:
                    raise TraceError(
                        "record %d: successor %d but next record is block %d"
                        % (i, next_bid, self._records[i + 1][0]))

    # -- walker surface -------------------------------------------------
    def next_event(self) -> ControlFlowEvent:
        """Next control-flow event (walker-compatible)."""
        if self._pos >= len(self._records):
            if not self.loop:
                raise StopIteration("trace exhausted after %d events"
                                    % self.events)
            self._pos = 0
        bid, taken, next_bid = self._records[self._pos]
        self._pos += 1
        self.events += 1
        block = self.layout.blocks[bid]
        if block.kind in (BranchKind.CALL, BranchKind.INDIRECT_CALL):
            # Bounded like a real return-address stack: traces with
            # unbalanced call/return mixes (common in externally captured
            # streams replayed with loop=True) must not grow the stack
            # without limit. Dropping the push on overflow is O(1) and
            # deterministic.
            if (block.fallthrough is not None
                    and len(self.stack) < PathWalker.MAX_STACK_DEPTH):
                self.stack.append(block.fallthrough)
        elif block.kind is BranchKind.RETURN and self.stack:
            self.stack.pop()
        return ControlFlowEvent(
            block=block, taken=taken, next_bid=next_bid,
            target_addr=self.layout.blocks[next_bid].addr)

    def snapshot_stack(self) -> List[int]:
        """Copy of the speculative call stack."""
        return list(self.stack)

    def __len__(self) -> int:
        return len(self._records)
