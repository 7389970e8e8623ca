"""Wall-clock spans around public calls, installed from outside the program.

A :class:`SpanLog` replaces a module or class attribute with a wrapper
that records ``(name, start, end, n)`` and restores the original on
:meth:`SpanLog.restore`. Pool children are forked, so wrappers installed
before dispatch run in them too; a child appends its spans to a per-pid
file in the log's directory and :meth:`SpanLog.collect` merges them.
Times come from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which is
comparable across processes of one host.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, float]


class SpanLog:
    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, name: str,
             size: Optional[Callable[[Any], float]] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``size`` maps the call's result to a work count stored with the
        span (records parsed, events derived, a hit as 1 or 0, ...).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            end = time.perf_counter()
            self.record((name, start, end,
                          float(size(result)) if size else 1.0))
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def record(self, span: Span) -> None:
        """Keep one span: in memory in the process that made the log, in
        a per-pid file in any other."""
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        with open(self.directory / ("child-%d.jsonl" % os.getpid()),
                  "a") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self) -> List[Span]:
        """Parent spans plus every span a child wrote; clears the files."""
        spans = list(self.spans)
        for path in sorted(self.directory.glob("child-*.jsonl")):
            with open(path) as fh:
                spans.extend(tuple(json.loads(line)) for line in fh)
            path.unlink()
        return spans


def by_name(spans: List[Span]) -> Dict[str, List[Span]]:
    out: Dict[str, List[Span]] = {}
    for span in spans:
        out.setdefault(span[0], []).append(span)
    return out


def durations(spans: List[Span]) -> List[float]:
    return [end - start for _, start, end, _ in spans]
