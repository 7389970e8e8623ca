"""Trace ingestion: external basic-block/branch traces as workloads.

Every workload in the seed repo comes from the synthetic generator in
:mod:`repro.workloads`.  This package is the other front door: it takes
a branch trace captured from a *real* program (by a Pin tool, a ChampSim
tracer, ``perf`` post-processing, …), normalises it into the versioned
JSONL schema documented in :mod:`repro.traces.schema`, deterministically
downsamples it to a simulable instruction budget
(:mod:`repro.traces.downsample`), reconstructs a ``CodeLayout`` plus a
replayable control-flow stream from the observed edges
(:mod:`repro.traces.synthesize`), and content-addresses the result in
the ``ResultStore`` (:mod:`repro.traces.ingest`) so every run, sweep and
service cell resolves the same immutable trace row by digest.

:mod:`repro.traces.registry` registers bundled traces (and any traces
the user ingested with ``repro ingest --register``) as first-class
benchmark names via the external-benchmark registry in
:mod:`repro.workloads.profiles` — after that, a trace name works
everywhere a profile name does.

Not to be confused with :mod:`repro.workloads.trace` (record/replay of
*our own* walker streams, the ``REPRO-TRACE`` format) or ``repro trace``
(the telemetry capture CLI): this package is about traces produced by
other tools, outside this repo.
"""

from repro.traces.schema import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BranchRecord,
    TraceFormatError,
    TraceIngestError,
    TraceRecordError,
    TraceSchemaError,
    TraceStreamError,
)
from repro.traces.convert import load_records, sniff_format
from repro.traces.downsample import DownsampleReport, downsample_events
from repro.traces.synthesize import TraceProfile, TraceWorkload, synthesize
from repro.traces.ingest import IngestReport, ingest_path, load_workload

__all__ = [
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "BranchRecord",
    "TraceIngestError",
    "TraceFormatError",
    "TraceSchemaError",
    "TraceRecordError",
    "TraceStreamError",
    "load_records",
    "sniff_format",
    "DownsampleReport",
    "downsample_events",
    "TraceProfile",
    "TraceWorkload",
    "synthesize",
    "IngestReport",
    "ingest_path",
    "load_workload",
]
