"""The ingest pipeline: blobs, digests, warm re-ingest, run-key identity."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.service.store import ResultStore
from repro.traces import ingest as ingest_mod
from repro.traces.ingest import (
    blob_payload,
    events_from_blob,
    ingest_events,
    ingest_path,
    load_workload,
    source_fingerprint,
)
from repro.traces.schema import BlockEvent, TraceIngestError
from repro.traces.synthesize import TraceProfile
from repro.utils import freeze


def make_events(n=40, base=0x1000):
    events = []
    for i in range(n):
        start = base + (i % 8) * 0x40
        events.append(BlockEvent(start=start, end=start + 0x20, size=4,
                                 taken=True, target=0, kind="direct"))
    return events


def write_jsonl_file(path, n=40, base=0x1000):
    lines = ['{"schema": "repro-xtrace", "version": 1, "isize": 4}']
    pc = base
    for i in range(n):
        tgt = base + ((i * 7) % 8) * 0x40
        lines.append(json.dumps({"pc": pc + 0x20, "taken": True,
                                 "target": tgt, "size": 4}))
        pc = tgt
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBlob:
    def test_round_trip(self):
        events = make_events()
        payload = blob_payload(events, 4)
        back, isize = events_from_blob(payload)
        assert isize == 4
        assert [(e.start, e.end, e.size, e.taken, e.kind) for e in back] == \
            [(e.start, e.end, e.size, e.taken, e.kind) for e in events]

    def test_digest_is_content_only(self):
        _, d1, _ = ingest_events(make_events(), 4)
        _, d2, _ = ingest_events(make_events(), 4)
        assert d1 == d2

    def test_different_events_different_digest(self):
        _, d1, _ = ingest_events(make_events(base=0x1000), 4)
        _, d2, _ = ingest_events(make_events(base=0x9000), 4)
        assert d1 != d2

    def test_foreign_payload_rejected(self):
        with pytest.raises(TraceIngestError):
            events_from_blob({"schema": "something-else"})
        with pytest.raises(TraceIngestError) as exc:
            events_from_blob({"schema": "repro-xtrace-blob", "version": 99,
                              "events": []})
        assert exc.value.category == "unsupported-version"


class TestFingerprint:
    def test_parameters_change_the_fingerprint(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        base = source_fingerprint(path, "jsonl", 1000, 64, 0)
        assert source_fingerprint(path, "jsonl", 2000, 64, 0) != base
        assert source_fingerprint(path, "jsonl", 1000, 32, 0) != base
        assert source_fingerprint(path, "jsonl", 1000, 64, 1) != base
        assert source_fingerprint(path, "auto", 1000, 64, 0) != base

    def test_bytes_change_the_fingerprint(self, tmp_path):
        a = str(write_jsonl_file(tmp_path / "a.jsonl"))
        b = str(write_jsonl_file(tmp_path / "b.jsonl", base=0x9000))
        assert (source_fingerprint(a, "jsonl", 1000, 64, 0)
                != source_fingerprint(b, "jsonl", 1000, 64, 0))


class TestWarmReingest:
    def test_second_ingest_is_a_store_hit(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        store = ResultStore(str(tmp_path / "store"))
        cold = ingest_path(path, store=store, name="unit")
        assert cold.created
        runs = ingest_mod.PIPELINE_RUNS
        warm = ingest_path(path, store=store)
        # same digest, resolved from the index with ZERO pipeline work
        assert not warm.created
        assert warm.digest == cold.digest
        assert warm.events == cold.events
        assert warm.downsample is None
        assert ingest_mod.PIPELINE_RUNS == runs

    def test_changed_parameters_reingest(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        store = ResultStore(str(tmp_path / "store"))
        ingest_path(path, store=store)
        runs = ingest_mod.PIPELINE_RUNS
        again = ingest_path(path, store=store, seed=7)
        assert again.created
        assert ingest_mod.PIPELINE_RUNS == runs + 1

    def test_gzip_and_plain_are_different_sources(self, tmp_path):
        plain = write_jsonl_file(tmp_path / "t.jsonl")
        gz = tmp_path / "t.jsonl.gz"
        with gzip.open(gz, "wt") as fh:
            fh.write(plain.read_text())
        store = ResultStore(str(tmp_path / "store"))
        a = ingest_path(str(plain), store=store)
        b = ingest_path(str(gz), store=store)
        # different bytes on disk -> both pipelines run, but the decoded
        # content is identical so they share one content-addressed row
        assert a.created and b.created
        assert a.digest == b.digest
        assert store.info()["traces"] == 1


class TestLoadWorkload:
    def test_from_store_by_digest(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        store = ResultStore(str(tmp_path / "store"))
        report = ingest_path(path, store=store, name="unit")
        wl = load_workload("unit", report.digest, store=store)
        assert wl.digest == report.digest
        assert wl.layout.num_blocks > 0

    def test_reingests_from_path_when_store_is_cold(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        report = ingest_path(path)
        wl = load_workload("unit", report.digest, path=path)
        assert wl.digest == report.digest

    @pytest.mark.parametrize("fmt", ["jsonl", "auto"])
    def test_reingest_stores_what_a_cold_ingest_does(self, tmp_path, fmt):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        cold = ingest_path(path, fmt=fmt)
        store = ResultStore(str(tmp_path / "store"))
        # a fresh store: the registered trace re-ingests from its source
        load_workload("unit", cold.digest, store=store, path=path, fmt=fmt)
        warm = ingest_path(path, fmt=fmt, store=store)
        assert not warm.created
        assert (warm.digest, warm.format, warm.events, warm.instructions) \
            == (cold.digest, cold.format, cold.events, cold.instructions)
        assert cold.format == "jsonl" and cold.instructions > 0

    def test_bundle_drift_detected(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        with pytest.raises(TraceIngestError) as exc:
            load_workload("unit", "0" * 40, path=path)
        assert exc.value.category == "bundle-drift"

    def test_no_store_no_path_fails(self):
        with pytest.raises(TraceIngestError):
            load_workload("unit", "0" * 40)


class TestRunKeyIdentity:
    def test_trace_digest_enters_the_frozen_profile(self):
        a = dict(freeze(TraceProfile(name="t", trace_digest="a" * 40)))
        b = dict(freeze(TraceProfile(name="t", trace_digest="b" * 40)))
        # identical in every respect but the blob digest -> the run key
        # (which freezes the whole profile) can never collide
        assert a != b
        assert a["trace_digest"] == "a" * 40

    def test_run_keys_differ_across_bundled_traces(self):
        from repro.simulator.cache import run_key
        from repro.simulator.policies import get_policy
        from repro.workloads.profiles import external_benchmark_names

        names = [n for n in external_benchmark_names()
                 if n.startswith("trace-")]
        if len(names) < 2:
            pytest.skip("bundled traces unavailable in this checkout")
        spec = get_policy("baseline")
        keys = {run_key(n, spec, 10_000, 1_000, 1, None) for n in names}
        assert len(keys) == len(names)


class TestStoreTraceTable:
    def test_info_counts_traces(self, tmp_path):
        path = str(write_jsonl_file(tmp_path / "t.jsonl"))
        store = ResultStore(str(tmp_path / "store"))
        assert store.info()["traces"] == 0
        ingest_path(path, store=store)
        assert store.info()["traces"] == 1
