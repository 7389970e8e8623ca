"""Run-diff triage tests: artifact loading, counter/event divergence
and CLI exit codes."""

import json

import pytest

from repro.cli import main
from repro.telemetry.diff import (
    diff_counters,
    diff_paths,
    first_event_divergence,
    load_artifact,
)
from repro.telemetry.export import write_jsonl
from repro.telemetry.recorder import TraceRecorder


def _run_dump(path, stats, trace=None, telemetry=None):
    dump = {"schema": 1, "benchmark": "noop", "policy": "pdip_44",
            "seed": 1, "stats": stats}
    if trace is not None:
        dump["trace"] = trace
    if telemetry is not None:
        dump["telemetry"] = telemetry
    path.write_text(json.dumps(dump))
    return path


def _manifest(path, cells):
    path.write_text(json.dumps({"schema": 2, "cells": cells}))
    return path


class TestDiffCounters:
    def test_first_divergence_is_in_declaration_order(self):
        a = {"cycles": 10, "resteers": 3, "l1i_misses": 7}
        b = {"cycles": 10, "resteers": 4, "l1i_misses": 9}
        out = diff_counters(a, b)
        assert [d.name for d in out] == ["resteers", "l1i_misses"]

    def test_missing_keys_reported(self):
        out = diff_counters({"x": 1}, {"y": 2})
        assert {(d.name, d.a, d.b) for d in out} == {("x", 1, None),
                                                     ("y", None, 2)}

    def test_extra_dict_skipped(self):
        assert diff_counters({"extra": 1}, {"extra": 2}) == []


class TestFirstEventDivergence:
    def test_equal_streams(self):
        events = [(0, 1, "pq_issue", {"line": 2})]
        assert first_event_divergence(events, list(events)) is None

    def test_mid_stream_divergence(self):
        a = [(0, 1, "pq_issue", {"line": 2}), (1, 3, "pq_issue", {"line": 4})]
        b = [(0, 1, "pq_issue", {"line": 2}), (1, 3, "pq_issue", {"line": 9})]
        fed = first_event_divergence(a, b)
        assert fed["index"] == 1
        assert fed["a"]["args"] == {"line": 4}
        assert fed["b"]["args"] == {"line": 9}

    def test_length_mismatch(self):
        a = [(0, 1, "pq_issue", {"line": 2})]
        fed = first_event_divergence(a, [])
        assert fed["index"] == 0
        assert fed["b"] is None


class TestDiffPaths:
    def test_matching_run_dumps(self, tmp_path):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        b = _run_dump(tmp_path / "b.json", {"cycles": 5})
        report = diff_paths(a, b)
        assert report.verdict == "match"
        assert report.exit_code == 0

    def test_diverging_run_dumps_name_first_counter(self, tmp_path):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5, "resteers": 1})
        b = _run_dump(tmp_path / "b.json", {"cycles": 6, "resteers": 2})
        report = diff_paths(a, b)
        assert report.verdict == "diverged"
        assert report.exit_code == 1
        assert report.first_diverging_counter == "cycles"
        assert "cycles" in report.render()

    def test_run_dumps_with_traces_get_event_triage(self, tmp_path):
        ra, rb = TraceRecorder(capacity=8), TraceRecorder(capacity=8)
        ra.emit("pq_issue", 1, line=1)
        rb.emit("pq_issue", 1, line=2)
        ta = write_jsonl(ra.events(), tmp_path / "a.jsonl")
        tb = write_jsonl(rb.events(), tmp_path / "b.jsonl")
        a = _run_dump(tmp_path / "a.json", {"cycles": 5},
                      trace={"jsonl": str(ta)})
        b = _run_dump(tmp_path / "b.json", {"cycles": 5},
                      trace={"jsonl": str(tb)})
        report = diff_paths(a, b)
        assert report.verdict == "diverged"
        assert report.first_event_divergence["index"] == 0

    def test_ring_drop_note(self, tmp_path):
        tel = {"recorder": {"events_dropped_ring": 17}}
        a = _run_dump(tmp_path / "a.json", {"cycles": 5}, telemetry=tel)
        b = _run_dump(tmp_path / "b.json", {"cycles": 5})
        report = diff_paths(a, b)
        assert any("ring dropped 17" in n for n in report.notes)

    def test_trace_vs_trace(self, tmp_path):
        rec = TraceRecorder(capacity=8)
        rec.emit("pq_issue", 1, line=1)
        ta = write_jsonl(rec.events(), tmp_path / "a.jsonl")
        tb = write_jsonl(rec.events(), tmp_path / "b.jsonl")
        assert diff_paths(ta, tb).verdict == "match"

    def test_manifest_vs_manifest(self, tmp_path):
        cell = {"benchmark": "noop", "policy": "pdip_44", "seed": 1,
                "instructions": 100, "warmup": 10}
        a = _manifest(tmp_path / "a.json",
                      [dict(cell, stats={"cycles": 5})])
        b = _manifest(tmp_path / "b.json",
                      [dict(cell, stats={"cycles": 8})])
        report = diff_paths(a, b)
        assert report.verdict == "diverged"
        assert report.counters[0].cell == "noop/pdip_44/s1"

    def test_report_config_variants_are_compared_apart(self, tmp_path):
        # sweep report rows (a config axis): same grid slot, two configs
        cell = {"benchmark": "noop", "policy": "pdip_44", "seed": 1,
                "instructions": 100, "warmup": 10}
        small = dict(cell, config={"btb_entries": 2048},
                     config_label="small")
        default = dict(cell, config=None, config_label="default")
        a = _manifest(tmp_path / "a.json",
                      [dict(small, stats={"cycles": 5}),
                       dict(default, stats={"cycles": 7})])
        b = _manifest(tmp_path / "b.json",
                      [dict(small, stats={"cycles": 6}),
                       dict(default, stats={"cycles": 7})])
        report = diff_paths(a, b)
        assert report.verdict == "diverged"
        assert [c.cell for c in report.counters] == ["noop/pdip_44[small]/s1"]
        assert not report.notes

        # manifest cells: the config hash tells the variants apart
        a = _manifest(tmp_path / "c.json",
                      [dict(cell, config_hash="aaa", stats={"cycles": 5}),
                       dict(cell, config_hash="bbb", stats={"cycles": 7})])
        b = _manifest(tmp_path / "d.json",
                      [dict(cell, config_hash="aaa", stats={"cycles": 6}),
                       dict(cell, config_hash="bbb", stats={"cycles": 7})])
        assert [c.cell for c in diff_paths(a, b).counters] == [
            "noop/pdip_44/s1"]

    def test_mismatched_kinds_incomparable(self, tmp_path):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        b = _manifest(tmp_path / "b.json", [])
        report = diff_paths(a, b)
        assert report.verdict == "incomparable"
        assert report.exit_code == 2

    def test_unreadable_input_incomparable(self, tmp_path):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        report = diff_paths(a, tmp_path / "missing.json")
        assert report.exit_code == 2

    def test_bare_counter_dict_accepted(self, tmp_path):
        # a raw {counter: value} dump (e.g. stats.to_dict() piped to a
        # file) should classify as a run dump
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"cycles": 5, "resteers": 2}))
        kind, doc = load_artifact(path)
        assert kind == "run"
        assert doc["stats"]["cycles"] == 5

    def test_report_json_is_machine_readable(self, tmp_path):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        b = _run_dump(tmp_path / "b.json", {"cycles": 6})
        doc = diff_paths(a, b).to_dict()
        assert doc["verdict"] == "diverged"
        assert doc["first_diverging_counter"] == "cycles"
        json.dumps(doc)  # must serialize


class TestCli:
    @pytest.fixture(autouse=True)
    def isolated_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_diff_exit_codes(self, tmp_path, capsys):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        b = _run_dump(tmp_path / "b.json", {"cycles": 6})
        assert main(["diff", str(a), str(a)]) == 0
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "first diverging counter: cycles" in out

    def test_diff_json_format(self, tmp_path, capsys):
        a = _run_dump(tmp_path / "a.json", {"cycles": 5})
        b = _run_dump(tmp_path / "b.json", {"cycles": 6})
        assert main(["diff", str(a), str(b), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["first_diverging_counter"] == "cycles"

    def test_trace_run_exports_artifacts(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "run", "noop", "--instructions", "2000",
                     "--warmup", "500", "--out", "t"]) == 0
        chrome = json.loads((tmp_path / "t.trace.json").read_text())
        assert chrome["traceEvents"]
        run = json.loads((tmp_path / "t.run.json").read_text())
        assert run["stats"]["cycles"] > 0
        assert run["telemetry"]["recorder"]["events_offered"] > 0
        assert (tmp_path / "t.trace.jsonl").exists()

    def test_trace_run_pair_diffs_nonzero(self, tmp_path, capsys,
                                          monkeypatch):
        # the acceptance-criteria loop: two seeds, diff names a counter
        monkeypatch.chdir(tmp_path)
        for seed in (1, 2):
            assert main(["trace", "run", "noop", "--instructions", "2000",
                         "--warmup", "500", "--seed", str(seed),
                         "--out", "s%d" % seed]) == 0
        assert main(["diff", "s1.run.json", "s1.run.json"]) == 0
        capsys.readouterr()
        assert main(["diff", "s1.run.json", "s2.run.json"]) == 1
        assert "first diverging counter" in capsys.readouterr().out

    def test_run_stats_out_dump_is_diffable(self, tmp_path, capsys):
        out = tmp_path / "dump.json"
        assert main(["run", "noop", "pdip_44", "--instructions", "2000",
                     "--warmup", "500", "--stats-out", str(out)]) == 0
        assert main(["diff", str(out), str(out)]) == 0
